(* Tests for the three optimizations of Section 3: shrink-back,
   asymmetric edge removal (Discovery.core), and pairwise redundant
   edge removal.  The shrink-back cases and properties state op1 on the
   list oracle (Spec_optimize.shrink_back, which keeps the lowered
   powers); the pairwise cases run the library's flat op3
   (Cbtc.Optimize.pairwise) and check it against the list oracle on
   every call.  test_pipeline.ml pins the flat pipeline to the oracle
   as a whole. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let alpha56 = Geom.Angle.five_pi_six

let pl = Radio.Pathloss.make ~max_range:100. ()

let run ?growth positions =
  Cbtc.Geo.run_flat (Cbtc.Config.make ?growth alpha56) pl positions

let neighbor_ids = Cbtc.Discovery.neighbor_ids

(* ---------- shrink-back ---------- *)

let test_shrink_drops_non_contributing_far_node () =
  (* Node 0 is a boundary node (half-plane coverage only).  Nodes 1-3 at
     distance 5 cover directions 0, 90, 180; node 4 sits far away at
     direction 90, contributing nothing new.  Shrink-back must drop it
     and lower node 0's power from P to p(5). *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 5. 0.; Geom.Vec2.make 0. 5.;
       Geom.Vec2.make (-5.) 0.; Geom.Vec2.make 0. 80. |]
  in
  let d = run positions in
  Alcotest.(check bool) "node 0 is boundary" true d.boundary.(0);
  Alcotest.(check (list int)) "before: all four" [ 1; 2; 3; 4 ] (neighbor_ids d 0);
  check_float "before: max power" (Radio.Pathloss.max_power pl) d.power.(0);
  let s = Spec_optimize.shrink_back d in
  Alcotest.(check (list int)) "after: far node dropped" [ 1; 2; 3 ]
    (neighbor_ids s 0);
  check_float "after: power p(5)" (Radio.Pathloss.power_for_distance pl 5.)
    s.power.(0);
  Alcotest.(check bool) "still flagged boundary" true s.boundary.(0)

let test_shrink_keeps_contributing_far_node () =
  (* Same, but the far node covers an otherwise-empty direction: kept. *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 5. 0.; Geom.Vec2.make 0. 5.;
       Geom.Vec2.make 0. (-80.) |]
  in
  let d = run positions in
  let s = Spec_optimize.shrink_back d in
  Alcotest.(check (list int)) "far contributor kept" [ 1; 2; 3 ]
    (neighbor_ids s 0)

let test_shrink_neighbors_empty () =
  Alcotest.(check bool) "empty list" true
    (Cbtc.Optimize.shrink_neighbors ~alpha:alpha56 [] = ([], None))

let positions_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    list_repeat n (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> Geom.Vec2.make x y) pts))

let prop_shrink_is_reduction =
  QCheck.Test.make ~count:50
    ~name:"shrink-back only removes neighbors and only lowers power"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run ~growth:(Cbtc.Config.Double 25.) positions in
      let s = Spec_optimize.shrink_back d in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        if s.power.(u) > d.power.(u) +. 1e-9 then ok := false;
        if
          not
            (List.for_all
               (fun v -> List.mem v (neighbor_ids d u))
               (neighbor_ids s u))
        then ok := false
      done;
      !ok)

let prop_shrink_idempotent =
  QCheck.Test.make ~count:50 ~name:"shrink-back is idempotent"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run ~growth:(Cbtc.Config.Double 25.) positions in
      let s1 = Spec_optimize.shrink_back d in
      let s2 = Spec_optimize.shrink_back s1 in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        if neighbor_ids s1 u <> neighbor_ids s2 u then ok := false;
        if Float.abs (s1.power.(u) -. s2.power.(u)) > 1e-12 then ok := false
      done;
      !ok)

let prop_shrink_preserves_coverage =
  QCheck.Test.make ~count:50
    ~name:"shrink-back preserves each node's angular coverage"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run positions in
      let s = Spec_optimize.shrink_back d in
      let cover (x : Cbtc.Discovery.t) u =
        Spec_dirset.cover ~alpha:alpha56
          (Cbtc.Neighbor.directions (Spec_geo.rows x).(u))
      in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        if not (Arcset.equal (cover d u) (cover s u)) then ok := false
      done;
      !ok)

let prop_shrink_neighbors_matches_spec =
  QCheck.Test.make ~count:100
    ~name:"shrink_neighbors (incremental) = prefix-recomputation spec"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run ~growth:(Cbtc.Config.Double 25.) positions in
      let rows = Spec_geo.rows d in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        let got = Cbtc.Optimize.shrink_neighbors ~alpha:alpha56 rows.(u) in
        let want = Spec_optimize.shrink_neighbors ~alpha:alpha56 rows.(u) in
        if got <> want then ok := false
      done;
      !ok)

let prop_shrink_preserves_connectivity =
  QCheck.Test.make ~count:50
    ~name:"Theorem 3.1: shrink-back preserves connectivity"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run positions in
      let gr = Cbtc.Geo.max_power_graph pl positions in
      let r = Cbtc.Pipeline.of_discovery d (Cbtc.Pipeline.with_shrink d.config) in
      Graphkit.Traversal.same_partition gr r.Cbtc.Pipeline.graph)

(* Lattice points 20 apart: many equal distances, so rows carry
   link-power ties, and under Double growth many neighbors share one
   tag. *)
let lattice_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    list_repeat n (pair (int_bound 12) (int_bound 12)) >|= fun pts ->
    Array.of_list
      (List.map
         (fun (i, j) ->
           Geom.Vec2.make (20. *. Stdlib.float_of_int i) (20. *. Stdlib.float_of_int j))
         pts))

let prop_shrink_keeps_row_prefix =
  QCheck.Test.make ~count:100
    ~name:"op1 keeps a prefix of each kernel row, ties and shared tags"
    (QCheck.make QCheck.Gen.(pair lattice_gen (oneofl [ 10.; 25.; 200. ])))
    (fun (positions, p0) ->
      let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double p0) alpha56 in
      let s = Cbtc.Geo.run_flat config pl positions in
      let shrunk = Spec_optimize.shrink_back s in
      (* shrink_cut raises on a row out of (tag, link power, id) order *)
      let cut = Cbtc.Optimize.shrink_cut s in
      List.for_all
        (fun u ->
          let kept =
            List.init (Cbtc.Discovery.degree shrunk u) (fun r ->
                shrunk.ids.(shrunk.off.(u) + r))
          in
          let k = List.length kept in
          cut.(u) = s.off.(u) + k
          && kept = List.init k (fun r -> s.ids.(s.off.(u) + r)))
        (List.init (Array.length positions) Fun.id))

(* ---------- op1 boundary: the gap walk = the arc-set spec ---------- *)

(* Op1's gap walk (Optimize.shrink_neighbors and shrink_cut) against
   Spec_optimize's arc-set prefix recomputation on rows built to sit on
   the 1e-9 boundary rule: ulp-apart and equal directions, gaps of
   alpha +- 1e-9 and +-1-2 ulps around them, arcs whose start lands
   within 1e-9 of the previous arc's end, the 0/2pi seam, and shared
   tags, with wide gaps (boundary rows) as often as not. *)

let two_pi = Geom.Angle.two_pi

let rec ulps k x =
  if k > 0 then ulps (k - 1) (Float.succ x)
  else if k < 0 then ulps (k + 1) (Float.pred x)
  else x

(* How an adversarial row's next direction follows the previous one. *)
type step =
  | Same  (** an equal direction, as of a coincident node *)
  | Ulps of int  (** that many ulps away *)
  | Gap of float * int  (** alpha + the offset past it, then ulps *)
  | Touch of float * int
      (** its arc starting the offset past the previous arc's end, as
          op1 computes both, then ulps *)
  | Near of float * int  (** the offset past it, then ulps *)
  | Free of float

let next_dir ~alpha prev = function
  | Same -> prev
  | Ulps k -> ulps k prev
  | Gap (off, k) -> ulps k (prev +. alpha +. off)
  | Touch (off, k) ->
      let half = alpha /. 2. in
      let start = Geom.Angle.normalize (prev -. half) in
      ulps k (start +. alpha +. off +. half)
  | Near (off, k) -> ulps k (prev +. off)
  | Free x -> prev +. x

let boundary_row_gen =
  QCheck.Gen.(
    let offset = oneofl [ -2e-9; -1e-9; 0.; 1e-9; 2e-9 ] and k = int_range (-2) 2 in
    let step =
      frequency
        [
          (1, return Same);
          (2, map (fun k -> Ulps k) (int_range (-3) 3));
          (3, map2 (fun o k -> Gap (o, k)) offset k);
          (3, map2 (fun o k -> Touch (o, k)) offset k);
          (2, map2 (fun o k -> Near (o, k)) offset k);
          (2, map (fun x -> Free x) (float_bound_exclusive Float.pi));
        ]
    in
    oneof
      [
        oneofl
          [ alpha56; Geom.Angle.two_pi_three; two_pi; Float.pred two_pi ];
        float_range 0.2 6.2;
      ]
    >>= fun alpha ->
    let half = alpha /. 2. in
    (* first directions on the seam: 0, just below 2pi, an arc starting
       at 0 or within ~1e-9 of it, an arc ending within ~1e-9 of 2pi *)
    oneof
      [
        oneofl [ 0.; Float.pred two_pi; half ];
        map2 (fun o k -> ulps k (half +. o)) offset k;
        map2 (fun o k -> ulps k (two_pi -. half +. o)) offset k;
        float_bound_exclusive two_pi;
      ]
    >>= fun first ->
    int_range 0 9 >>= fun more ->
    list_repeat more step >>= fun steps ->
    list_repeat (more + 1) (pair (int_range 1 3) (float_bound_exclusive 1.))
    >|= fun tags ->
    let dirs =
      List.rev
        (List.fold_left
           (fun acc st -> next_dir ~alpha (List.hd acc) st :: acc)
           [ first ] steps)
    in
    let row =
      List.mapi
        (fun id (d, (tag, link_power)) ->
          Cbtc.Neighbor.make ~id ~dir:(Geom.Angle.normalize d) ~link_power
            ~tag:(Stdlib.float_of_int tag))
        (List.combine dirs tags)
    in
    (alpha, row))

let print_row (alpha, row) =
  Fmt.str "alpha %h:@ %a" alpha
    Fmt.(
      list ~sep:sp (fun ppf (nb : Cbtc.Neighbor.t) ->
          Fmt.pf ppf "(dir %h, tag %g)" nb.dir nb.tag))
    row

let prop_shrink_boundary_matches_spec =
  QCheck.Test.make ~count:3000
    ~name:"op1 gap walk = arc-set spec on 1e-9 boundary rows"
    (QCheck.make ~print:print_row boundary_row_gen)
    (fun (alpha, row) ->
      let want = Spec_optimize.shrink_neighbors ~alpha row in
      (* the same row as node 0 of a discovery, through shrink_cut *)
      let k = List.length row in
      let d =
        Cbtc.Discovery.pack ~config:(Cbtc.Config.make alpha) ~pathloss:pl
          ~positions:(Array.make (k + 1) Geom.Vec2.zero)
          ~power:(Array.make (k + 1) 1.) ~boundary:(Array.make (k + 1) false)
          (Array.init (k + 1) (fun u -> if u = 0 then row else []))
      in
      let cut = Cbtc.Optimize.shrink_cut (Cbtc.Optimize.by_tag d) in
      Cbtc.Optimize.shrink_neighbors ~alpha row = want
      && cut.(0) = List.length (fst want))

(* The boundary rule on hand-built rows, each decided as the arc-set
   spec decides it. *)
let test_shrink_boundary_cases () =
  let half = alpha56 /. 2. in
  let nb id dir tag = Cbtc.Neighbor.make ~id ~dir ~link_power:tag ~tag in
  let check name row kept =
    let got = Cbtc.Optimize.shrink_neighbors ~alpha:alpha56 row in
    Alcotest.(check bool) (name ^ ": = arc-set spec") true
      (got = Spec_optimize.shrink_neighbors ~alpha:alpha56 row);
    Alcotest.(check (list int)) (name ^ ": kept") kept
      (List.map (fun (nb : Cbtc.Neighbor.t) -> nb.id) (fst got))
  in
  (* arcs a few ulps before or after a kept one add nothing within the
     1e-9 margin (2 lies in [half, 2 half], so the arc starts keep the
     ulps, and three of them survive the rounding of the arc ends) *)
  check "arcs 3 ulps apart" [ nb 0 2. 1.; nb 1 (ulps (-3) 2.) 2.; nb 2 (ulps 3 2.) 2. ]
    [ 0 ];
  (* a direction whose arc starts exactly at [start], as op1 computes
     arc starts (not every float is one: [d -. half] may round) *)
  let start_of d = Geom.Angle.normalize (d -. half) in
  let dir_with_start start =
    List.find_opt
      (fun d -> start_of d = start)
      (List.init 17 (fun k -> ulps (k - 8) (start +. half)))
  in
  (* a first arc [s, s + alpha] and a second starting 1e-9 after its
     end still merge, so a third arc between them adds nothing; a few
     ulps further, the gap is wide and the third arc fills part of it *)
  let arcs_apart ~ulps:k =
    match
      List.find_map
        (fun j ->
          let near = half +. (0.001 *. Stdlib.float_of_int j) in
          Option.map
            (fun far -> (near, far))
            (dir_with_start (ulps k (start_of near +. alpha56 +. 1e-9))))
        (List.init 100 Fun.id)
    with
    | Some dirs -> dirs
    | None -> Alcotest.failf "no arcs 1e-9 + %d ulps apart" k
  in
  let near, far = arcs_apart ~ulps:0 in
  check "arcs 1e-9 apart"
    [ nb 0 near 1.; nb 1 far 1.; nb 2 (near +. half) 2. ]
    [ 0; 1 ];
  let near, far = arcs_apart ~ulps:2 in
  check "arcs 1e-9 + 2 ulps apart"
    [ nb 0 near 1.; nb 1 far 1.; nb 2 (near +. half) 2. ]
    [ 0; 1; 2 ];
  (* alpha an ulp below 2pi/3: the arc of 0x1.219c45a105461p+2 starts
     exactly 1e-9 after the arc of 0x1.372367bd0d945p+1 ends, so the two
     merge; the kept arc three ulps later does not, and the gap it
     leaves is the dropped arc's to fill *)
  let alpha = 0x1.0c152382d7365p+1 in
  let row =
    [ nb 0 0x1.372367bd0d945p+1 2.; nb 1 0x1.219c45a105461p+2 3.;
      nb 2 0x1.219c45a105464p+2 2. ]
  in
  let got = Cbtc.Optimize.shrink_neighbors ~alpha row in
  Alcotest.(check bool) "bridging arc: = arc-set spec" true
    (got = Spec_optimize.shrink_neighbors ~alpha row);
  Alcotest.(check (option (float 0.))) "bridging arc: kept up to tag 3" (Some 3.)
    (snd got)

(* ---------- allocation ---------- *)

(* Op1 and op3 allocate nothing per node beyond their outputs, which
   (like every array of more than 256 words) go straight to the major
   heap; their fixed per-call cost comes to well under one minor word
   per node at n = 2000.  A boxed float slipping back into either loop
   costs two minor words per node at the least (one per slot or witness
   test in practice), and fails the bound. *)
let test_op1_op3_allocation () =
  let n = 2000 in
  let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
  let sc =
    Workload.Scenario.make ~n ~width:side ~height:side ~max_range:500. ~seed:42 ()
  in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let d = Cbtc.Geo.run_flat (Cbtc.Config.make alpha56) pl positions in
  let t =
    Cbtc.Discovery.topology ~both:false d ~cut:(Cbtc.Optimize.shrink_cut d)
  in
  let per_node f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. w0) /. Stdlib.float_of_int n
  in
  let op1 = per_node (fun () -> Cbtc.Optimize.shrink_cut d) in
  let op3 = per_node (fun () -> Cbtc.Optimize.pairwise positions t) in
  if op1 > 1. then Alcotest.failf "op1: %.3f minor words per node" op1;
  if op3 > 1. then Alcotest.failf "op3: %.3f minor words per node" op3

(* ---------- pairwise (redundant edge) removal ---------- *)

(* Op3 on a Ugraph through the library's flat rows: [g] as an
   Discovery.topology, pruned by Optimize.pairwise, read back.  Every
   call also runs the list oracle and fails unless both remove the same
   edges. *)
let pairwise ~positions ?obs ~mode g =
  let n = Graphkit.Ugraph.nb_nodes g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Graphkit.Ugraph.degree g u
  done;
  let adj =
    Array.concat
      (List.init n (fun u -> Array.of_list (Graphkit.Ugraph.neighbors g u)))
  in
  let d2 = Array.make off.(n) 0. in
  for u = 0 to n - 1 do
    for a = off.(u) to off.(u + 1) - 1 do
      d2.(a) <- Geom.Vec2.dist2 positions.(u) positions.(adj.(a))
    done
  done;
  let got =
    Cbtc.Discovery.graph
      (Cbtc.Optimize.pairwise ?obs ~mode positions { off; adj; d2 })
  in
  if not (Graphkit.Ugraph.equal got (Spec_optimize.pairwise ~positions ~mode g))
  then Alcotest.fail "flat pairwise differs from Spec_optimize.pairwise";
  got

(* The hand cases' redundant edges, from the oracle; op3 in `All mode
   must remove exactly those. *)
let redundant_edges ~positions g =
  let red = Spec_optimize.spec_redundant_edges ~positions g in
  Alcotest.(check (list (pair int int)))
    "`All removes exactly the redundant edges"
    (List.filter (fun e -> not (List.mem e red)) (Graphkit.Ugraph.edges g))
    (Graphkit.Ugraph.edges (pairwise ~positions ~mode:`All g));
  red

let triangle_positions =
  (* d(0,1) = 10 is redundant seen from node 0: node 2 is closer and at
     an angle well under pi/3. *)
  [| Geom.Vec2.zero; Geom.Vec2.make 10. 0.; Geom.Vec2.make 8. 1. |]

let full_triangle () =
  Graphkit.Ugraph.of_edges 3 [ (0, 1); (0, 2); (1, 2) ]

let test_redundant_edge_detected () =
  let red =
    redundant_edges ~positions:triangle_positions (full_triangle ())
  in
  Alcotest.(check (list (pair int int))) "longest edge is redundant" [ (0, 1) ] red

let test_pairwise_all_removes () =
  let g' =
    pairwise ~positions:triangle_positions ~mode:`All
      (full_triangle ())
  in
  Alcotest.(check (list (pair int int))) "edge removed, path remains"
    [ (0, 2); (1, 2) ]
    (Graphkit.Ugraph.edges g');
  Alcotest.(check bool) "still connected" true (Graphkit.Traversal.is_connected g')

let test_equilateral_not_redundant () =
  (* Angles are exactly pi/3: the strict inequality of Definition 3.5
     means nothing is redundant. *)
  let h = sqrt 3. /. 2. *. 10. in
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 0.; Geom.Vec2.make 5. h |]
  in
  let red = redundant_edges ~positions (full_triangle ()) in
  Alcotest.(check (list (pair int int))) "no redundancy at exactly pi/3" [] red

let test_eid_tie_breaking () =
  (* Isoceles with two equal long edges at a small apex angle: only one
     of the equal-length edges is redundant, by node-id tie-breaking
     (eid uses (length, max id, min id)). *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 1.; Geom.Vec2.make 10. (-1.) |]
  in
  let red =
    redundant_edges ~positions (full_triangle ())
  in
  (* edges (0,1) and (0,2) have equal length; eid(0,2) > eid(0,1), and
     the angle at node 0 between them is small, so (0,2) is redundant
     via witness (0,1) but not vice versa. *)
  Alcotest.(check (list (pair int int))) "only the larger eid is redundant"
    [ (0, 2) ] red

let test_mutual_pair_loses_one_edge () =
  (* Regression: (0,1) and (0,2) are exactly equidistant and separated
     by a small angle, so each is the other's witness.  With a
     non-strict eid order both edges of the pair were removed at once,
     isolating node 0; the strict (dist2, max id, min id) order removes
     exactly one. *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 1.; Geom.Vec2.make 10. (-1.) |]
  in
  let g' =
    pairwise ~positions ~mode:`All (full_triangle ())
  in
  Alcotest.(check (list (pair int int))) "exactly one of the pair removed"
    [ (0, 1); (1, 2) ]
    (Graphkit.Ugraph.edges g');
  Alcotest.(check bool) "node 0 not isolated" true
    (Graphkit.Traversal.is_connected g')

let test_coincident_witness_cannot_isolate () =
  (* Regression: node 1 sits exactly on node 0.  A zero-length witness
     edge used to make every other edge at node 0 redundant (any angle
     compares below pi/3 against a degenerate direction), so `All mode
     removed both (0,2) and (1,2) and cut node 2 off.  Theorem 3.6's
     triangle argument needs d(w,v) < d(u,v) strictly, which fails for
     a coincident witness; such witnesses must be ignored. *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.zero; Geom.Vec2.make 1. 0. |]
  in
  let red = redundant_edges ~positions (full_triangle ()) in
  (* (1,2) is legitimately redundant seen from node 2, whose witness 0
     is at full distance; (0,2) must NOT be, because its only witness
     (node 1, seen from node 0) is coincident. *)
  Alcotest.(check (list (pair int int)))
    "only the edge with a non-degenerate witness is redundant" [ (1, 2) ] red;
  let g' = pairwise ~positions ~mode:`All (full_triangle ()) in
  Alcotest.(check bool) "node 2 still reachable" true
    (Graphkit.Traversal.is_connected g')

(* Positions with deliberate duplicates: coincident nodes exercise the
   zero-length-edge and equidistant tie-break paths of eid. *)
let dup_positions_gen =
  QCheck.Gen.(
    positions_gen >>= fun positions ->
    let n = Array.length positions in
    int_range 0 (n - 1) >>= fun src ->
    int_range 0 (n - 1) >|= fun dst ->
    let positions = Array.copy positions in
    positions.(dst) <- positions.(src);
    positions)

let prop_pairwise_no_mutual_removal_with_duplicates =
  QCheck.Test.make ~count:100
    ~name:"pairwise `All never splits a component, even with coincident nodes"
    (QCheck.make dup_positions_gen)
    (fun positions ->
      let d = run ~growth:(Cbtc.Config.Double 25.) positions in
      let g = Cbtc.Discovery.closure d in
      let all = pairwise ~positions ~mode:`All g in
      Graphkit.Traversal.same_partition g all)

let test_pairwise_practical_spares_short_edges () =
  (* A redundant edge shorter than the node's longest non-redundant edge
     is kept in `Practical mode (it cannot reduce the radius). *)
  (* node 2 is placed so that (0,1) is redundant seen from node 0 only:
     the angle at node 1 between 0 and 2 is above pi/3 *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 0.; Geom.Vec2.make 9. 2.;
       Geom.Vec2.make (-80.) 0. |]
  in
  let g = Graphkit.Ugraph.of_edges 4 [ (0, 1); (0, 2); (1, 2); (0, 3) ] in
  let all = pairwise ~positions ~mode:`All g in
  let practical = pairwise ~positions ~mode:`Practical g in
  Alcotest.(check bool) "`All removes (0,1)" false
    (Graphkit.Ugraph.mem_edge all 0 1);
  Alcotest.(check bool) "`Practical keeps (0,1): node 0 still reaches 80 away"
    true
    (Graphkit.Ugraph.mem_edge practical 0 1);
  Alcotest.(check bool) "practical contains all-mode graph" true
    (Graphkit.Ugraph.is_subgraph all practical)

let prop_pairwise_preserves_connectivity =
  QCheck.Test.make ~count:50
    ~name:"Theorem 3.6: pairwise removal preserves connectivity"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run positions in
      let g = Cbtc.Discovery.closure d in
      let all = pairwise ~positions ~mode:`All g in
      let practical = pairwise ~positions ~mode:`Practical g in
      Graphkit.Traversal.same_partition g all
      && Graphkit.Traversal.same_partition g practical
      && Graphkit.Ugraph.is_subgraph all g
      && Graphkit.Ugraph.is_subgraph practical g)

let prop_practical_between_all_and_original =
  QCheck.Test.make ~count:50
    ~name:"`All removes at least what `Practical removes"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run positions in
      let g = Cbtc.Discovery.closure d in
      let all = pairwise ~positions ~mode:`All g in
      let practical = pairwise ~positions ~mode:`Practical g in
      Graphkit.Ugraph.is_subgraph all practical)

(* Op3 in two passes, the oracle for the single pass of
   Optimize.pairwise and Spec_optimize.pairwise:
   list the redundant edges, then re-evaluate each one's verdicts for the
   practical filter. *)
let two_pass_pairwise ~positions ~mode g =
  let redundant_from = Spec_optimize.spec_redundant_from ~positions g in
  let redundant = Spec_optimize.spec_redundant_edges ~positions g in
  let to_remove =
    match mode with
    | `All -> redundant
    | `Practical ->
        let longest_nr = Array.make (Graphkit.Ugraph.nb_nodes g) 0. in
        Graphkit.Ugraph.iter_edges
          (fun u v ->
            if not (List.mem (u, v) redundant) then begin
              let d = Geom.Vec2.dist positions.(u) positions.(v) in
              if d > longest_nr.(u) then longest_nr.(u) <- d;
              if d > longest_nr.(v) then longest_nr.(v) <- d
            end)
          g;
        List.filter
          (fun (u, v) ->
            let d = Geom.Vec2.dist positions.(u) positions.(v) in
            (redundant_from u v && d > longest_nr.(u))
            || (redundant_from v u && d > longest_nr.(v)))
          redundant
  in
  let g' = Graphkit.Ugraph.copy g in
  List.iter (fun (u, v) -> Graphkit.Ugraph.remove_edge g' u v) to_remove;
  (g', List.length redundant, List.length to_remove)

let prop_pairwise_matches_two_pass =
  QCheck.Test.make ~count:100
    ~name:"single-pass pairwise = two-pass oracle, both modes, coincident nodes"
    (QCheck.make dup_positions_gen)
    (fun positions ->
      let d = run ~growth:(Cbtc.Config.Double 25.) positions in
      List.for_all
        (fun g ->
          List.for_all
            (fun mode ->
              let obs = Obs.Recorder.create () in
              let got = pairwise ~positions ~obs ~mode g in
              let want, redundant, removed = two_pass_pairwise ~positions ~mode g in
              Graphkit.Ugraph.equal got want
              && Obs.Recorder.counter obs "pairwise.redundant_edges" = redundant
              && Obs.Recorder.counter obs "pairwise.removed_edges" = removed)
            [ `All; `Practical ])
        [ Cbtc.Discovery.closure d; Cbtc.Discovery.core d ])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "optimize"
    [
      ( "shrink-back",
        [
          Alcotest.test_case "drops non-contributing far node" `Quick
            test_shrink_drops_non_contributing_far_node;
          Alcotest.test_case "keeps contributing far node" `Quick
            test_shrink_keeps_contributing_far_node;
          Alcotest.test_case "empty neighbor list" `Quick test_shrink_neighbors_empty;
          Alcotest.test_case "1e-9 boundary rows" `Quick test_shrink_boundary_cases;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "op1 and op3 per node" `Quick
            test_op1_op3_allocation;
        ] );
      ( "pairwise",
        [
          Alcotest.test_case "redundant edge detected" `Quick test_redundant_edge_detected;
          Alcotest.test_case "all-mode removes" `Quick test_pairwise_all_removes;
          Alcotest.test_case "equilateral not redundant" `Quick
            test_equilateral_not_redundant;
          Alcotest.test_case "eid tie-breaking" `Quick test_eid_tie_breaking;
          Alcotest.test_case "mutual pair loses exactly one edge" `Quick
            test_mutual_pair_loses_one_edge;
          Alcotest.test_case "coincident witness cannot isolate" `Quick
            test_coincident_witness_cannot_isolate;
          Alcotest.test_case "practical spares short edges" `Quick
            test_pairwise_practical_spares_short_edges;
        ] );
      ( "properties",
        qsuite
          [
            prop_shrink_is_reduction;
            prop_shrink_neighbors_matches_spec;
            prop_shrink_idempotent;
            prop_shrink_preserves_coverage;
            prop_shrink_preserves_connectivity;
            prop_shrink_keeps_row_prefix;
            prop_shrink_boundary_matches_spec;
            prop_pairwise_preserves_connectivity;
            prop_practical_between_all_and_original;
            prop_pairwise_no_mutual_removal_with_duplicates;
            prop_pairwise_matches_two_pass;
          ] );
    ]
