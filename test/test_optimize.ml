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
        Geom.Dirset.cover ~alpha:alpha56
          (Cbtc.Neighbor.directions (Spec_geo.rows x).(u))
      in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        if not (Geom.Arcset.equal (cover d u) (cover s u)) then ok := false
      done;
      !ok)

(* Reference spec for shrink_neighbors, written exactly as Section 3.1
   states it: try each tag prefix from the lowest, recomputing its whole
   coverage, until coverage matches the full set.  The production code
   walks tag classes incrementally; results must agree bit-for-bit. *)
let shrink_neighbors_spec ~alpha neighbors =
  match neighbors with
  | [] -> ([], None)
  | _ :: _ ->
      let full_cover =
        Geom.Dirset.cover ~alpha (Cbtc.Neighbor.directions neighbors)
      in
      let tags =
        List.sort_uniq Float.compare
          (List.map (fun (nb : Cbtc.Neighbor.t) -> nb.Cbtc.Neighbor.tag)
             neighbors)
      in
      let keep_up_to tag =
        List.filter
          (fun (nb : Cbtc.Neighbor.t) -> nb.Cbtc.Neighbor.tag <= tag)
          neighbors
      in
      let tag =
        List.find
          (fun tag ->
            Geom.Arcset.equal
              (Geom.Dirset.cover ~alpha
                 (Cbtc.Neighbor.directions (keep_up_to tag)))
              full_cover)
          tags
      in
      (keep_up_to tag, Some tag)

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
        let want = shrink_neighbors_spec ~alpha:alpha56 rows.(u) in
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
            prop_pairwise_preserves_connectivity;
            prop_practical_between_all_and_original;
            prop_pairwise_no_mutual_removal_with_duplicates;
            prop_pairwise_matches_two_pass;
          ] );
    ]
