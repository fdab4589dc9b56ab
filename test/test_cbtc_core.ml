(* Tests for the CBTC core: configuration, power schedules, neighbor
   records, and the centralized geometric oracle on hand-built layouts. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let alpha56 = Geom.Angle.five_pi_six

let pl = Radio.Pathloss.make ~max_range:100. ()

let max_p = Radio.Pathloss.max_power pl

let neighbor_ids (d : Cbtc.Discovery.t) u =
  List.init (Cbtc.Discovery.degree d u) (fun r -> d.ids.(d.off.(u) + r))

(* ---------- Config ---------- *)

let test_config_validation () =
  ignore (Cbtc.Config.make alpha56);
  ignore (Cbtc.Config.make ~growth:(Cbtc.Config.Double 1.) 1.0);
  Alcotest.check_raises "alpha 0" (Invalid_argument "Config: alpha out of (0, 2pi]")
    (fun () -> ignore (Cbtc.Config.make 0.));
  Alcotest.check_raises "alpha > 2pi" (Invalid_argument "Config: alpha out of (0, 2pi]")
    (fun () -> ignore (Cbtc.Config.make 7.));
  Alcotest.check_raises "p0" (Invalid_argument "Config: non-positive initial power")
    (fun () -> ignore (Cbtc.Config.make ~growth:(Cbtc.Config.Double 0.) 1.));
  Alcotest.check_raises "factor"
    (Invalid_argument "Config: growth factor must exceed 1") (fun () ->
      ignore
        (Cbtc.Config.make ~growth:(Cbtc.Config.Mult { p0 = 1.; factor = 1. }) 1.))

let test_config_thresholds () =
  Alcotest.(check bool) "5pi/6 preserves" true
    (Cbtc.Config.preserves_connectivity (Cbtc.Config.make alpha56));
  Alcotest.(check bool) "above 5pi/6 does not" false
    (Cbtc.Config.preserves_connectivity (Cbtc.Config.make (alpha56 +. 0.01)));
  Alcotest.(check bool) "2pi/3 allows asym" true
    (Cbtc.Config.allows_asymmetric_removal
       (Cbtc.Config.make Geom.Angle.two_pi_three));
  Alcotest.(check bool) "5pi/6 does not allow asym" false
    (Cbtc.Config.allows_asymmetric_removal (Cbtc.Config.make alpha56))

let test_power_steps_exact () =
  let c = Cbtc.Config.make alpha56 in
  Alcotest.(check (list (float 1e-9))) "sorted unique link powers"
    [ 1.; 2.; 5. ]
    (Cbtc.Config.power_steps c ~pathloss:pl ~link_powers:[ 5.; 1.; 2.; 1. ]);
  Alcotest.(check (list (float 1e-9))) "no candidates falls back to P"
    [ max_p ]
    (Cbtc.Config.power_steps c ~pathloss:pl ~link_powers:[])

let test_power_steps_double () =
  let c = Cbtc.Config.make ~growth:(Cbtc.Config.Double 1000.) alpha56 in
  let steps = Cbtc.Config.power_steps c ~pathloss:pl ~link_powers:[] in
  (* 1000, 2000, 4000, 8000, and the final step is exactly P = 10000. *)
  Alcotest.(check (list (float 1e-6))) "doubling, clamped at P"
    [ 1000.; 2000.; 4000.; 8000.; max_p ]
    steps;
  (* each step at most doubles, so power overshoot is bounded by 2x *)
  let rec ratios = function
    | a :: (b :: _ as rest) ->
        if b /. a > 2. +. 1e-9 then Alcotest.failf "step ratio %g > 2" (b /. a);
        ratios rest
    | _ -> ()
  in
  ratios steps

let test_power_steps_mult () =
  let c =
    Cbtc.Config.make ~growth:(Cbtc.Config.Mult { p0 = 100.; factor = 10. })
      alpha56
  in
  Alcotest.(check (list (float 1e-6))) "mult schedule"
    [ 100.; 1000.; max_p ]
    (Cbtc.Config.power_steps c ~pathloss:pl ~link_powers:[])

(* ---------- Neighbor ---------- *)

let test_neighbor_ordering () =
  let mk id link tag =
    Cbtc.Neighbor.make ~id ~dir:0.5 ~link_power:link ~tag
  in
  let a = mk 1 2. 4. and b = mk 2 1. 8. and c = mk 3 2. 2. in
  let by_link = List.sort Cbtc.Neighbor.compare_by_link_power [ a; b; c ] in
  Alcotest.(check (list int)) "by link power then id" [ 2; 1; 3 ]
    (List.map (fun (n : Cbtc.Neighbor.t) -> n.Cbtc.Neighbor.id) by_link);
  let by_tag = List.sort Cbtc.Neighbor.compare_by_tag [ a; b; c ] in
  Alcotest.(check (list int)) "by tag" [ 3; 1; 2 ]
    (List.map (fun (n : Cbtc.Neighbor.t) -> n.Cbtc.Neighbor.id) by_tag);
  Alcotest.check_raises "negative link power"
    (Invalid_argument "Neighbor.make: negative link power") (fun () ->
      ignore (mk 1 (-1.) 0.))

(* ---------- Geo oracle on hand layouts ---------- *)

let run ?growth positions =
  Cbtc.Geo.run_flat (Cbtc.Config.make ?growth alpha56) pl positions

let test_single_node () =
  let d = run [| Geom.Vec2.zero |] in
  Alcotest.(check (list int)) "no neighbors" [] (neighbor_ids d 0);
  Alcotest.(check bool) "boundary" true d.boundary.(0);
  check_float "power is P" max_p d.power.(0);
  Cbtc.Discovery.check_invariants d

let test_degenerate_inputs () =
  (* The oracle must survive an empty network and coincident nodes
     without crashing or producing non-finite powers.  A node stacked
     exactly on another has no direction to it (atan2 0 0), which used
     to poison the gap test. *)
  let empty = run [||] in
  Alcotest.(check int) "empty network" 0 (Array.length empty.power);
  let stacked = run [| Geom.Vec2.zero; Geom.Vec2.zero; Geom.Vec2.zero |] in
  Cbtc.Discovery.check_invariants stacked;
  Array.iter
    (fun p -> Alcotest.(check bool) "finite power" true (Float.is_finite p))
    stacked.power;
  let mixed = run [| Geom.Vec2.zero; Geom.Vec2.zero; Geom.Vec2.make 30. 0. |] in
  Cbtc.Discovery.check_invariants mixed;
  Array.iter
    (fun p -> Alcotest.(check bool) "finite power" true (Float.is_finite p))
    mixed.power

let test_two_nodes () =
  (* A single direction can never close the cone gap: both nodes grow to
     maximum power and end up boundary nodes knowing each other. *)
  let d = run [| Geom.Vec2.zero; Geom.Vec2.make 30. 0. |] in
  Alcotest.(check (list int)) "0 discovers 1" [ 1 ] (neighbor_ids d 0);
  Alcotest.(check (list int)) "1 discovers 0" [ 0 ] (neighbor_ids d 1);
  Alcotest.(check bool) "both boundary" true (d.boundary.(0) && d.boundary.(1));
  check_float "power P" max_p d.power.(0);
  Cbtc.Discovery.check_invariants d

let test_plus_shape () =
  (* Center with four arms at 90-degree spacing: the center closes its
     cones at the arm distance; arms stay boundary. *)
  let arm = 20. in
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make arm 0.; Geom.Vec2.make 0. arm;
       Geom.Vec2.make (-.arm) 0.; Geom.Vec2.make 0. (-.arm) |]
  in
  let d = run positions in
  Alcotest.(check (list int)) "center sees the four arms" [ 1; 2; 3; 4 ]
    (List.sort Int.compare (neighbor_ids d 0));
  Alcotest.(check bool) "center not boundary" false d.boundary.(0);
  check_float "center power = p(arm)"
    (Radio.Pathloss.power_for_distance pl arm)
    d.power.(0);
  Alcotest.(check bool) "arms are boundary" true d.boundary.(1);
  Cbtc.Discovery.check_invariants d

let ring center radius count =
  List.init count (fun i ->
      let theta =
        Stdlib.float_of_int i *. Geom.Angle.two_pi /. Stdlib.float_of_int count
      in
      Geom.Vec2.add center (Geom.Vec2.of_polar ~r:radius ~theta))

let test_exact_growth_stops_at_inner_ring () =
  (* Center node surrounded by an inner ring (6 nodes, gaps 60 < alpha)
     and an outer ring.  Exact growth must stop at the inner ring. *)
  let positions =
    Array.of_list
      ((Geom.Vec2.zero :: ring Geom.Vec2.zero 10. 6) @ ring Geom.Vec2.zero 50. 6)
  in
  let d = run positions in
  Alcotest.(check (list int)) "center keeps only the inner ring"
    [ 1; 2; 3; 4; 5; 6 ]
    (List.sort Int.compare (neighbor_ids d 0));
  check_float "center power = p(10)"
    (Radio.Pathloss.power_for_distance pl 10.)
    d.power.(0);
  Alcotest.(check bool) "center closed its cones" false d.boundary.(0)

let test_stepped_growth_overshoots () =
  (* Same layout under Double growth from p0 = 36 (reaches 6 units):
     steps 36,72,144 — p(10)=100 lands between 72 and 144, so the center
     converges at power 144 and also discovers anything within
     sqrt(144) = 12 units. *)
  let positions =
    Array.of_list
      ((Geom.Vec2.zero :: ring Geom.Vec2.zero 10. 6)
      @ [ Geom.Vec2.make 11. 0.5 ])
  in
  let d = run ~growth:(Cbtc.Config.Double 36.) positions in
  check_float "converged power overshoots to 144" 144. d.power.(0);
  Alcotest.(check (list int)) "overshoot picks up the 11-unit node"
    [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort Int.compare (neighbor_ids d 0));
  (* tags record the discovery step *)
  Cbtc.Discovery.iter_neighbors d 0 (fun ~id ~dir:_ ~link_power:_ ~tag ->
      Alcotest.(check bool)
        (Fmt.str "tag of %d is a schedule step" id)
        true
        (List.mem tag [ 36.; 72.; 144. ]));
  Cbtc.Discovery.check_invariants d

let test_candidates () =
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 0.; Geom.Vec2.make 99. 0.;
       Geom.Vec2.make 101. 0. |]
  in
  let cands = Spec_geo.candidates pl positions 0 in
  Alcotest.(check (list int)) "in-range candidates sorted by distance" [ 1; 2 ]
    (List.map (fun (n : Cbtc.Neighbor.t) -> n.Cbtc.Neighbor.id) cands);
  let gr = Cbtc.Geo.max_power_graph pl positions in
  Alcotest.(check (list (pair int int))) "GR edges"
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]
    (Graphkit.Ugraph.edges gr)

let test_discovery_accessors () =
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 0.; Geom.Vec2.make 0. 25. |]
  in
  let d = run positions in
  let closure = Cbtc.Discovery.closure d in
  Alcotest.(check bool) "closure has 0-1" true (Graphkit.Ugraph.mem_edge closure 0 1);
  let radius = Cbtc.Discovery.radius_in d closure in
  check_float "node 0 radius" 25. radius.(0);
  check_float "node 1 radius reaches node 2"
    (Geom.Vec2.dist positions.(1) positions.(2))
    radius.(1);
  let out = Cbtc.Discovery.out_radius d in
  check_float "out radius node 0" 25. out.(0);
  let rp = Cbtc.Discovery.reach_power_in d closure in
  check_float "reach power node 0"
    (Radio.Pathloss.power_for_distance pl 25.)
    rp.(0)

(* ---------- independent verification ---------- *)

let test_verify_accepts_oracle () =
  let prng = Prng.create ~seed:33 in
  let positions =
    Array.init 40 (fun _ ->
        Geom.Vec2.make (Prng.float prng 300.) (Prng.float prng 300.))
  in
  (* exact growth: complete and minimal *)
  Cbtc.Verify.run ~complete:true ~minimal:true (run positions);
  (* stepped growth: complete but not minimal *)
  Cbtc.Verify.run ~complete:true
    (run ~growth:(Cbtc.Config.Double 25.) positions)

(* One corrupted discovery per Verify clause, each pinned to its exact
   message (the messages are embedded in one-line replay artifacts and
   daemon reports).  The layout is a plus: node 0 at the center with
   nodes 1-4 at distance 20 on the axes, so node 0 converges gap-free
   at p(20) = 400 and nodes 1-4 are boundary nodes at P = 10000; [extra]
   appends nodes after them.  Each corruption hits the first node the
   verifier visits that it changes, and only the clause under test. *)
let plus extra =
  Array.append
    [| Geom.Vec2.zero; Geom.Vec2.make 20. 0.; Geom.Vec2.make 0. 20.;
       Geom.Vec2.make (-20.) 0.; Geom.Vec2.make 0. (-20.) |]
    (Array.of_list extra)

(* [with_row d u f] is [d] with row [u] replaced by [f] of its neighbor
   records, in row order. *)
let with_row (d : Cbtc.Discovery.t) u f =
  let a = Spec_geo.rows d in
  a.(u) <- f a.(u);
  Spec_geo.with_rows d a

let with_power (d : Cbtc.Discovery.t) u p =
  let a = Array.copy d.power in
  a.(u) <- p;
  { d with power = a }

let test_verify_rejects_corruption () =
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 20. 0.; Geom.Vec2.make 0. 20.;
       Geom.Vec2.make (-20.) 0.; Geom.Vec2.make 0. (-20.) |]
  in
  let d = run positions in
  (* corrupt: steal the center's neighbors -> its cones are uncovered *)
  let corrupted = with_row d 0 (fun r -> [ List.hd r ]) in
  (match Cbtc.Verify.run corrupted with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "verification accepted an uncovered node");
  (* corrupt: claim a boundary node converged below max power *)
  let low_power =
    { d with Cbtc.Discovery.power =
        (let a = Array.copy d.Cbtc.Discovery.power in
         a.(1) <- 1.;
         a) }
  in
  match Cbtc.Verify.run low_power with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "verification accepted an underpowered boundary node"

let verify_fails msg f =
  match f () with
  | () -> Alcotest.failf "verification accepted a discovery failing %S" msg
  | exception Failure got -> Alcotest.(check string) "message" msg got

let nb id ~tag = Cbtc.Neighbor.make ~id ~dir:0. ~link_power:tag ~tag

let test_clause_crashed () =
  let alive = [| true; false; true; true; true |] in
  verify_fails "Verify: surviving node 0 lists crashed neighbor 1" (fun () ->
      Cbtc.Verify.surviving ~alive (run (plus [])))

let test_clause_out_of_range () =
  let d = with_row (run (plus [ Geom.Vec2.make 150. 0. ])) 0 (fun r ->
      r @ [ nb 5 ~tag:400. ])
  in
  verify_fails "Verify: node 0 lists out-of-range neighbor 5 (d=150)" (fun () ->
      Cbtc.Verify.run d)

let test_clause_unreachable () =
  verify_fails "Verify: node 0 cannot reach neighbor 1 at power 100" (fun () ->
      Cbtc.Verify.run (with_power (run (plus [])) 0 100.))

let test_clause_tag_above_power () =
  let d = with_row (run (plus [])) 0 (function
      | first :: rest -> { first with Cbtc.Neighbor.tag = 500. } :: rest
      | [] -> Alcotest.fail "empty row")
  in
  verify_fails "Verify: node 0 neighbor 1 tagged 500 above power 400" (fun () ->
      Cbtc.Verify.run d)

let test_clause_boundary_below_max () =
  verify_fails
    "Verify: boundary node 1 converged below max power (5000 < 10000)"
    (fun () -> Cbtc.Verify.run (with_power (run (plus [])) 1 5000.))

let test_clause_gap () =
  let d = with_row (run (plus [])) 0 (fun r -> [ List.hd r ]) in
  verify_fails "Verify: non-boundary node 0 has a true geometric 2.61799-gap"
    (fun () -> Cbtc.Verify.run d)

let test_clause_incomplete () =
  let d = with_row (run (plus [])) 1 (fun r ->
      List.filter (fun (n : Cbtc.Neighbor.t) -> n.Cbtc.Neighbor.id <> 3) r)
  in
  verify_fails "Verify: node 1 should have discovered reachable node 3"
    (fun () -> Cbtc.Verify.run ~complete:true d)

let test_clause_not_minimal () =
  let d = run (plus [ Geom.Vec2.make 0. (-25.) ]) in
  let d = with_row d 0 (fun r -> r @ [ nb 5 ~tag:625. ]) in
  verify_fails "Verify: node 0 converged above the minimal power" (fun () ->
      Cbtc.Verify.run ~minimal:true (with_power d 0 625.))

(* ---------- Discovery.check_invariants: CSR shape ---------- *)

(* One malformed CSR per shape clause of check_invariants, each pinned
   to its message.  [run (plus [])] has five rows of four slots each:
   off = [0; 4; 8; 12; 16; 20]. *)
let invariants_fail msg (d : Cbtc.Discovery.t) =
  match Cbtc.Discovery.check_invariants d with
  | () -> Alcotest.failf "check_invariants accepted a discovery failing %S" msg
  | exception Failure got -> Alcotest.(check string) "message" msg got

let with_off (d : Cbtc.Discovery.t) f =
  let off = Array.copy d.off in
  f off;
  { d with off }

let test_shape_off_start () =
  let d = run (plus []) in
  Cbtc.Discovery.check_invariants d;
  invariants_fail "Discovery: off.(0) = 1, not 0"
    (with_off d (fun off -> Array.iteri (fun i o -> off.(i) <- o + 1) off))

let test_shape_off_decreasing () =
  invariants_fail "Discovery: off decreases at node 1"
    (with_off (run (plus [])) (fun off -> off.(2) <- 3))

let test_shape_off_end () =
  invariants_fail "Discovery: off.(5) = 19, not the slot count 20"
    (with_off (run (plus [])) (fun off -> off.(5) <- 19))

let test_shape_row_arrays () =
  let d = run (plus []) in
  invariants_fail "Discovery: row array length mismatch"
    { d with tags = Array.sub d.tags 0 19 }

let test_shape_node_arrays () =
  let d = run (plus []) in
  invariants_fail "Discovery: array length mismatch"
    { d with power = Array.sub d.power 0 4 };
  invariants_fail "Discovery: array length mismatch"
    { d with off = Array.sub d.off 0 5 }

(* ---------- fault tolerance (follow-up extension) ---------- *)

let test_fault_tolerant_alpha () =
  let check_float msg expected actual =
    if Float.abs (expected -. actual) > 1e-12 then
      Alcotest.failf "%s: %g vs %g" msg expected actual
  in
  check_float "k=1 is 2pi/3" Geom.Angle.two_pi_three
    (Cbtc.Fault_tolerant.alpha_for ~k:1);
  check_float "k=2" (Float.pi /. 3.) (Cbtc.Fault_tolerant.alpha_for ~k:2);
  Alcotest.check_raises "k 0" (Invalid_argument "Fault_tolerant.alpha_for: k < 1")
    (fun () -> ignore (Cbtc.Fault_tolerant.alpha_for ~k:0))

let test_fault_tolerant_preserves_k_connectivity () =
  (* Dense scenarios whose GR is 2- (resp. 3-) connected must stay so
     under CBTC(2pi/3k). *)
  let tried = ref 0 and held = ref 0 in
  List.iter
    (fun seed ->
      let sc = Workload.Scenario.make ~n:60 ~width:800. ~height:800. ~seed () in
      let plw = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      List.iter
        (fun k ->
          let gr_ok, topo_ok = Cbtc.Fault_tolerant.check ~k plw positions in
          if gr_ok then begin
            incr tried;
            if topo_ok then incr held
            else
              Alcotest.failf "seed %d k=%d: GR %d-connected but topology not"
                seed k k
          end)
        [ 2; 3 ])
    [ 1; 2; 3 ];
  Alcotest.(check bool) "at least one k-connected GR in the sample" true
    (!tried > 0);
  Alcotest.(check int) "all preserved" !tried !held

(* ---------- properties ---------- *)

let positions_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    list_repeat n (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> Geom.Vec2.make x y) pts))

let prop_invariants_random =
  QCheck.Test.make ~count:60 ~name:"oracle output satisfies invariants"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run positions in
      Cbtc.Discovery.check_invariants d;
      Cbtc.Verify.run ~complete:true ~minimal:true d;
      true)

let prop_stepped_power_dominates_exact =
  QCheck.Test.make ~count:40
    ~name:"stepped growth never uses less power than exact growth"
    (QCheck.make positions_gen)
    (fun positions ->
      let exact = run positions in
      let stepped = run ~growth:(Cbtc.Config.Double 25.) positions in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        if stepped.power.(u) < exact.power.(u) -. 1e-9 then ok := false;
        (* and discovers at least the exact neighbors *)
        let ids d = neighbor_ids d u in
        if not (List.for_all (fun v -> List.mem v (ids stepped)) (ids exact))
        then ok := false
      done;
      !ok)

let prop_nalpha_within_range =
  QCheck.Test.make ~count:60 ~name:"discovered neighbors are within radio range"
    (QCheck.make positions_gen)
    (fun positions ->
      let d = run positions in
      let ok = ref true in
      for u = 0 to Cbtc.Discovery.nb_nodes d - 1 do
        Cbtc.Discovery.iter_neighbors d u (fun ~id ~dir:_ ~link_power:_ ~tag:_ ->
            let dist = Geom.Vec2.dist positions.(u) positions.(id) in
            if not (Radio.Pathloss.in_range pl ~dist) then ok := false)
      done;
      !ok)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cbtc-core"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "thresholds" `Quick test_config_thresholds;
          Alcotest.test_case "exact steps" `Quick test_power_steps_exact;
          Alcotest.test_case "double steps" `Quick test_power_steps_double;
          Alcotest.test_case "mult steps" `Quick test_power_steps_mult;
        ] );
      ("neighbor", [ Alcotest.test_case "ordering" `Quick test_neighbor_ordering ]);
      ( "geo",
        [
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
          Alcotest.test_case "two nodes" `Quick test_two_nodes;
          Alcotest.test_case "plus shape" `Quick test_plus_shape;
          Alcotest.test_case "exact growth stops early" `Quick
            test_exact_growth_stops_at_inner_ring;
          Alcotest.test_case "stepped growth overshoots" `Quick
            test_stepped_growth_overshoots;
          Alcotest.test_case "candidates and GR" `Quick test_candidates;
          Alcotest.test_case "discovery accessors" `Quick test_discovery_accessors;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts oracle output" `Quick test_verify_accepts_oracle;
          Alcotest.test_case "rejects corruption" `Quick test_verify_rejects_corruption;
          Alcotest.test_case "clause: crashed neighbor" `Quick test_clause_crashed;
          Alcotest.test_case "clause: out-of-range neighbor" `Quick
            test_clause_out_of_range;
          Alcotest.test_case "clause: unreachable at power" `Quick
            test_clause_unreachable;
          Alcotest.test_case "clause: tag above power" `Quick
            test_clause_tag_above_power;
          Alcotest.test_case "clause: boundary below max power" `Quick
            test_clause_boundary_below_max;
          Alcotest.test_case "clause: gap" `Quick test_clause_gap;
          Alcotest.test_case "clause: incomplete" `Quick test_clause_incomplete;
          Alcotest.test_case "clause: not minimal" `Quick test_clause_not_minimal;
        ] );
      ( "csr shape",
        [
          Alcotest.test_case "off.(0) is 0" `Quick test_shape_off_start;
          Alcotest.test_case "off nondecreasing" `Quick test_shape_off_decreasing;
          Alcotest.test_case "off.(n) is the slot count" `Quick test_shape_off_end;
          Alcotest.test_case "parallel row arrays" `Quick test_shape_row_arrays;
          Alcotest.test_case "per-node arrays" `Quick test_shape_node_arrays;
        ] );
      ( "fault-tolerant",
        [
          Alcotest.test_case "alpha parameterization" `Quick test_fault_tolerant_alpha;
          Alcotest.test_case "preserves k-connectivity" `Quick
            test_fault_tolerant_preserves_k_connectivity;
        ] );
      ( "properties",
        qsuite
          [
            prop_invariants_random;
            prop_stepped_power_dominates_exact;
            prop_nalpha_within_range;
          ] );
    ]
