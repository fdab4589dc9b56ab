(* Tests of the paper's theory: Theorem 2.1 (alpha <= 5pi/6 preserves
   connectivity), Example 2.1 (N_alpha asymmetry), Theorem 2.4 (5pi/6 is
   tight), and Theorem 3.2 (asymmetric removal sound for alpha <= 2pi/3). *)

let alpha56 = Geom.Angle.five_pi_six

let alpha23 = Geom.Angle.two_pi_three

(* ---------- Example 2.1 / Figure 2 ---------- *)

let example_discovery alpha =
  let ex = Cbtc.Constructions.example_2_1 ~alpha () in
  let pl = Radio.Pathloss.make ~max_range:ex.Cbtc.Constructions.max_range () in
  (ex, Cbtc.Geo.run (Cbtc.Config.make alpha) pl ex.Cbtc.Constructions.positions)

let test_example_2_1_distances () =
  let ex = Cbtc.Constructions.example_2_1 ~alpha:alpha56 () in
  let p = ex.Cbtc.Constructions.positions in
  let r = ex.Cbtc.Constructions.max_range in
  let d i j = Geom.Vec2.dist p.(i) p.(j) in
  let open Cbtc.Constructions in
  (* d(u0, v) = R exactly; u1, u2, u3 strictly inside; u1, u2 farther
     than R from v — the distance facts the example's argument uses. *)
  Alcotest.(check bool) "d(u0,v) = R" true (Float.abs (d ex_u0 ex_v -. r) < 1e-9);
  Alcotest.(check bool) "d(u0,u1) < R" true (d ex_u0 ex_u1 < r);
  Alcotest.(check bool) "d(u0,u2) < R" true (d ex_u0 ex_u2 < r);
  Alcotest.(check bool) "d(u0,u3) = R/2" true
    (Float.abs (d ex_u0 ex_u3 -. (r /. 2.)) < 1e-9);
  Alcotest.(check bool) "d(u1,v) > R" true (d ex_u1 ex_v > r);
  Alcotest.(check bool) "d(u2,v) > R" true (d ex_u2 ex_v > r);
  (* epsilon within (0, pi/12] as the example requires *)
  Alcotest.(check bool) "epsilon in range" true
    (ex.Cbtc.Constructions.epsilon > 0.
    && ex.Cbtc.Constructions.epsilon <= (Float.pi /. 12.) +. 1e-12)

let test_example_2_1_asymmetry () =
  let _, d = example_discovery alpha56 in
  let nbrs = Cbtc.Discovery.neighbor_ids d in
  let open Cbtc.Constructions in
  Alcotest.(check (list int)) "N(u0) = {u1,u2,u3}" [ ex_u1; ex_u2; ex_u3 ]
    (nbrs ex_u0);
  Alcotest.(check (list int)) "N(v) = {u0}" [ ex_u0 ] (nbrs ex_v);
  Alcotest.(check bool) "(v,u0) in N_alpha" true (List.mem ex_u0 (nbrs ex_v));
  Alcotest.(check bool) "(u0,v) not in N_alpha" false (List.mem ex_v (nbrs ex_u0))

let test_example_2_1_closure_needed () =
  (* Without symmetric closure the graph loses v; with it, connectivity
     is preserved — the reason Definition of E_alpha takes the closure. *)
  let ex, d = example_discovery alpha56 in
  let pl = Radio.Pathloss.make ~max_range:ex.Cbtc.Constructions.max_range () in
  let gr = Cbtc.Geo.max_power_graph pl ex.Cbtc.Constructions.positions in
  let closure = Cbtc.Discovery.closure d in
  Alcotest.(check bool) "closure preserves" true
    (Metrics.Connectivity.preserves ~reference:gr closure);
  (* keeping only bidirectional edges (E-) disconnects v here: with
     alpha > 2pi/3, Theorem 3.2's precondition fails and the example
     shows it must *)
  Alcotest.(check bool) "core (E-) breaks this graph" false
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Discovery.core d))

let test_example_2_1_alpha_validation () =
  Alcotest.check_raises "alpha too small"
    (Invalid_argument "Constructions.example_2_1: needs 2pi/3 < alpha <= 5pi/6")
    (fun () -> ignore (Cbtc.Constructions.example_2_1 ~alpha:alpha23 ()));
  Alcotest.check_raises "alpha too large"
    (Invalid_argument "Constructions.example_2_1: needs 2pi/3 < alpha <= 5pi/6")
    (fun () -> ignore (Cbtc.Constructions.example_2_1 ~alpha:(alpha56 +. 0.1) ()))

(* ---------- Theorem 2.4 / Figure 5 ---------- *)

let test_theorem_2_4_disconnects () =
  List.iter
    (fun epsilon ->
      let th = Cbtc.Constructions.theorem_2_4 ~epsilon () in
      let pl =
        Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range ()
      in
      let positions = th.Cbtc.Constructions.positions in
      let gr = Cbtc.Geo.max_power_graph pl positions in
      Alcotest.(check bool)
        (Fmt.str "GR connected (eps=%g)" epsilon)
        true
        (Graphkit.Traversal.is_connected gr);
      let d =
        Cbtc.Geo.run (Cbtc.Config.make th.Cbtc.Constructions.alpha) pl positions
      in
      let galpha = Cbtc.Discovery.closure d in
      Alcotest.(check bool)
        (Fmt.str "G_alpha disconnected (eps=%g)" epsilon)
        false
        (Graphkit.Traversal.is_connected galpha);
      (* the u-cluster and v-cluster each stay internally connected *)
      Alcotest.(check bool) "u0 still reaches u3" true
        (Graphkit.Traversal.same_component galpha Cbtc.Constructions.th_u0
           Cbtc.Constructions.th_u3);
      Alcotest.(check bool) "u0 separated from v0" false
        (Graphkit.Traversal.same_component galpha Cbtc.Constructions.th_u0
           Cbtc.Constructions.th_v0))
    [ 0.02; 0.1; 0.3 ]

let test_theorem_2_4_boundary_alpha_is_safe () =
  (* The same positions run at exactly alpha = 5pi/6 must stay connected
     (Theorem 2.1) — the failure needs alpha strictly above the bound. *)
  let th = Cbtc.Constructions.theorem_2_4 ~epsilon:0.1 () in
  let pl = Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range () in
  let positions = th.Cbtc.Constructions.positions in
  let gr = Cbtc.Geo.max_power_graph pl positions in
  let d = Cbtc.Geo.run (Cbtc.Config.make alpha56) pl positions in
  Alcotest.(check bool) "connected at the threshold" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Discovery.closure d))

let test_theorem_2_4_u0_stops_short () =
  let th = Cbtc.Constructions.theorem_2_4 ~epsilon:0.1 () in
  let pl = Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range () in
  let d =
    Cbtc.Geo.run
      (Cbtc.Config.make th.Cbtc.Constructions.alpha)
      pl th.Cbtc.Constructions.positions
  in
  let open Cbtc.Constructions in
  Alcotest.(check bool) "u0 not boundary" false d.boundary.(th_u0);
  Alcotest.(check bool) "u0 power below P" true
    (d.power.(th_u0) < Radio.Pathloss.max_power pl);
  Alcotest.(check (list int)) "N(u0) = u-cluster" [ th_u1; th_u2; th_u3 ]
    (List.sort Int.compare
       (List.map
          (fun (n : Cbtc.Neighbor.t) -> n.Cbtc.Neighbor.id)
          d.neighbors.(th_u0)))

let test_theorem_2_4_validation () =
  Alcotest.check_raises "epsilon 0"
    (Invalid_argument "Constructions.theorem_2_4: needs 0 < epsilon < pi/6")
    (fun () -> ignore (Cbtc.Constructions.theorem_2_4 ~epsilon:0. ()));
  Alcotest.check_raises "epsilon too big"
    (Invalid_argument "Constructions.theorem_2_4: needs 0 < epsilon < pi/6")
    (fun () -> ignore (Cbtc.Constructions.theorem_2_4 ~epsilon:0.6 ()))

(* ---------- Theorem 2.1 and 3.2 as randomized properties ---------- *)

let pl300 = Radio.Pathloss.make ~max_range:120. ()

(* placement generator + node-deletion shrinker shared with
   test_distributed *)
let positions_arb = Gen_common.positions_arb

let preserves_at alpha positions =
  let d = Cbtc.Geo.run (Cbtc.Config.make alpha) pl300 positions in
  let gr = Cbtc.Geo.max_power_graph pl300 positions in
  Metrics.Connectivity.preserves ~reference:gr (Cbtc.Discovery.closure d)

let prop_theorem_2_1 =
  QCheck.Test.make ~count:80
    ~name:"Theorem 2.1: closure preserves connectivity for alpha <= 5pi/6"
    positions_arb
    (fun positions ->
      List.for_all
        (fun alpha -> preserves_at alpha positions)
        [ alpha56; 2.0; alpha23; 1.2 ])

let prop_theorem_3_2 =
  QCheck.Test.make ~count:80
    ~name:"Theorem 3.2: E- preserves connectivity for alpha <= 2pi/3"
    positions_arb
    (fun positions ->
      List.for_all
        (fun alpha ->
          let d = Cbtc.Geo.run (Cbtc.Config.make alpha) pl300 positions in
          let gr = Cbtc.Geo.max_power_graph pl300 positions in
          Metrics.Connectivity.preserves ~reference:gr (Cbtc.Discovery.core d))
        [ alpha23; 1.5 ])

let prop_corollary_2_3 =
  QCheck.Test.make ~count:40
    ~name:"Corollary 2.3: every GR edge is bridged by shorter E_alpha edges"
    positions_arb
    (fun positions ->
      let d = Cbtc.Geo.run (Cbtc.Config.make alpha56) pl300 positions in
      let galpha = Cbtc.Discovery.closure d in
      let gr = Cbtc.Geo.max_power_graph pl300 positions in
      let ok = ref true in
      Graphkit.Ugraph.iter_edges
        (fun u v ->
          if not (Graphkit.Ugraph.mem_edge galpha u v) then begin
            (* a path of strictly shorter E_alpha edges must connect u, v *)
            let duv = Geom.Vec2.dist positions.(u) positions.(v) in
            let short = Graphkit.Ugraph.create (Array.length positions) in
            Graphkit.Ugraph.iter_edges
              (fun a b ->
                if Geom.Vec2.dist positions.(a) positions.(b) < duv then
                  Graphkit.Ugraph.add_edge short a b)
              galpha;
            if not (Graphkit.Traversal.same_component short u v) then ok := false
          end)
        gr;
      !ok)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "theory"
    [
      ( "example-2.1",
        [
          Alcotest.test_case "distances" `Quick test_example_2_1_distances;
          Alcotest.test_case "asymmetry" `Quick test_example_2_1_asymmetry;
          Alcotest.test_case "closure needed" `Quick test_example_2_1_closure_needed;
          Alcotest.test_case "alpha validation" `Quick test_example_2_1_alpha_validation;
        ] );
      ( "theorem-2.4",
        [
          Alcotest.test_case "disconnects above 5pi/6" `Quick test_theorem_2_4_disconnects;
          Alcotest.test_case "safe at the threshold" `Quick
            test_theorem_2_4_boundary_alpha_is_safe;
          Alcotest.test_case "u0 stops short of v0" `Quick test_theorem_2_4_u0_stops_short;
          Alcotest.test_case "validation" `Quick test_theorem_2_4_validation;
        ] );
      ( "randomized",
        qsuite [ prop_theorem_2_1; prop_theorem_3_2; prop_corollary_2_3 ] );
    ]
