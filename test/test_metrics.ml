(* Tests for the evaluation metrics: connectivity preservation, degree
   and radius aggregation, stretch factors, and the table printer. *)

module U = Graphkit.Ugraph

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- connectivity ---------- *)

let test_preserves () =
  let reference = U.of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  let same = U.of_edges 5 [ (0, 2); (2, 1); (4, 3) ] in
  let broken = U.of_edges 5 [ (0, 1); (3, 4) ] in
  Alcotest.(check bool) "same partition" true
    (Metrics.Connectivity.preserves ~reference same);
  Alcotest.(check bool) "broken" false
    (Metrics.Connectivity.preserves ~reference broken)

let test_isolated_and_giant () =
  (* a 3-node giant component plus 3 isolated nodes: 4 components *)
  let g = U.of_edges 6 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "components" 4 (Metrics.Connectivity.nb_components g)

(* ---------- topo metrics ---------- *)

let test_avg_degree_radius () =
  let g = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  check_float "avg degree" 1.5 (Metrics.Topo_metrics.avg_degree g);
  check_float "avg radius" 2.5 (Metrics.Topo_metrics.avg_radius [| 1.; 2.; 3.; 4. |]);
  let pl = Radio.Pathloss.make ~max_range:100. () in
  (* p(1)=1, p(2)=4, isolated node contributes 0 *)
  check_float "avg power" (5. /. 3.)
    (Metrics.Topo_metrics.avg_power pl [| 1.; 2.; 0. |]);
  let s = Metrics.Topo_metrics.degree_summary g in
  check_float "degree summary mean" 1.5 s.Stats.Summary.mean

(* ---------- stretch ---------- *)

(* Three collinear points; reference keeps the direct long edge, the
   controlled graph forces the two-hop route. *)
let line_positions =
  [| Geom.Vec2.zero; Geom.Vec2.make 1. 0.; Geom.Vec2.make 2. 0. |]

let reference = U.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]

let controlled = U.of_edges 3 [ (0, 1); (1, 2) ]

let test_power_stretch () =
  let pl = Radio.Pathloss.make ~max_range:10. () in
  let energy = Radio.Energy.make pl in
  let s =
    Metrics.Stretch.power_stretch energy line_positions ~reference controlled
  in
  (* With p(d) = d^2, the relayed route 1+1 = 2 is what the reference
     would use too (cheaper than direct 4): stretch exactly 1. *)
  check_float "max power stretch" 1. s.Metrics.Stretch.max_stretch;
  check_float "avg power stretch" 1. s.Metrics.Stretch.avg_stretch;
  Alcotest.(check int) "pairs" 3 s.Metrics.Stretch.pairs

let test_power_stretch_with_overhead () =
  (* Large per-hop overhead makes the direct edge optimal in the
     reference; dropping it then costs overhead extra. *)
  let pl = Radio.Pathloss.make ~max_range:10. () in
  let energy = Radio.Energy.make ~rx_overhead:100. pl in
  let s =
    Metrics.Stretch.power_stretch energy line_positions ~reference controlled
  in
  (* pair (0,2): reference direct = 4 + 100 = 104; controlled relayed =
     (1+100)+(1+100) = 202 *)
  check_float ~eps:1e-9 "max stretch" (202. /. 104.) s.Metrics.Stretch.max_stretch

let test_hop_and_distance_stretch () =
  let s = Metrics.Stretch.hop_stretch ~reference controlled in
  check_float "hop stretch max" 2. s.Metrics.Stretch.max_stretch;
  check_float "hop stretch avg" (4. /. 3.) s.Metrics.Stretch.avg_stretch;
  (* Euclidean stretch is power stretch under p(d) = d with no overhead:
     the relayed route has the same total length *)
  let euclid = Radio.Energy.make (Radio.Pathloss.make ~exponent:1. ~max_range:10. ()) in
  let d = Metrics.Stretch.power_stretch euclid line_positions ~reference controlled in
  check_float "distance stretch" 1. d.Metrics.Stretch.max_stretch

let test_stretch_infinite_when_disconnected () =
  let disconnected = U.of_edges 3 [ (0, 1) ] in
  let s = Metrics.Stretch.hop_stretch ~reference disconnected in
  Alcotest.(check bool) "infinite" true (s.Metrics.Stretch.max_stretch = Float.infinity)

let test_stretch_mismatch_rejected () =
  let small = U.create 2 in
  Alcotest.check_raises "node counts" (Invalid_argument "Stretch: node count mismatch")
    (fun () -> ignore (Metrics.Stretch.hop_stretch ~reference small))

(* ---------- interference ---------- *)

let test_interference_coverage () =
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 10. 0.; Geom.Vec2.make 20. 0. |]
  in
  (* radii: node 0 covers node 1 only; node 1 covers both ends; node 2
     covers nobody (radius 0: isolated) *)
  let t = Metrics.Interference.coverage positions ~radius:[| 10.; 10.; 0. |] in
  Alcotest.(check int) "total" 3 t.Metrics.Interference.total_coverage;
  Alcotest.(check int) "max" 2 t.Metrics.Interference.max_coverage;
  check_float "avg" 1. t.Metrics.Interference.avg_coverage

let test_interference_topology_control_helps () =
  let sc = Workload.Scenario.paper ~seed:9 in
  let pl = Radio.Pathloss.make ~max_range:500. () in
  let positions = Workload.Scenario.positions sc in
  let n = Array.length positions in
  let full =
    Metrics.Interference.coverage positions ~radius:(Array.make n 500.)
  in
  let config = Cbtc.Config.make Geom.Angle.five_pi_six in
  let r = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops config) in
  let controlled =
    Metrics.Interference.coverage positions ~radius:r.Cbtc.Pipeline.radius
  in
  Alcotest.(check bool) "coverage shrinks" true
    (controlled.Metrics.Interference.avg_coverage
    < full.Metrics.Interference.avg_coverage /. 2.)

let test_interference_validation () =
  Alcotest.check_raises "length"
    (Invalid_argument "Interference.coverage: length mismatch") (fun () ->
      ignore (Metrics.Interference.coverage [| Geom.Vec2.zero |] ~radius:[||]))

(* ---------- table ---------- *)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_render () =
  let t = Metrics.Table.create ~columns:[ "name"; "deg"; "radius" ] in
  Metrics.Table.add_row t [ "basic"; "12.3"; "436.8" ];
  Metrics.Table.add_rule t;
  Metrics.Table.add_row t [ "all ops"; "3.6"; "155.9" ];
  let s = Metrics.Table.to_string t in
  Alcotest.(check bool) "header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count (incl trailing)" 6 (List.length lines);
  Alcotest.(check bool) "row present" true
    (List.exists (fun l -> contains_substring l "155.9") lines);
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Metrics.Table.add_row t [ "too"; "few" ])

let test_degenerate_inputs () =
  (* Aggregations over empty networks must return 0, not NaN from a
     0/0 average. *)
  let empty = U.create 0 in
  check_float "avg degree of empty graph" 0. (Metrics.Topo_metrics.avg_degree empty);
  check_float "avg radius of nothing" 0. (Metrics.Topo_metrics.avg_radius [||]);
  let pl = Radio.Pathloss.make ~max_range:100. () in
  check_float "avg power of nothing" 0.
    (Metrics.Topo_metrics.avg_power pl [||]);
  Alcotest.(check int) "no components" 0 (Metrics.Connectivity.nb_components empty);
  let one = U.create 1 in
  let s = Metrics.Stretch.hop_stretch ~reference:one one in
  Alcotest.(check int) "single node has no pairs" 0 s.Metrics.Stretch.pairs;
  Alcotest.(check bool) "stretch stays finite" true
    (Float.is_finite s.Metrics.Stretch.avg_stretch)

let () =
  Alcotest.run "metrics"
    [
      ( "connectivity",
        [
          Alcotest.test_case "preserves" `Quick test_preserves;
          Alcotest.test_case "isolated and giant" `Quick test_isolated_and_giant;
        ] );
      ( "topo",
        [
          Alcotest.test_case "degree radius power" `Quick test_avg_degree_radius;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
        ] );
      ( "stretch",
        [
          Alcotest.test_case "power stretch" `Quick test_power_stretch;
          Alcotest.test_case "power stretch with overhead" `Quick
            test_power_stretch_with_overhead;
          Alcotest.test_case "hop and distance" `Quick test_hop_and_distance_stretch;
          Alcotest.test_case "infinite when disconnected" `Quick
            test_stretch_infinite_when_disconnected;
          Alcotest.test_case "mismatch rejected" `Quick test_stretch_mismatch_rejected;
        ] );
      ( "interference",
        [
          Alcotest.test_case "coverage" `Quick test_interference_coverage;
          Alcotest.test_case "topology control helps" `Quick
            test_interference_topology_control_helps;
          Alcotest.test_case "validation" `Quick test_interference_validation;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
    ]
