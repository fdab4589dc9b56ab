(* Tests for the comparator topologies: max-power GR, RNG, Gabriel,
   Euclidean MST, and k-NN — including the classical inclusion chain
   MST(GR) <= RNG(GR) <= Gabriel(GR) <= GR. *)

let pl = Radio.Pathloss.make ~max_range:100. ()

let square =
  (* Unit-ish square plus center: rich enough to differentiate the
     families. *)
  [| Geom.Vec2.zero; Geom.Vec2.make 60. 0.; Geom.Vec2.make 0. 60.;
     Geom.Vec2.make 60. 60.; Geom.Vec2.make 30. 30. |]

let test_max_power_is_gr () =
  let g = Baselines.Proximity.max_power pl square in
  (* all pairwise distances here are <= 100 except the diagonals at ~85 —
     actually all are in range, so GR is complete *)
  Alcotest.(check int) "complete graph" 10 (Graphkit.Ugraph.nb_edges g);
  let far = [| Geom.Vec2.zero; Geom.Vec2.make 150. 0. |] in
  Alcotest.(check int) "out of range pair" 0
    (Graphkit.Ugraph.nb_edges (Baselines.Proximity.max_power pl far))

let test_rng_lune () =
  let g = Baselines.Proximity.rng pl square in
  (* The center node (at distance ~42.4 from every corner) witnesses
     against both the diagonals (length ~84.9) and the sides (60): the
     RNG of square-plus-center is the four-spoke star. *)
  Alcotest.(check bool) "diagonal 0-3 removed" false (Graphkit.Ugraph.mem_edge g 0 3);
  Alcotest.(check bool) "diagonal 1-2 removed" false (Graphkit.Ugraph.mem_edge g 1 2);
  Alcotest.(check bool) "side removed too" false (Graphkit.Ugraph.mem_edge g 0 1);
  Alcotest.(check bool) "spoke kept" true (Graphkit.Ugraph.mem_edge g 0 4);
  Alcotest.(check int) "star" 4 (Graphkit.Ugraph.nb_edges g)

let test_gabriel () =
  let g = Baselines.Proximity.gabriel pl square in
  (* The center is strictly inside the diameter circle of each diagonal
     (1800 + 1800 < 7200): diagonals removed.  For a side, the center
     lies exactly ON the diameter circle (1800 + 1800 = 3600): the strict
     inequality keeps the side — the boundary case RNG removes. *)
  Alcotest.(check bool) "diagonal removed" false (Graphkit.Ugraph.mem_edge g 0 3);
  Alcotest.(check bool) "side kept at the boundary" true
    (Graphkit.Ugraph.mem_edge g 0 1);
  Alcotest.(check bool) "spoke kept" true (Graphkit.Ugraph.mem_edge g 0 4)

let test_mst () =
  let g = Baselines.Proximity.euclidean_mst pl square in
  Alcotest.(check int) "tree edges" 4 (Graphkit.Ugraph.nb_edges g);
  Alcotest.(check bool) "connected" true (Graphkit.Traversal.is_connected g);
  (* MST of the square+center: the four spokes (length ~42.4 < 60) *)
  List.iter
    (fun u ->
      Alcotest.(check bool) (Fmt.str "spoke %d-4" u) true
        (Graphkit.Ugraph.mem_edge g u 4))
    [ 0; 1; 2; 3 ]

let test_knn () =
  let g = Baselines.Proximity.knn pl square ~k:1 in
  (* everyone's nearest neighbor is the center *)
  List.iter
    (fun u ->
      Alcotest.(check bool) (Fmt.str "%d links center" u) true
        (Graphkit.Ugraph.mem_edge g u 4))
    [ 0; 1; 2; 3 ];
  Alcotest.(check int) "star" 4 (Graphkit.Ugraph.nb_edges g);
  Alcotest.check_raises "bad k" (Invalid_argument "Proximity.knn: non-positive k")
    (fun () -> ignore (Baselines.Proximity.knn pl square ~k:0))

let test_radius_of () =
  let g = Baselines.Proximity.euclidean_mst pl square in
  let r = Baselines.Proximity.radius_of pl square g in
  let spoke = Geom.Vec2.dist square.(0) square.(4) in
  Alcotest.(check (float 1e-9)) "corner radius = spoke" spoke r.(0);
  let full = Baselines.Proximity.radius_of ~full_power:true pl square g in
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "full power radius" 100. x) full

(* ---------- Yao ---------- *)

let test_yao_star () =
  (* Square plus center, k = 4 with sector boundaries at the axes: every
     corner keeps its nearest neighbor per sector; the center is nearest
     for all corners in its sector. *)
  let g = Baselines.Yao.yao pl square ~k:4 in
  List.iter
    (fun u ->
      Alcotest.(check bool) (Fmt.str "spoke %d" u) true
        (Graphkit.Ugraph.mem_edge g u 4))
    [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "connected" true (Graphkit.Traversal.is_connected g);
  Alcotest.check_raises "bad k" (Invalid_argument "Yao.yao: k < 3") (fun () ->
      ignore (Baselines.Yao.yao pl square ~k:2))

let test_yao_edge_budget () =
  (* n nodes select at most k out-edges each. *)
  let prng = Prng.create ~seed:17 in
  let positions =
    Array.init 40 (fun _ ->
        Geom.Vec2.make (Prng.float prng 300.) (Prng.float prng 300.))
  in
  let k = 6 in
  let g = Baselines.Yao.yao pl positions ~k in
  Alcotest.(check bool) "edge budget" true
    (Graphkit.Ugraph.nb_edges g
    <= Array.length positions * k)

(* ---------- SMECN ---------- *)

let test_smecn_prunes_dominated_edge () =
  let energy = Radio.Energy.make pl in
  (* collinear: relaying through the midpoint strictly beats direct *)
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 40. 0.; Geom.Vec2.make 80. 0. |]
  in
  let g = Baselines.Smecn.smecn energy positions in
  Alcotest.(check bool) "long edge pruned" false (Graphkit.Ugraph.mem_edge g 0 2);
  Alcotest.(check bool) "short edges kept" true
    (Graphkit.Ugraph.mem_edge g 0 1 && Graphkit.Ugraph.mem_edge g 1 2)

let test_smecn_overhead_keeps_direct () =
  (* Enough per-hop overhead makes the relay unattractive: edge kept. *)
  let energy = Radio.Energy.make ~rx_overhead:5000. pl in
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 40. 0.; Geom.Vec2.make 80. 0. |]
  in
  let g = Baselines.Smecn.smecn energy positions in
  Alcotest.(check bool) "direct kept" true (Graphkit.Ugraph.mem_edge g 0 2)

(* ---------- properties ---------- *)

let positions_gen =
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    list_repeat n (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> Geom.Vec2.make x y) pts))

let prop_inclusion_chain =
  QCheck.Test.make ~count:60 ~name:"MST <= RNG <= Gabriel <= GR"
    (QCheck.make positions_gen)
    (fun positions ->
      let gr = Baselines.Proximity.max_power pl positions in
      let rng = Baselines.Proximity.rng pl positions in
      let gabriel = Baselines.Proximity.gabriel pl positions in
      let mst = Baselines.Proximity.euclidean_mst pl positions in
      Graphkit.Ugraph.is_subgraph mst rng
      && Graphkit.Ugraph.is_subgraph rng gabriel
      && Graphkit.Ugraph.is_subgraph gabriel gr)

let prop_families_preserve_partition =
  QCheck.Test.make ~count:60
    ~name:"RNG, Gabriel, MST all preserve the GR partition"
    (QCheck.make positions_gen)
    (fun positions ->
      let gr = Baselines.Proximity.max_power pl positions in
      List.for_all
        (fun g -> Graphkit.Traversal.same_partition gr g)
        [
          Baselines.Proximity.rng pl positions;
          Baselines.Proximity.gabriel pl positions;
          Baselines.Proximity.euclidean_mst pl positions;
        ])

let prop_yao_preserves_partition =
  QCheck.Test.make ~count:60 ~name:"Yao graph preserves the GR partition"
    (QCheck.make positions_gen)
    (fun positions ->
      let gr = Baselines.Proximity.max_power pl positions in
      Graphkit.Traversal.same_partition gr (Baselines.Yao.yao pl positions ~k:6))

let prop_smecn_power_stretch_is_one =
  QCheck.Test.make ~count:40
    ~name:"SMECN has power stretch exactly 1 under its energy model"
    (QCheck.make positions_gen)
    (fun positions ->
      let energy = Radio.Energy.make ~rx_overhead:50. pl in
      let gr = Baselines.Proximity.max_power pl positions in
      let g = Baselines.Smecn.smecn energy positions in
      Graphkit.Traversal.same_partition gr g
      &&
      let s = Metrics.Stretch.power_stretch energy positions ~reference:gr g in
      s.Metrics.Stretch.max_stretch <= 1. +. 1e-9)

let prop_smecn_equals_gabriel_quadratic_no_overhead =
  QCheck.Test.make ~count:40
    ~name:"SMECN with p(d)=d^2 and no overhead is exactly the Gabriel graph"
    (QCheck.make positions_gen)
    (fun positions ->
      (* w blocks (u,v) in SMECN iff d(u,w)^2 + d(w,v)^2 < d(u,v)^2 —
         precisely the strict diameter-circle (Gabriel) criterion. *)
      let energy = Radio.Energy.make pl in
      Graphkit.Ugraph.equal
        (Baselines.Smecn.smecn energy positions)
        (Baselines.Proximity.gabriel pl positions))

let prop_knn_out_degree =
  QCheck.Test.make ~count:60 ~name:"k-NN: each node selects at most k"
    (QCheck.make positions_gen)
    (fun positions ->
      let k = 3 in
      let g = Baselines.Proximity.knn pl positions ~k in
      (* degree can exceed k through the symmetric closure, but the total
         edge count is bounded by n*k *)
      Graphkit.Ugraph.nb_edges g <= Array.length positions * k)

let test_degenerate_inputs () =
  (* Every family must accept the empty network, a single node, and
     coincident nodes (zero-length candidate edges) without crashing. *)
  let families positions =
    [
      ("max_power", Baselines.Proximity.max_power pl positions);
      ("rng", Baselines.Proximity.rng pl positions);
      ("gabriel", Baselines.Proximity.gabriel pl positions);
      ("mst", Baselines.Proximity.euclidean_mst pl positions);
      ("knn", Baselines.Proximity.knn pl positions ~k:3);
    ]
  in
  List.iter
    (fun positions ->
      let n = Array.length positions in
      List.iter
        (fun (name, g) ->
          Alcotest.(check int)
            (Fmt.str "%s keeps %d nodes" name n)
            n (Graphkit.Ugraph.nb_nodes g))
        (families positions))
    [ [||]; [| Geom.Vec2.zero |];
      [| Geom.Vec2.zero; Geom.Vec2.zero; Geom.Vec2.make 10. 0. |] ];
  let dup = [| Geom.Vec2.zero; Geom.Vec2.zero; Geom.Vec2.make 10. 0. |] in
  Alcotest.(check bool) "mst spans coincident nodes" true
    (Graphkit.Traversal.is_connected (Baselines.Proximity.euclidean_mst pl dup))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "baselines"
    [
      ( "families",
        [
          Alcotest.test_case "max power" `Quick test_max_power_is_gr;
          Alcotest.test_case "rng lune" `Quick test_rng_lune;
          Alcotest.test_case "gabriel" `Quick test_gabriel;
          Alcotest.test_case "mst" `Quick test_mst;
          Alcotest.test_case "knn" `Quick test_knn;
          Alcotest.test_case "radius_of" `Quick test_radius_of;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
        ] );
      ( "yao",
        [
          Alcotest.test_case "star" `Quick test_yao_star;
          Alcotest.test_case "edge budget" `Quick test_yao_edge_budget;
        ] );
      ( "smecn",
        [
          Alcotest.test_case "prunes dominated edge" `Quick
            test_smecn_prunes_dominated_edge;
          Alcotest.test_case "overhead keeps direct" `Quick
            test_smecn_overhead_keeps_direct;
        ] );
      ( "properties",
        qsuite
          [
            prop_inclusion_chain;
            prop_families_preserve_partition;
            prop_knn_out_degree;
            prop_yao_preserves_partition;
            prop_smecn_power_stretch_is_one;
            prop_smecn_equals_gabriel_quadratic_no_overhead;
          ] );
    ]
