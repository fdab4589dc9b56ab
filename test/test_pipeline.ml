(* Tests for the end-to-end pipeline: the paper's Table 1 configurations,
   inclusion relations among the produced graphs, radius semantics,
   golden values on a fixed seed, and the flat pipeline against its
   list oracle (Spec_optimize.pipeline). *)

let alpha56 = Geom.Angle.five_pi_six

let alpha23 = Geom.Angle.two_pi_three

let c56 = Cbtc.Config.make alpha56

let c23 = Cbtc.Config.make alpha23

let scenario seed =
  let sc = Workload.Scenario.paper ~seed in
  (Workload.Scenario.pathloss sc, Workload.Scenario.positions sc)

let test_presets () =
  let b = Cbtc.Pipeline.basic c56 in
  Alcotest.(check bool) "basic plain" true
    ((not b.Cbtc.Pipeline.shrink) && (not b.Cbtc.Pipeline.asym)
    && b.Cbtc.Pipeline.pairwise = `None);
  let s = Cbtc.Pipeline.with_shrink c56 in
  Alcotest.(check bool) "shrink set" true s.Cbtc.Pipeline.shrink;
  let a = Cbtc.Pipeline.all_ops c23 in
  Alcotest.(check bool) "all ops at 2pi/3 includes asym" true a.Cbtc.Pipeline.asym;
  let a56 = Cbtc.Pipeline.all_ops c56 in
  Alcotest.(check bool) "all ops at 5pi/6 excludes asym" false a56.Cbtc.Pipeline.asym;
  Alcotest.(check bool) "all ops pairwise practical" true
    (a.Cbtc.Pipeline.pairwise = `Practical)

let test_asym_guard () =
  Alcotest.check_raises "shrink_asym at 5pi/6"
    (Invalid_argument "Pipeline: asymmetric edge removal requires alpha <= 2pi/3")
    (fun () -> ignore (Cbtc.Pipeline.shrink_asym c56));
  let pl, positions = scenario 1 in
  Alcotest.check_raises "of_discovery with bad plan"
    (Invalid_argument "Pipeline: asymmetric edge removal requires alpha <= 2pi/3")
    (fun () ->
      let d = Cbtc.Geo.run_flat c56 pl positions in
      ignore
        (Cbtc.Pipeline.of_discovery d
           { (Cbtc.Pipeline.basic c56) with Cbtc.Pipeline.asym = true }))

let test_config_mismatch_guard () =
  let pl, positions = scenario 1 in
  let d = Cbtc.Geo.run_flat c56 pl positions in
  Alcotest.check_raises "config mismatch"
    (Invalid_argument "Pipeline.of_discovery: config mismatch") (fun () ->
      ignore (Cbtc.Pipeline.of_discovery d (Cbtc.Pipeline.basic c23)))

let test_graph_inclusions () =
  let pl, positions = scenario 3 in
  let basic = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic c23) in
  let shrunk = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.with_shrink c23) in
  let asym = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.shrink_asym c23) in
  let all = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c23) in
  let sub a b =
    Graphkit.Ugraph.is_subgraph a.Cbtc.Pipeline.graph b.Cbtc.Pipeline.graph
  in
  Alcotest.(check bool) "shrunk subset of basic" true (sub shrunk basic);
  Alcotest.(check bool) "asym subset of shrunk" true (sub asym shrunk);
  Alcotest.(check bool) "all subset of asym" true (sub all asym);
  (* every stage preserves the GR partition *)
  let gr = Cbtc.Geo.max_power_graph pl positions in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " preserves") true
        (Metrics.Connectivity.preserves ~reference:gr r.Cbtc.Pipeline.graph))
    [ ("basic", basic); ("shrunk", shrunk); ("asym", asym); ("all", all) ]

let test_radius_semantics () =
  let pl, positions = scenario 4 in
  let r = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56) in
  let n = Array.length positions in
  (* the Section 4 beacon radius rad_{u,alpha}: the radius in the
     unoptimized E_alpha *)
  let d = r.Cbtc.Pipeline.discovery in
  let beacon = Cbtc.Discovery.radius_in d (Cbtc.Discovery.closure d) in
  for u = 0 to n - 1 do
    (* radius covers exactly the farthest kept neighbor *)
    let expected =
      List.fold_left
        (fun acc v -> Float.max acc (Geom.Vec2.dist positions.(u) positions.(v)))
        0.
        (Graphkit.Ugraph.neighbors r.Cbtc.Pipeline.graph u)
    in
    if Float.abs (expected -. r.Cbtc.Pipeline.radius.(u)) > 1e-9 then
      Alcotest.failf "radius(%d): %g vs %g" u expected r.Cbtc.Pipeline.radius.(u);
    (* the Section 4 beacon radius dominates the data radius and stays
       within the radio range *)
    if beacon.(u) > 500.0 +. 1e-9 then
      Alcotest.failf "basic radius exceeds R at %d" u;
    if beacon.(u) < r.Cbtc.Pipeline.radius.(u) -. 1e-9 then
      Alcotest.failf "beacon radius below data radius at %d" u
  done

let test_avg_metrics_consistency () =
  let pl, positions = scenario 5 in
  let r = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic c56) in
  let deg = Cbtc.Pipeline.avg_degree r in
  Alcotest.(check (float 1e-9)) "avg degree matches metrics lib" deg
    (Metrics.Topo_metrics.avg_degree r.Cbtc.Pipeline.graph);
  let rad = Cbtc.Pipeline.avg_radius r in
  Alcotest.(check (float 1e-9)) "avg radius matches metrics lib" rad
    (Metrics.Topo_metrics.avg_radius r.Cbtc.Pipeline.radius)

(* Golden values: the paper's scenario at seed 42.  These pin down the
   deterministic pipeline; table-level agreement with the paper is
   checked (more loosely) in the benchmark harness. *)
let test_golden_seed_42 () =
  let pl, positions = scenario 42 in
  let check name plan (deg_lo, deg_hi) (rad_lo, rad_hi) =
    let r = Cbtc.Pipeline.run_oracle pl positions plan in
    let deg = Cbtc.Pipeline.avg_degree r and rad = Cbtc.Pipeline.avg_radius r in
    if deg < deg_lo || deg > deg_hi then
      Alcotest.failf "%s degree %g outside [%g, %g]" name deg deg_lo deg_hi;
    if rad < rad_lo || rad > rad_hi then
      Alcotest.failf "%s radius %g outside [%g, %g]" name rad rad_lo rad_hi
  in
  (* generous envelopes around the paper's Table 1 values *)
  check "basic 5pi/6" (Cbtc.Pipeline.basic c56) (10., 15.) (400., 470.);
  check "basic 2pi/3" (Cbtc.Pipeline.basic c23) (13., 18.) (420., 490.);
  check "all 5pi/6" (Cbtc.Pipeline.all_ops c56) (2.5, 4.5) (130., 190.);
  check "all 2pi/3" (Cbtc.Pipeline.all_ops c23) (2.5, 4.5) (130., 200.)

let test_stepped_pipeline () =
  (* The pipeline also runs on stepped-growth discoveries (as produced by
     the distributed protocol) and still preserves connectivity. *)
  let pl, positions = scenario 6 in
  let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha56 in
  let outcome = Cbtc.Distributed.run config pl positions in
  let r =
    Cbtc.Pipeline.of_discovery outcome.Cbtc.Distributed.discovery
      (Cbtc.Pipeline.all_ops config)
  in
  let gr = Cbtc.Geo.max_power_graph pl positions in
  Alcotest.(check bool) "distributed + all ops preserves" true
    (Metrics.Connectivity.preserves ~reference:gr r.Cbtc.Pipeline.graph);
  (* the protocol converges to the oracle's discovery here, so the
     pipeline on its rows (reordered by tag in of_discovery) and on the
     kernel's rows agree *)
  let oracle = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops config) in
  Alcotest.(check (list (pair int int))) "distributed graph = oracle graph"
    (Graphkit.Ugraph.edges oracle.Cbtc.Pipeline.graph)
    (Graphkit.Ugraph.edges r.Cbtc.Pipeline.graph);
  Alcotest.(check (array (float 0.))) "distributed radius = oracle radius"
    oracle.Cbtc.Pipeline.radius r.Cbtc.Pipeline.radius

let positions_gen =
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    list_repeat n (pair (float_bound_exclusive 1000.) (float_bound_exclusive 1000.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> Geom.Vec2.make x y) pts))

let prop_all_plans_preserve =
  QCheck.Test.make ~count:40
    ~name:"every preset preserves connectivity on random scenarios"
    (QCheck.make positions_gen)
    (fun positions ->
      let pl = Radio.Pathloss.make ~max_range:300. () in
      let gr = Cbtc.Geo.max_power_graph pl positions in
      List.for_all
        (fun plan ->
          let r = Cbtc.Pipeline.run_oracle pl positions plan in
          Metrics.Connectivity.preserves ~reference:gr r.Cbtc.Pipeline.graph)
        [
          Cbtc.Pipeline.basic c56;
          Cbtc.Pipeline.with_shrink c56;
          Cbtc.Pipeline.all_ops c56;
          Cbtc.Pipeline.basic c23;
          Cbtc.Pipeline.shrink_asym c23;
          Cbtc.Pipeline.all_ops c23;
        ])

(* ---------- flat pipeline = list oracle ---------- *)

let bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Every Table 1 preset, op2 without op1, and op3 in `All mode, for
   both cone degrees under [growth]. *)
let plans growth =
  let c56 = Cbtc.Config.make ~growth alpha56 in
  let c23 = Cbtc.Config.make ~growth alpha23 in
  let open Cbtc.Pipeline in
  [
    basic c56;
    with_shrink c56;
    all_ops c56;
    { (all_ops c56) with pairwise = `All };
    basic c23;
    with_shrink c23;
    shrink_asym c23;
    all_ops c23;
    { (basic c23) with asym = true };
    { (all_ops c23) with pairwise = `All };
  ]

(* [d] with each row's tags reversed: rows out of (tag, link power, id)
   order, which of_discovery sorts before op1 cuts a prefix *)
let reverse_tags (d : Cbtc.Discovery.t) =
  Spec_geo.with_rows d
    (Array.map
       (fun row ->
         let tags = List.rev_map (fun (nb : Cbtc.Neighbor.t) -> nb.tag) row in
         List.map2 (fun (nb : Cbtc.Neighbor.t) tag -> { nb with tag }) row tags)
       (Spec_geo.rows d))

(* The graph, the radii bit for bit, and every counter of the flat
   pipeline against the list oracle. *)
let matches_spec (d : Cbtc.Discovery.t) plan =
  let flat_obs = Obs.Recorder.create () and spec_obs = Obs.Recorder.create () in
  let r = Cbtc.Pipeline.of_discovery ~obs:flat_obs d plan in
  let graph, radius = Spec_optimize.pipeline ~obs:spec_obs d plan in
  Graphkit.Ugraph.equal r.graph graph
  && bits_eq r.radius radius
  && Obs.Recorder.counters flat_obs = Obs.Recorder.counters spec_obs

(* 2..35 nodes on a 400 x 400 field, one of them possibly moved onto
   another; the σ > 0 case draws an environment with obstacles *)
let flat_case_gen =
  QCheck.Gen.(
    Gen_common.positions_gen >>= fun positions ->
    let n = Array.length positions in
    pair bool (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun (dup, (src, dst)) ->
    let positions = Array.copy positions in
    if dup then positions.(dst) <- positions.(src);
    opt (Gen_common.env_gen ~max_range:150. n) >>= fun env ->
    bool >|= fun exact -> (positions, env, exact))

let prop_flat_matches_spec =
  QCheck.Test.make ~count:60
    ~name:"flat pipeline = list spec: graph, radius bits, counters"
    (QCheck.make
       ~print:(fun (positions, env, exact) ->
         Fmt.str "%s@.env: %b, exact: %b" (Gen_common.positions_print positions)
           (Option.is_some env) exact)
       flat_case_gen)
    (fun (positions, env, exact) ->
      let pl =
        match env with
        | Some env -> Radio.Env.pathloss env
        | None -> Radio.Pathloss.make ~max_range:150. ()
      in
      let growth =
        if exact then Cbtc.Config.Exact
        else Cbtc.Config.Double (Radio.Pathloss.max_power pl /. 64.)
      in
      List.for_all
        (fun (plan : Cbtc.Pipeline.plan) ->
          let d = Cbtc.Geo.run_flat ?env plan.config pl positions in
          let oracle = Cbtc.Pipeline.run_oracle ?env pl positions plan in
          let graph, radius = Spec_optimize.pipeline d plan in
          matches_spec d plan
          && matches_spec (reverse_tags d) plan
          && Graphkit.Ugraph.equal oracle.graph graph
          && bits_eq oracle.radius radius)
        (plans growth))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "pipeline"
    [
      ( "plans",
        [
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "asym guard" `Quick test_asym_guard;
          Alcotest.test_case "config mismatch guard" `Quick test_config_mismatch_guard;
        ] );
      ( "results",
        [
          Alcotest.test_case "graph inclusions" `Quick test_graph_inclusions;
          Alcotest.test_case "radius semantics" `Quick test_radius_semantics;
          Alcotest.test_case "avg metrics consistency" `Quick test_avg_metrics_consistency;
          Alcotest.test_case "golden seed 42" `Quick test_golden_seed_42;
          Alcotest.test_case "stepped pipeline" `Quick test_stepped_pipeline;
        ] );
      ("properties", qsuite [ prop_all_plans_preserve; prop_flat_matches_spec ]);
    ]
