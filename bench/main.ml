(* Reproduction harness for "Analysis of a Cone-Based Distributed
   Topology Control Algorithm for Wireless Multi-hop Networks"
   (Li, Halpern, Bahl, Wang, Wattenhofer; PODC 2001).

   Regenerates every quantitative result of the paper:
   - Table 1  (average node degree / average radius, all configurations);
   - Figure 2 (Example 2.1: N_alpha asymmetry);
   - Figure 5 (Theorem 2.4: disconnection for alpha > 5pi/6);
   - Figure 6 (one network rendered under eight configurations, as SVG);
   plus connectivity sweeps, ablations of our own, Bechamel
   microbenchmarks of the computational kernels, and a spatial-grid vs
   brute-force scaling comparison (writes <out>/perf.json), and the
   streaming-daemon capacity study (writes <out>/daemon.json).

   Usage: main.exe [--seeds N] [--fast] [--out DIR] [-j N]
                   [--trace-out FILE] [--metrics-out FILE] [section ...]
   Sections: table1 figures figure6 connectivity ablations extensions
   series parallel daemon shadowing lifetime perf (default: all of
   them, in that order); an unknown section name exits 2.

   [--trace-out] / [--metrics-out] enable the observability layer with a
   wall clock (this is a timing harness, so spans carry durations and the
   domain pool records task latencies); each section runs in its own
   span, and table1 merges per-trial recorders in seed order.

   [-j N] (or CBTC_JOBS) sizes the domain pool used for the Monte-Carlo
   trial loops and the chunked per-node phases; results are
   bit-identical for every jobs level (seeds are pre-split, merges are
   sequential and order-preserving). *)

let alpha56 = Geom.Angle.five_pi_six

let alpha23 = Geom.Angle.two_pi_three

let c56 = Cbtc.Config.make alpha56

let c23 = Cbtc.Config.make alpha23

let section title = Fmt.pr "@.=== %s ===@.@." title

(* The one writer of the <out>/*.json results documents: an object
   with "schema", the [header] fields, "note" and "results", one
   Jsonl-rendered row per line.  test/check_artifact.exe holds each
   document's column contract and semantic pins. *)
let write_results path ~schema ~note ?(header = []) rows =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "{\n";
      List.iter
        (fun (k, v) ->
          Printf.fprintf oc "  %S: %s,\n" k (Obs.Jsonl.to_string v))
        ((("schema", Obs.Jsonl.Int schema) :: header)
        @ [ ("note", Obs.Jsonl.Str note) ]);
      output_string oc "  \"results\": [\n";
      output_string oc
        (String.concat ",\n"
           (List.map (fun row -> "    " ^ Obs.Jsonl.to_string row) rows));
      output_string oc "\n  ]\n}\n");
  Fmt.pr "wrote %s@." path

(* [x] rounded to [digits] decimals, so a Jsonl-rendered timing keeps
   the precision the table prints *)
let fixed digits x = Float.of_string (Printf.sprintf "%.*f" digits x)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  label : string;
  paper_degree : float option;
  paper_radius : float option;
  run : Obs.Recorder.t -> Radio.Pathloss.t -> Geom.Vec2.t array -> float * float;
      (* (degree, radius) for one network *)
}

let pipeline_row label paper_degree paper_radius plan =
  {
    label;
    paper_degree;
    paper_radius;
    run =
      (fun obs pl positions ->
        let r = Cbtc.Pipeline.run_oracle ~obs pl positions plan in
        (Cbtc.Pipeline.avg_degree r, Cbtc.Pipeline.avg_radius r));
  }

let table1_rows =
  [
    pipeline_row "basic, a=5pi/6" (Some 12.3) (Some 436.8) (Cbtc.Pipeline.basic c56);
    pipeline_row "basic, a=2pi/3" (Some 15.4) (Some 457.4) (Cbtc.Pipeline.basic c23);
    pipeline_row "op1 (shrink), a=5pi/6" (Some 10.3) (Some 373.7)
      (Cbtc.Pipeline.with_shrink c56);
    pipeline_row "op1 (shrink), a=2pi/3" (Some 12.8) (Some 398.1)
      (Cbtc.Pipeline.with_shrink c23);
    pipeline_row "op1+op2 (asym), a=2pi/3" (Some 7.0) (Some 276.8)
      (Cbtc.Pipeline.shrink_asym c23);
    (* the paper's in-text number: basic + asymmetric removal, no shrink *)
    pipeline_row "op2 only (asym), a=2pi/3" None (Some 301.2)
      { (Cbtc.Pipeline.basic c23) with Cbtc.Pipeline.asym = true };
    pipeline_row "all ops, a=5pi/6" (Some 3.6) (Some 155.9)
      (Cbtc.Pipeline.all_ops c56);
    pipeline_row "all ops, a=2pi/3" (Some 3.6) (Some 160.6)
      (Cbtc.Pipeline.all_ops c23);
    {
      label = "max power (no TC)";
      paper_degree = Some 25.6;
      paper_radius = Some 500.;
      run =
        (fun _obs pl positions ->
          let gr = Baselines.Proximity.max_power pl positions in
          (Metrics.Topo_metrics.avg_degree gr, Radio.Pathloss.max_range pl));
    };
  ]

let fmt_opt = function None -> "-" | Some v -> Fmt.str "%.1f" v

(* Half-width of the 95% interval; a single network has none ("-"). *)
let ci_half_width acc =
  if Stats.Welford.count acc < 2 then "-"
  else Fmt.str "%.2f" (Stats.Ci.of_welford acc).Stats.Ci.half_width

(* One trial = one random network evaluated under every configuration.
   Trials are independent, so they fan out over the pool via an
   order-preserving [Parallel.Pool.map]; the Welford accumulators are
   then folded sequentially in seed order, which keeps every printed
   digit identical for any [-j]. *)
let table1_trial ?(obs = Obs.Recorder.nil) seed =
  let sc = Workload.Scenario.paper ~seed in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let gr = Baselines.Proximity.max_power pl positions in
  let vals = List.map (fun row -> row.run obs pl positions) table1_rows in
  let all56 =
    Cbtc.Pipeline.run_oracle ~obs pl positions (Cbtc.Pipeline.all_ops c56)
  in
  let broken =
    not
      (Metrics.Connectivity.preserves ~reference:gr all56.Cbtc.Pipeline.graph)
  in
  (vals, broken)

let run_table1 ~pool ~obs ~seeds =
  section
    (Fmt.str
       "Table 1: average degree and radius over %d random networks (100 \
        nodes, 1500x1500, R=500)"
       (List.length seeds));
  let accs =
    List.map
      (fun row -> (row, Stats.Welford.create (), Stats.Welford.create ()))
      table1_rows
  in
  let broken = ref 0 in
  (* trials record into per-trial clockless recorders (worker domains
     never touch [obs]); the sequential fold below merges them in seed
     order, so merged counters are identical for every -j *)
  let recording = Obs.Recorder.enabled obs in
  let trial seed =
    let tobs = if recording then Obs.Recorder.create () else Obs.Recorder.nil in
    let vals, b = table1_trial ~obs:tobs seed in
    (vals, b, tobs)
  in
  let trials = Parallel.Pool.map pool trial (Array.of_list seeds) in
  Array.iter
    (fun (vals, b, tobs) ->
      if recording then begin
        Obs.Recorder.incr obs "table1.trials";
        Obs.Recorder.merge_into ~into:obs tobs
      end;
      List.iter2
        (fun (_, dacc, racc) (deg, rad) ->
          Stats.Welford.add dacc deg;
          Stats.Welford.add racc rad)
        accs vals;
      if b then incr broken)
    trials;
  let table =
    Metrics.Table.create
      ~columns:
        [ "configuration"; "deg (paper)"; "deg (ours)"; "+/-95%";
          "rad (paper)"; "rad (ours)"; "+/-95%" ]
  in
  List.iter
    (fun (row, dacc, racc) ->
      Metrics.Table.add_row table
        [
          row.label;
          fmt_opt row.paper_degree;
          Fmt.str "%.1f" (Stats.Welford.mean dacc);
          ci_half_width dacc;
          fmt_opt row.paper_radius;
          Fmt.str "%.1f" (Stats.Welford.mean racc);
          ci_half_width racc;
        ])
    accs;
  Fmt.pr "%a@." Metrics.Table.pp table;
  Fmt.pr "connectivity violations across all networks (all ops, a=5pi/6): %d@."
    !broken;
  let mean_of label =
    let _, dacc, racc =
      List.find (fun (r, _, _) -> r.label = label) accs
    in
    (Stats.Welford.mean dacc, Stats.Welford.mean racc)
  in
  let max_deg, _ = mean_of "max power (no TC)" in
  let all_deg, all_rad = mean_of "all ops, a=5pi/6" in
  Fmt.pr
    "headline ratios: degree cut %.1fx (paper: 7.1x), radius cut %.1fx \
     (paper: 3.2x)@."
    (max_deg /. all_deg) (500. /. all_rad)

(* ------------------------------------------------------------------ *)
(* Figures 2 and 5 (the hand constructions)                            *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  section "Figure 2 / Example 2.1: N_alpha asymmetry at alpha = 5pi/6";
  let ex = Cbtc.Constructions.example_2_1 ~alpha:alpha56 () in
  let pl = Radio.Pathloss.make ~max_range:ex.Cbtc.Constructions.max_range () in
  let d =
    Cbtc.Geo.run_flat (Cbtc.Config.make alpha56) pl ex.Cbtc.Constructions.positions
  in
  let nbrs = Cbtc.Discovery.neighbor_ids d in
  let names = [| "u0"; "u1"; "u2"; "u3"; "v" |] in
  Array.iteri
    (fun u name ->
      Fmt.pr "  N(%s) = {%s}@." name
        (String.concat ", "
           (List.map (fun v -> names.(v)) (nbrs u))))
    names;
  Fmt.pr
    "  (v,u0) in N_alpha: %b   (u0,v) in N_alpha: %b   => asymmetric, \
     closure required@."
    (List.mem 0 (nbrs 4))
    (List.mem 4 (nbrs 0));
  Fmt.pr "  closure preserves connectivity: %b@."
    (Metrics.Connectivity.preserves
       ~reference:(Cbtc.Geo.max_power_graph pl ex.Cbtc.Constructions.positions)
       (Cbtc.Discovery.closure d));

  section "Figure 5 / Theorem 2.4: disconnection for alpha = 5pi/6 + eps";
  List.iter
    (fun epsilon ->
      let th = Cbtc.Constructions.theorem_2_4 ~epsilon () in
      let pl =
        Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range ()
      in
      let positions = th.Cbtc.Constructions.positions in
      let gr = Cbtc.Geo.max_power_graph pl positions in
      let galpha =
        Cbtc.Discovery.closure
          (Cbtc.Geo.run_flat
             (Cbtc.Config.make th.Cbtc.Constructions.alpha)
             pl positions)
      in
      let gthr =
        Cbtc.Discovery.closure
          (Cbtc.Geo.run_flat (Cbtc.Config.make alpha56) pl positions)
      in
      Fmt.pr
        "  eps=%-5g GR connected: %b | G(5pi/6+eps) connected: %b | \
         G(5pi/6) connected: %b@."
        epsilon
        (Graphkit.Traversal.is_connected gr)
        (Graphkit.Traversal.is_connected galpha)
        (Graphkit.Traversal.is_connected gthr))
    [ 0.01; 0.05; 0.1; 0.2; 0.3 ];
  Fmt.pr
    "  => 5pi/6 is tight: the same placements stay connected at the \
     threshold@."

(* ------------------------------------------------------------------ *)
(* Figure 6 (topology panels)                                          *)
(* ------------------------------------------------------------------ *)

let run_figure6 ~out_dir =
  section "Figure 6: one network under eight configurations (SVG panels)";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let sc = Workload.Scenario.paper ~seed:42 in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let gr = Baselines.Proximity.max_power pl positions in
  let oracle plan =
    (Cbtc.Pipeline.run_oracle pl positions plan).Cbtc.Pipeline.graph
  in
  let panels =
    [
      ("a", "no topology control", gr);
      ("b", "basic, a=2pi/3", oracle (Cbtc.Pipeline.basic c23));
      ("c", "basic, a=5pi/6", oracle (Cbtc.Pipeline.basic c56));
      ("d", "shrink-back, a=2pi/3", oracle (Cbtc.Pipeline.with_shrink c23));
      ("e", "shrink-back, a=5pi/6", oracle (Cbtc.Pipeline.with_shrink c56));
      ("f", "shrink-back + asym, a=2pi/3", oracle (Cbtc.Pipeline.shrink_asym c23));
      ("g", "all optimizations, a=5pi/6", oracle (Cbtc.Pipeline.all_ops c56));
      ("h", "all optimizations, a=2pi/3", oracle (Cbtc.Pipeline.all_ops c23));
    ]
  in
  List.iter
    (fun (tag, title, graph) ->
      let path = Filename.concat out_dir (Fmt.str "figure6%s.svg" tag) in
      let style = Viz.Topoviz.style ~title:(Fmt.str "(%s) %s" tag title) () in
      Viz.Topoviz.write_svg ~style path ~field_width:1500. ~field_height:1500.
        positions graph;
      Fmt.pr "  (%s) %-30s edges=%4d avg-degree=%5.1f -> %s@." tag title
        (Graphkit.Ugraph.nb_edges graph)
        (Metrics.Topo_metrics.avg_degree graph)
        path)
    panels

(* ------------------------------------------------------------------ *)
(* Connectivity sweep (Theorem 2.1 empirically)                        *)
(* ------------------------------------------------------------------ *)

let run_connectivity ~pool ~seeds =
  section "Connectivity sweep: networks whose partition is preserved, vs alpha";
  let alphas =
    [
      ("pi/2", Float.pi /. 2.);
      ("2pi/3", alpha23);
      ("3pi/4", 3. *. Float.pi /. 4.);
      ("5pi/6", alpha56);
      ("5pi/6+0.1", alpha56 +. 0.1);
      ("11pi/12", 11. *. Float.pi /. 12.);
    ]
  in
  let table =
    Metrics.Table.create ~columns:[ "alpha"; "closure ok"; "all-ops ok"; "note" ]
  in
  List.iter
    (fun (name, alpha) ->
      let config = Cbtc.Config.make alpha in
      (* independent trials: fan out, then count — counting ints is
         order-free, so results match the sequential loop exactly *)
      let trial seed =
        let sc = Workload.Scenario.paper ~seed in
        let pl = Workload.Scenario.pathloss sc in
        let positions = Workload.Scenario.positions sc in
        let gr = Baselines.Proximity.max_power pl positions in
        let closure =
          Cbtc.Discovery.closure (Cbtc.Geo.run_flat config pl positions)
        in
        let all =
          Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops config)
        in
        ( Metrics.Connectivity.preserves ~reference:gr closure,
          Metrics.Connectivity.preserves ~reference:gr all.Cbtc.Pipeline.graph
        )
      in
      let results = Parallel.Pool.map pool trial (Array.of_list seeds) in
      let ok_closure = ref 0 and ok_all = ref 0 in
      Array.iter
        (fun (c, a) ->
          if c then incr ok_closure;
          if a then incr ok_all)
        results;
      let n = List.length seeds in
      let note =
        if alpha <= alpha56 +. 1e-9 then "guaranteed (Thm 2.1)"
        else "no guarantee (Thm 2.4)"
      in
      Metrics.Table.add_row table
        [ name; Fmt.str "%d/%d" !ok_closure n; Fmt.str "%d/%d" !ok_all n; note ])
    alphas;
  Fmt.pr "%a@." Metrics.Table.pp table;
  let th = Cbtc.Constructions.theorem_2_4 ~epsilon:0.1 () in
  let pl = Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range () in
  let g =
    Cbtc.Discovery.closure
      (Cbtc.Geo.run_flat
         (Cbtc.Config.make th.Cbtc.Constructions.alpha)
         pl th.Cbtc.Constructions.positions)
  in
  Fmt.pr "constructed counterexample at alpha=5pi/6+0.1 disconnected: %b@."
    (not (Graphkit.Traversal.is_connected g))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablations ~pool ~seeds =
  let seeds =
    match seeds with s0 :: s1 :: s2 :: _ -> [ s0; s1; s2 ] | l -> l
  in

  section "Ablation A: power-growth schedule (overshoot of Increase(p)=2p)";
  let table =
    Metrics.Table.create
      ~columns:[ "schedule"; "avg power"; "avg radius"; "avg degree" ]
  in
  let growths =
    [
      ("exact (continuous)", Cbtc.Config.Exact);
      ("double from p0=1", Cbtc.Config.Double 1.);
      ("double from p0=1000", Cbtc.Config.Double 1000.);
      ("x4 from p0=1000", Cbtc.Config.Mult { p0 = 1000.; factor = 4. });
    ]
  in
  List.iter
    (fun (name, growth) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let pacc = Stats.Welford.create () in
      let racc = Stats.Welford.create () in
      let dacc = Stats.Welford.create () in
      let trial seed =
        let sc = Workload.Scenario.paper ~seed in
        let pl = Workload.Scenario.pathloss sc in
        let positions = Workload.Scenario.positions sc in
        let d = Cbtc.Geo.run_flat config pl positions in
        let n = Stdlib.float_of_int (Array.length positions) in
        let closure = Cbtc.Discovery.closure d in
        ( Array.fold_left ( +. ) 0. d.power /. n,
          Metrics.Topo_metrics.avg_radius (Cbtc.Discovery.radius_in d closure),
          Metrics.Topo_metrics.avg_degree closure )
      in
      Array.iter
        (fun (p, r, dg) ->
          Stats.Welford.add pacc p;
          Stats.Welford.add racc r;
          Stats.Welford.add dacc dg)
        (Parallel.Pool.map pool trial (Array.of_list seeds));
      Metrics.Table.add_row table
        [
          name;
          Fmt.str "%.0f" (Stats.Welford.mean pacc);
          Fmt.str "%.1f" (Stats.Welford.mean racc);
          Fmt.str "%.1f" (Stats.Welford.mean dacc);
        ])
    growths;
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Ablation B: distributed protocol message cost";
  let table =
    Metrics.Table.create
      ~columns:[ "nodes"; "transmissions"; "deliveries"; "max rounds"; "sim time" ]
  in
  List.iter
    (fun n ->
      let sc = Workload.Scenario.make ~n ~seed:(List.hd seeds) () in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha56 in
      let o = Cbtc.Distributed.run config pl positions in
      let s = o.Cbtc.Distributed.stats in
      Metrics.Table.add_row table
        [
          string_of_int n;
          string_of_int s.Cbtc.Distributed.transmissions;
          string_of_int s.Cbtc.Distributed.deliveries;
          string_of_int s.Cbtc.Distributed.max_rounds;
          Fmt.str "%.0f" s.Cbtc.Distributed.duration;
        ])
    [ 25; 50; 100; 200 ];
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Ablation C: power stretch and hop stretch vs baselines";
  let table =
    Metrics.Table.create
      ~columns:
        [ "topology"; "avg degree"; "power stretch (max)";
          "power stretch (avg)"; "hop stretch (max)" ]
  in
  let sc = Workload.Scenario.paper ~seed:(List.hd seeds) in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let gr = Baselines.Proximity.max_power pl positions in
  let energy = Radio.Energy.make pl in
  let row name graph =
    let ps =
      Metrics.Stretch.power_stretch energy positions ~reference:gr graph
    in
    let hs = Metrics.Stretch.hop_stretch ~reference:gr graph in
    Metrics.Table.add_row table
      [
        name;
        Fmt.str "%.1f" (Metrics.Topo_metrics.avg_degree graph);
        Fmt.str "%.2f" ps.Metrics.Stretch.max_stretch;
        Fmt.str "%.3f" ps.Metrics.Stretch.avg_stretch;
        Fmt.str "%.1f" hs.Metrics.Stretch.max_stretch;
      ]
  in
  let oracle plan =
    (Cbtc.Pipeline.run_oracle pl positions plan).Cbtc.Pipeline.graph
  in
  row "CBTC basic 5pi/6" (oracle (Cbtc.Pipeline.basic c56));
  row "CBTC all ops 5pi/6" (oracle (Cbtc.Pipeline.all_ops c56));
  row "CBTC all ops 2pi/3" (oracle (Cbtc.Pipeline.all_ops c23));
  let half_pi = Cbtc.Config.make (Float.pi /. 2.) in
  row "CBTC basic pi/2 (competitive)" (oracle (Cbtc.Pipeline.basic half_pi));
  row "RNG" (Baselines.Proximity.rng pl positions);
  row "Gabriel" (Baselines.Proximity.gabriel pl positions);
  row "Euclidean MST" (Baselines.Proximity.euclidean_mst pl positions);
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Ablation D: boundary nodes vs the deployment's convex hull";
  (* A boundary node (terminates at max power with a cone gap) should sit
     near the field edge; check how many lie on the convex hull and how
     far from it the rest are. *)
  let d = Cbtc.Geo.run_flat c56 pl positions in
  let hull = Geom.Hull.hull_indices positions in
  let boundary =
    List.filter (fun u -> d.Cbtc.Discovery.boundary.(u))
      (List.init (Array.length positions) Fun.id)
  in
  let on_hull = List.filter (fun u -> List.mem u hull) boundary in
  Fmt.pr
    "boundary nodes: %d of %d; convex hull vertices: %d, of which boundary:      %d (every hull vertex has a half-plane without neighbors, so it must      be a boundary node for alpha >= pi)@."
    (List.length boundary)
    (Array.length positions)
    (List.length hull)
    (List.length on_hull)

(* ------------------------------------------------------------------ *)
(* Extensions: lifetime, interference, congestion, competitiveness     *)
(* ------------------------------------------------------------------ *)

let run_extensions ~seeds =
  let seed = List.hd seeds in

  section "Extension: network lifetime under data gathering (seed network)";
  let sc = Workload.Scenario.make ~n:80 ~seed () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let params = { Lifetime.Gather.default_params with max_rounds = 4000 } in
  let table =
    Metrics.Table.create
      ~columns:
        [ "topology"; "first death"; "sink partition"; "delivered"; "dropped" ]
  in
  let show = function None -> ">end" | Some r -> string_of_int r in
  let run name topology =
    let o =
      (Lifetime.Schedule.run ~params pl positions ~sink:0 ~topology)
        .Lifetime.Schedule.outcome
    in
    Metrics.Table.add_row table
      [
        name;
        show o.Lifetime.Gather.first_death;
        show o.Lifetime.Gather.sink_partition;
        string_of_int o.Lifetime.Gather.packets_delivered;
        string_of_int o.Lifetime.Gather.packets_dropped;
      ]
  in
  run "max power" (Lifetime.Gather.max_power_builder pl);
  run "CBTC all ops 5pi/6"
    (Lifetime.Gather.cbtc_builder (Cbtc.Pipeline.all_ops c56) pl);
  run "CBTC all ops 2pi/3"
    (Lifetime.Gather.cbtc_builder (Cbtc.Pipeline.all_ops c23) pl);
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Extension: interference (nodes disturbed per transmission)";
  let sc = Workload.Scenario.paper ~seed in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let n = Array.length positions in
  let table = Metrics.Table.create ~columns:[ "topology"; "avg"; "max" ] in
  let add name radius =
    let i = Metrics.Interference.coverage positions ~radius in
    Metrics.Table.add_row table
      [
        name;
        Fmt.str "%.1f" i.Metrics.Interference.avg_coverage;
        string_of_int i.Metrics.Interference.max_coverage;
      ]
  in
  add "max power" (Array.make n 500.);
  add "CBTC basic 5pi/6"
    (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic c56)).radius;
  add "CBTC all ops 5pi/6"
    (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56)).radius;
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Extension: congestion under 300 random flows (min-hop routes)";
  let prng = Prng.create ~seed:(seed + 1) in
  let pairs = Routing.Greedy.random_pairs prng ~n ~count:300 in
  let gr = Baselines.Proximity.max_power pl positions in
  let table =
    Metrics.Table.create
      ~columns:
        [ "topology"; "routed"; "max link load"; "max node load"; "total hops";
          "greedy delivery" ]
  in
  let add name graph =
    let load = Routing.Flows.measure positions graph ~pairs in
    let greedy = Routing.Greedy.evaluate graph positions ~pairs in
    Metrics.Table.add_row table
      [
        name;
        Fmt.str "%d/300" load.Routing.Flows.flows_routed;
        string_of_int load.Routing.Flows.max_link_load;
        string_of_int load.Routing.Flows.max_node_load;
        string_of_int load.Routing.Flows.total_hops;
        Fmt.str "%d%%"
          (100 * greedy.Routing.Greedy.delivered
          / Stdlib.max 1 greedy.Routing.Greedy.attempts);
      ]
  in
  add "max power" gr;
  add "CBTC basic 5pi/6"
    (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic c56)).graph;
  add "CBTC all ops 5pi/6"
    (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56)).graph;
  add "Gabriel" (Baselines.Proximity.gabriel pl positions);
  add "SMECN" (Baselines.Smecn.smecn (Radio.Energy.make pl) positions);
  add "Yao k=6" (Baselines.Yao.yao pl positions ~k:6);
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Extension: MAC goodput under slotted ALOHA (interference made real)";
  let table =
    Metrics.Table.create
      ~columns:
        [ "topology"; "offered"; "delivered"; "collisions"; "goodput/node/slot" ]
  in
  let params = { Mac.Aloha.attempt_prob = 0.1; slots = 1000 } in
  let add name graph radius =
    let r = Mac.Aloha.run (Prng.create ~seed:4242) positions ~radius ~graph params in
    Metrics.Table.add_row table
      [
        name;
        string_of_int r.Mac.Aloha.offered;
        string_of_int r.Mac.Aloha.delivered;
        string_of_int r.Mac.Aloha.collisions;
        Fmt.str "%.4f" r.Mac.Aloha.goodput;
      ]
  in
  add "max power" gr
    (Baselines.Proximity.radius_of ~full_power:true pl positions gr);
  let basic = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic c56) in
  add "CBTC basic 5pi/6" basic.Cbtc.Pipeline.graph basic.Cbtc.Pipeline.radius;
  let allops = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56) in
  add "CBTC all ops 5pi/6" allops.Cbtc.Pipeline.graph allops.Cbtc.Pipeline.radius;
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Extension: robustness cost (articulation points and bridges)";
  let table =
    Metrics.Table.create
      ~columns:[ "topology"; "cut vertices"; "bridges"; "biconnected" ]
  in
  let add name graph =
    Metrics.Table.add_row table
      [
        name;
        string_of_int (List.length (Graphkit.Biconnect.articulation_points graph));
        string_of_int (List.length (Graphkit.Biconnect.bridges graph));
        string_of_bool (Graphkit.Biconnect.is_biconnected graph);
      ]
  in
  add "max power" gr;
  add "CBTC basic 5pi/6" basic.Cbtc.Pipeline.graph;
  add "CBTC all ops 5pi/6" allops.Cbtc.Pipeline.graph;
  add "Euclidean MST" (Baselines.Proximity.euclidean_mst pl positions);
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Extension: density sweep (CBTC adapts radius to local density)";
  let table =
    Metrics.Table.create
      ~columns:
        [ "nodes"; "GR degree"; "CBTC degree"; "CBTC radius"; "radius / R" ]
  in
  List.iter
    (fun n ->
      let sc = Workload.Scenario.make ~n ~seed () in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      let gr = Baselines.Proximity.max_power pl positions in
      let r = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56) in
      Metrics.Table.add_row table
        [
          string_of_int n;
          Fmt.str "%.1f" (Metrics.Topo_metrics.avg_degree gr);
          Fmt.str "%.1f" (Cbtc.Pipeline.avg_degree r);
          Fmt.str "%.0f" (Cbtc.Pipeline.avg_radius r);
          Fmt.str "%.2f" (Cbtc.Pipeline.avg_radius r /. 500.);
        ])
    [ 50; 100; 200; 400 ];
  Fmt.pr "%a@." Metrics.Table.pp table;

  section "Extension: fault tolerance — CBTC(2pi/3k) preserves k-connectivity";
  let table =
    Metrics.Table.create
      ~columns:[ "k"; "alpha"; "GR k-connected"; "topology k-connected"; "checked" ]
  in
  List.iter
    (fun k ->
      let tried = ref 0 and held = ref 0 in
      List.iter
        (fun seed ->
          (* denser field so GR is usually k-connected *)
          let sc = Workload.Scenario.make ~n:60 ~width:800. ~height:800. ~seed () in
          let pl = Workload.Scenario.pathloss sc in
          let positions = Workload.Scenario.positions sc in
          let gr_ok, topo_ok = Cbtc.Fault_tolerant.check ~k pl positions in
          if gr_ok then begin
            incr tried;
            if topo_ok then incr held
          end)
        (match seeds with a :: b :: c :: _ -> [ a; b; c ] | l -> l);
      Metrics.Table.add_row table
        [
          string_of_int k;
          Fmt.str "%.3f" (Cbtc.Fault_tolerant.alpha_for ~k);
          Fmt.str "%d" !tried;
          Fmt.str "%d" !held;
          (if !tried = !held then "all preserved" else "VIOLATION");
        ])
    [ 1; 2; 3 ];
  Fmt.pr "%a@." Metrics.Table.pp table;

  section
    "Extension: competitiveness check for alpha <= pi/2 (power stretch vs \
     the paper's bound)";
  (* For p(d) ~ d^n and transmission-power-only cost (k = 1 in the
     paper's terms), CBTC(alpha <= pi/2) routes are competitive.  We
     check the empirical max power stretch on several networks. *)
  let energy = Radio.Energy.make pl in
  let worst = ref 0. in
  List.iter
    (fun seed ->
      let sc = Workload.Scenario.paper ~seed in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      let gr = Baselines.Proximity.max_power pl positions in
      let g =
        (Cbtc.Pipeline.run_oracle pl positions
           (Cbtc.Pipeline.basic (Cbtc.Config.make (Float.pi /. 2.))))
          .Cbtc.Pipeline.graph
      in
      let s = Metrics.Stretch.power_stretch energy positions ~reference:gr g in
      if s.Metrics.Stretch.max_stretch > !worst then
        worst := s.Metrics.Stretch.max_stretch)
    (match seeds with a :: b :: c :: _ -> [ a; b; c ] | l -> l);
  Fmt.pr "max power stretch of CBTC(pi/2) over the seed set: %.4f (bound \
          from the paper's competitiveness analysis: > 1, small constant; \
          empirically the routes are essentially optimal)@."
    !worst

(* ------------------------------------------------------------------ *)
(* Data series (CSV for downstream plotting)                           *)
(* ------------------------------------------------------------------ *)

(* One (alpha, seed) cell of the sweep.  Pure: safe to fan out. *)
let series_trial config seed =
  let sc = Workload.Scenario.paper ~seed in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let basic =
    Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic config)
  in
  let allops =
    Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops config)
  in
  ( Cbtc.Pipeline.avg_degree basic,
    Cbtc.Pipeline.avg_radius basic,
    Cbtc.Pipeline.avg_degree allops,
    Cbtc.Pipeline.avg_radius allops,
    Metrics.Connectivity.preserves
      ~reference:(Baselines.Proximity.max_power pl positions)
      allops.Cbtc.Pipeline.graph )

let series_csv ~pool ~seeds buf =
  Buffer.add_string buf
    "alpha,basic_degree,basic_radius,allops_degree,allops_radius,preserved\n";
  let steps = 24 in
  for i = 2 to steps do
    let alpha =
      Stdlib.float_of_int i /. Stdlib.float_of_int steps *. Float.pi
    in
    let config = Cbtc.Config.make alpha in
    let bd = Stats.Welford.create () and br = Stats.Welford.create () in
    let ad = Stats.Welford.create () and ar = Stats.Welford.create () in
    let ok = ref 0 in
    (* trials fan out; the Welford folds below run in seed order so the
       CSV is byte-identical for every -j *)
    Array.iter
      (fun (bdv, brv, adv, arv, preserved) ->
        Stats.Welford.add bd bdv;
        Stats.Welford.add br brv;
        Stats.Welford.add ad adv;
        Stats.Welford.add ar arv;
        if preserved then incr ok)
      (Parallel.Pool.map pool (series_trial config) (Array.of_list seeds));
    Buffer.add_string buf
      (Fmt.str "%.6f,%.3f,%.2f,%.3f,%.2f,%d/%d\n" alpha
         (Stats.Welford.mean bd) (Stats.Welford.mean br)
         (Stats.Welford.mean ad) (Stats.Welford.mean ar) !ok
         (List.length seeds))
  done

let run_series ~pool ~seeds ~out_dir =
  section "Data series: degree/radius vs alpha (CSV under bench_out/)";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let seeds = match seeds with a :: b :: c :: d :: e :: _ -> [a; b; c; d; e] | l -> l in
  let path = Filename.concat out_dir "alpha_sweep.csv" in
  let buf = Buffer.create 4096 in
  series_csv ~pool ~seeds buf;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Buffer.output_buffer oc buf);
  Fmt.pr "wrote %s (alpha from pi/12 to pi, %d seeds per point)@." path
    (List.length seeds)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* Wall-clock comparison of the Geom.Grid-backed hot paths against the
   brute-force O(n²) references of test/spec_geo.ml (the differential
   oracles the test suite pins them to), at constant density (the field scales
   with n so the average degree stays at the paper's ~25.6).  Results go
   to stdout and, machine-readable, to <out>/perf.json so successive PRs
   can track the perf trajectory. *)

let sample ~inner f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to Stdlib.max 1 inner do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. Stdlib.float_of_int (Stdlib.max 1 inner)

let time_best ?(inner = 1) ~reps f =
  (* one untimed warmup so the first timed rep does not pay cold-cache /
     page-fault costs, and a compaction for a reproducible heap state;
     [inner] amortizes timer and allocator jitter for sub-millisecond
     kernels by timing a block of calls per sample *)
  ignore (Sys.opaque_identity (f ()));
  Gc.compact ();
  let best = ref Float.infinity in
  for _ = 1 to Stdlib.max 1 reps do
    let dt = sample ~inner f in
    if dt < !best then best := dt
  done;
  !best

(* Time two kernels against each other with interleaved samples: on a
   shared (and here single-core) host, background steal drifts on a
   seconds scale, so timing side A fully before side B turns that drift
   into a systematic bias.  Alternating A/B blocks inside one loop makes
   the noise hit both sides equally; best-of still filters the tail. *)
let time_pair ?(inner = 1) ~reps fa fb =
  ignore (Sys.opaque_identity (fa ()));
  ignore (Sys.opaque_identity (fb ()));
  Gc.compact ();
  let best_a = ref Float.infinity and best_b = ref Float.infinity in
  for _ = 1 to Stdlib.max 1 reps do
    let da = sample ~inner fa in
    let db = sample ~inner fb in
    if da < !best_a then best_a := da;
    if db < !best_b then best_b := db
  done;
  (!best_a, !best_b)

let run_perf_scaling ~fast ~out_dir =
  section "Spatial grid vs brute force (wall clock, constant density)";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let sizes = if fast then [ 100; 400 ] else [ 100; 1000; 10000; 100000 ] in
  let table =
    Metrics.Table.create
      ~columns:
        [ "benchmark"; "n"; "brute (s)"; "grid (s)"; "speedup"; "alloc (MB)";
          "peak RSS (MB)" ]
  in
  let rows = ref [] in
  let record bench n ~brute ~grid ~reps =
    let inner = if n <= 100 then 40 else 1 in
    let grid_s, brute_s =
      match brute with
      | Some f ->
          let g, b = time_pair ~inner ~reps grid f in
          (g, Some b)
      | None -> (time_best ~inner ~reps grid, None)
    in
    (* one dedicated untimed run for the allocation column, so timer
       and allocator accounting never mix *)
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (grid ()));
    let alloc_mb = (Gc.allocated_bytes () -. a0) /. (1024. *. 1024.) in
    let peak_rss_kb = Obs.Rss.peak_rss_kb () in
    let speedup =
      match brute_s with
      | Some b when grid_s > 0. -> Some (b /. grid_s)
      | _ -> None
    in
    let opt f = function Some v -> f v | None -> Obs.Jsonl.Null in
    let seconds s = Obs.Jsonl.Float (fixed 6 s) in
    rows :=
      Obs.Jsonl.Obj
        [
          ("bench", Obs.Jsonl.Str bench);
          ("n", Obs.Jsonl.Int n);
          ("brute_s", opt seconds brute_s);
          ("grid_s", seconds grid_s);
          ("speedup", opt (fun x -> Obs.Jsonl.Float (fixed 2 x)) speedup);
          ("peak_rss_kb", opt (fun kb -> Obs.Jsonl.Int kb) peak_rss_kb);
          ("allocations_mb", Obs.Jsonl.Float (fixed 3 alloc_mb));
        ]
      :: !rows;
    Metrics.Table.add_row table
      [
        bench;
        string_of_int n;
        (match brute_s with Some b -> Fmt.str "%.4f" b | None -> "skipped");
        Fmt.str "%.4f" grid_s;
        (match speedup with Some x -> Fmt.str "%.1fx" x | None -> "-");
        Fmt.str "%.1f" alloc_mb;
        (match peak_rss_kb with
        | Some kb -> Fmt.str "%.0f" (Stdlib.float_of_int kb /. 1024.)
        | None -> "-");
      ]
  in
  List.iter
    (fun n ->
      let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
      let sc = Workload.Scenario.make ~n ~width:side ~height:side ~seed:42 () in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      let reps = if n <= 100 then 100 else if n <= 1000 then 3 else 1 in
      let big = n > 1000 in
      (* past 10k nodes the O(n²) references take minutes to hours: the
         grid/CSR side is timed alone and brute_s stays null *)
      let huge = n > 10000 in
      let unless_huge f = if huge then None else Some f in
      record "discovery (oracle CBTC 5pi/6)" n ~reps
        ~grid:(fun () -> Cbtc.Geo.run_flat c56 pl positions)
        ~brute:(unless_huge (fun () -> Spec_geo.run c56 pl positions));
      record "max-power graph (G_R)" n ~reps
        ~grid:(fun () -> Cbtc.Geo.max_power_graph pl positions)
        ~brute:
          (unless_huge (fun () -> Spec_geo.max_power_graph pl positions));
      record "Yao k=6" n ~reps
        ~grid:(fun () -> Baselines.Yao.yao pl positions ~k:6)
        ~brute:(unless_huge (fun () -> Spec_geo.yao pl positions ~k:6));
      record "RNG baseline" n ~reps
        ~grid:(fun () -> Baselines.Proximity.rng pl positions)
        ~brute:
          (if big then None
           else Some (fun () -> Spec_geo.rng pl positions));
      let radius = Array.make n (Radio.Pathloss.max_range pl) in
      record "interference coverage" n ~reps
        ~grid:(fun () -> Metrics.Interference.coverage positions ~radius)
        ~brute:(unless_huge (fun () -> Spec_geo.coverage positions ~radius)))
    sizes;
  (* n = 1M: discovery only — the feasibility row for one machine. *)
  if not fast then begin
    let n = 1_000_000 in
    let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
    let sc = Workload.Scenario.make ~n ~width:side ~height:side ~seed:42 () in
    let pl = Workload.Scenario.pathloss sc in
    let positions = Workload.Scenario.positions sc in
    record "discovery (oracle CBTC 5pi/6)" n ~reps:1
      ~grid:(fun () -> Cbtc.Geo.run_flat c56 pl positions)
      ~brute:None
  end;
  Fmt.pr "%a@." Metrics.Table.pp table;
  write_results
    (Filename.concat out_dir "perf.json")
    ~schema:2
    ~header:[ ("unit", Obs.Jsonl.Str "seconds") ]
    ~note:
      "best-of-reps wall clock; constant-density fields (avg degree \
       ~25.6); brute_s null when the brute-force run was skipped as too \
       slow; peak_rss_kb is the process VmHWM sampled after the bench \
       (monotone across rows: a row inherits the peak of everything \
       before it); allocations_mb is Gc.allocated_bytes over one \
       dedicated run of the grid/CSR side"
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Streaming daemon capacity (writes <out>/daemon.json, schema 2)      *)
(* ------------------------------------------------------------------ *)

(* End-to-end daemon streams at constant density: the n = 10k row keeps
   the parameters of the historical capacity benchmark (1000 moves/s +
   10 % crash churn with recovery, 20 s of stream) so full_recomputes /
   events_per_s stay comparable across PRs; the n = 100k and n = 1M
   rows are the scale story — move-only streams where the incremental
   path must dominate.  wall_s covers the whole run including the
   initial from-scratch grow and the final verification pass, so
   events_per_s is an end-to-end figure, not a steady-state one. *)

let run_daemon_scaling ~pool ~fast ~out_dir =
  section "Streaming daemon capacity (end-to-end, constant density)";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let cases =
    (* (n, duration, move_rate, crash fraction) *)
    if fast then [ (2_000, 5., 200., 0.1) ]
    else
      [
        (10_000, 20., 1000., 0.1);
        (100_000, 30., 1000., 0.);
        (1_000_000, 20., 1000., 0.);
      ]
  in
  let table =
    Metrics.Table.create
      ~columns:
        [ "n"; "events"; "events/s"; "commits"; "fulls"; "incr frac";
          "regrown"; "p95 lat"; "alloc (MB)"; "peak RSS (MB)" ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, duration, move_rate, crash) ->
      let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
      let sc = Workload.Scenario.make ~n ~width:side ~height:side ~seed:42 () in
      let churn =
        if crash <= 0. then Faults.Plan.empty
        else
          Faults.Plan.random_crashes
            ~prng:(Prng.create ~seed:43)
            ~n ~fraction:crash
            ~window:(0.1 *. duration, 0.6 *. duration)
            ~recover_after:(0.25 *. duration) ()
      in
      let stream =
        {
          Daemon.Driver.seed = 42;
          field = sc.Workload.Scenario.field;
          mobility = Workload.Mobility.default_params;
          move_rate;
          storm = None;
          churn;
          positions = Workload.Scenario.positions sc;
        }
      in
      let params = { Daemon.Driver.default_params with duration } in
      let a0 = Gc.allocated_bytes () in
      let r =
        Daemon.Driver.run ~pool ~clock:Unix.gettimeofday ~params ~config:c56
          ~pathloss:(Workload.Scenario.pathloss sc)
          stream
      in
      let alloc_mb = (Gc.allocated_bytes () -. a0) /. (1024. *. 1024.) in
      let peak_rss_kb = Obs.Rss.peak_rss_kb () in
      let stats = r.Daemon.Driver.engine in
      let incr_frac =
        if stats.Daemon.Engine.commits = 0 then 1.
        else
          Stdlib.float_of_int
            (stats.Daemon.Engine.commits
            - stats.Daemon.Engine.full_recomputes)
          /. Stdlib.float_of_int stats.Daemon.Engine.commits
      in
      let report_fields =
        match
          Daemon.Driver.report_json r ~jobs:(Parallel.Pool.jobs pool)
        with
        | Obs.Jsonl.Obj kvs -> kvs
        | _ -> assert false
      in
      let row =
        Obs.Jsonl.Obj
          ([
             ("bench", Obs.Jsonl.Str "daemon stream");
             ("n", Obs.Jsonl.Int n);
             ("move_rate", Obs.Jsonl.Float move_rate);
             ("crash_frac", Obs.Jsonl.Float crash);
             ("incremental_fraction", Obs.Jsonl.Float incr_frac);
             ("allocations_mb", Obs.Jsonl.Float (fixed 3 alloc_mb));
             ( "peak_rss_kb",
               match peak_rss_kb with
               | Some kb -> Obs.Jsonl.Int kb
               | None -> Obs.Jsonl.Null );
           ]
          @ report_fields)
      in
      rows := row :: !rows;
      Metrics.Table.add_row table
        [
          string_of_int n;
          string_of_int stats.Daemon.Engine.events;
          (match r.Daemon.Driver.wall_s with
          | Some w when w > 0. ->
              Fmt.str "%.0f"
                (Stdlib.float_of_int stats.Daemon.Engine.events /. w)
          | _ -> "-");
          string_of_int stats.Daemon.Engine.commits;
          string_of_int stats.Daemon.Engine.full_recomputes;
          Fmt.str "%.3f" incr_frac;
          string_of_int stats.Daemon.Engine.regrown;
          (match r.Daemon.Driver.latency with
          | Some l -> Fmt.str "%.3f" l.Daemon.Driver.p95
          | None -> "-");
          Fmt.str "%.1f" alloc_mb;
          (match peak_rss_kb with
          | Some kb -> Fmt.str "%.0f" (Stdlib.float_of_int kb /. 1024.)
          | None -> "-");
        ])
    cases;
  Fmt.pr "%a@." Metrics.Table.pp table;
  write_results
    (Filename.concat out_dir "daemon.json")
    ~schema:2
    ~note:
      "end-to-end daemon streams at constant density (avg degree ~25.6); \
       wall_s includes the initial grow and the final verification; \
       incremental_fraction is the share of working commits served \
       without a full recompute; peak_rss_kb is the process VmHWM \
       sampled after the row (monotone across rows); allocations_mb is \
       Gc.allocated_bytes over the row's run"
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Shadowing: the 5pi/6 threshold under a non-uniform environment      *)
(* ------------------------------------------------------------------ *)

(* The alpha <= 5pi/6 connectivity guarantee is a theorem about the
   pure disc model: G_R is a unit-disc graph and every cone argument
   is geometric.  Under per-link log-normal shadowing the realized
   reachability graph G_R^env keeps no disc structure, so preservation
   becomes an empirical question.  The sweep crosses shadowing depth
   (sigma) x cone degree (alpha) x deployment density, counting the
   seeded deployments whose G_R^env connectivity CBTC preserves —
   mapping where the threshold degrades.  Writes <out>/shadowing.json
   (schema 1; test/check_artifact.exe shadowing holds its contract and
   the sigma = 0 guarantee pin, run by the @bench-smoke alias). *)

let run_shadowing ~pool ~fast ~out_dir =
  section "Shadowing: connectivity threshold under sigma x alpha x density";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let sigmas = if fast then [ 0.; 4. ] else [ 0.; 2.; 4.; 6. ] in
  let alphas =
    [ ("2pi/3", Geom.Angle.two_pi_three);
      ("5pi/6", Geom.Angle.five_pi_six);
      ("pi", Float.pi) ]
  in
  let n = if fast then 48 else 100 in
  let range = 500. in
  (* density expressed as the expected G_R degree of the disc model:
     deg = n pi R^2 / side^2, so side = sqrt (n pi R^2 / deg) *)
  let degrees = if fast then [ 12.; 28. ] else [ 8.; 16.; 32. ] in
  let trials = if fast then 6 else 30 in
  let seeds = Workload.Scenario.seeds ~base:42 ~count:trials in
  let table =
    Metrics.Table.create
      ~columns:
        [ "sigma"; "alpha"; "GR degree"; "ref conn"; "preserved"; "CBTC deg" ]
  in
  let rows = ref [] in
  List.iter
    (fun sigma ->
      List.iter
        (fun (alabel, alpha) ->
          List.iter
            (fun deg ->
              let side =
                Float.sqrt
                  (Stdlib.float_of_int n *. Float.pi *. range *. range /. deg)
              in
              let trial seed =
                let sc =
                  Workload.Scenario.make ~n ~width:side ~height:side
                    ~max_range:range ~seed ()
                in
                let pl = Workload.Scenario.pathloss sc in
                let positions = Workload.Scenario.positions sc in
                (* one shadowing draw per deployment: the shadow seed
                   follows the placement seed *)
                let env =
                  if sigma = 0. then None
                  else Some (Radio.Env.make ~sigma_db:sigma ~shadow_seed:seed pl)
                in
                let reference =
                  Baselines.Proximity.max_power ?env pl positions
                in
                let r =
                  Cbtc.Pipeline.run_oracle ?env pl positions
                    (Cbtc.Pipeline.all_ops (Cbtc.Config.make alpha))
                in
                ( Graphkit.Traversal.is_connected reference,
                  Metrics.Connectivity.preserves ~reference
                    r.Cbtc.Pipeline.graph,
                  Cbtc.Pipeline.avg_degree r )
              in
              let results =
                Parallel.Pool.map pool trial (Array.of_list seeds)
              in
              let ref_conn = ref 0 and preserved = ref 0 in
              let dsum = ref 0. in
              Array.iter
                (fun (rc, p, d) ->
                  if rc then incr ref_conn;
                  if p then incr preserved;
                  dsum := !dsum +. d)
                results;
              let frac =
                Stdlib.float_of_int !preserved /. Stdlib.float_of_int trials
              in
              let avg_deg = !dsum /. Stdlib.float_of_int trials in
              rows :=
                Obs.Jsonl.Obj
                  [
                    ("bench", Obs.Jsonl.Str "shadowing");
                    ("sigma_db", Obs.Jsonl.Float sigma);
                    ("alpha", Obs.Jsonl.Float alpha);
                    ("alpha_label", Obs.Jsonl.Str alabel);
                    ("n", Obs.Jsonl.Int n);
                    ("side", Obs.Jsonl.Float side);
                    ("target_degree", Obs.Jsonl.Float deg);
                    ("trials", Obs.Jsonl.Int trials);
                    ("ref_connected", Obs.Jsonl.Int !ref_conn);
                    ("preserved", Obs.Jsonl.Int !preserved);
                    ("preserved_frac", Obs.Jsonl.Float frac);
                    ("avg_degree", Obs.Jsonl.Float avg_deg);
                  ]
                :: !rows;
              Metrics.Table.add_row table
                [
                  Fmt.str "%g" sigma;
                  alabel;
                  Fmt.str "%g" deg;
                  Fmt.str "%d/%d" !ref_conn trials;
                  Fmt.str "%d/%d" !preserved trials;
                  Fmt.str "%.1f" avg_deg;
                ])
            degrees)
        alphas)
    sigmas;
  Fmt.pr "%a@." Metrics.Table.pp table;
  write_results
    (Filename.concat out_dir "shadowing.json")
    ~schema:1
    ~note:
      "fraction of seeded deployments whose realized reachability graph \
       G_R^env stays connected under CBTC(alpha), per (sigma_db, alpha, \
       density) cell; sigma_db = 0 is the paper's pure disc model, where \
       alpha <= 5pi/6 preserves connectivity; target_degree is the \
       expected G_R degree of the sigma = 0 disc model at that density"
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Network lifetime (writes <out>/lifetime.json, schema 1)             *)
(* ------------------------------------------------------------------ *)

(* The lifetime study the scheduler exists for: every topology family
   under identical many-to-one load, passive (every node listening,
   per-round Dijkstra — Lifetime.Schedule.passive) vs scheduled (the
   energy-aware cover-set scheduler of Lifetime.Schedule).  The radio
   is parameterized realistically — listening comparable to receiving —
   because at the library default (rx_overhead = 2000 against
   p(R) = 250000) overhearing is a rounding error and no sleeping
   discipline can matter.  Trials fan out over the pool and fold back
   in seed order, so lifetime.json is byte-identical at every -j; the
   schema and the scheduled > passive pin for the max-power and CBTC
   families are enforced by test/check_artifact.exe lifetime in the
   @bench-smoke alias. *)

let run_lifetime ~pool ~fast ~out_dir =
  section "Network lifetime: cover-set scheduler vs passive gathering";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let n = 60 in
  let trials = if fast then 5 else 10 in
  let params =
    { Lifetime.Gather.default_params with
      capacity = 5e7; rx_overhead = 40000.; max_rounds = 4000 }
  in
  let modes =
    [ ("passive", Lifetime.Schedule.passive);
      ("scheduled", Lifetime.Schedule.default_policy) ]
  in
  let seeds = Workload.Scenario.seeds ~base:42 ~count:trials in
  let table =
    Metrics.Table.create
      ~columns:
        [ "family"; "mode"; "lifetime"; "first death"; "delivered";
          "covers"; "energy/pkt" ]
  in
  let rows = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun (mode, policy) ->
          let trial seed =
            let sc = Workload.Scenario.make ~n ~seed () in
            let pl = Workload.Scenario.pathloss sc in
            let positions = Workload.Scenario.positions sc in
            (* builders run single-threaded inside each trial: the
               pool's parallelism is spent across seeds *)
            let topology = Lifetime.Schedule.family_builder family pl in
            let r =
              Lifetime.Schedule.run ~params ~policy pl positions ~sink:0
                ~topology
            in
            let o = r.Lifetime.Schedule.outcome in
            ( Lifetime.Schedule.total_lifetime r,
              (match o.Lifetime.Gather.first_death with
              | Some k -> k
              | None -> o.Lifetime.Gather.rounds_completed),
              o.Lifetime.Gather.packets_delivered,
              o.Lifetime.Gather.packets_dropped,
              r.Lifetime.Schedule.cover_sets,
              r.Lifetime.Schedule.epochs,
              r.Lifetime.Schedule.awake_node_rounds,
              r.Lifetime.Schedule.energy_per_delivered )
          in
          let results =
            Parallel.Pool.map pool trial (Array.of_list seeds)
          in
          let mean f =
            Array.fold_left (fun acc r -> acc +. f r) 0. results
            /. Stdlib.float_of_int trials
          in
          let fi = Stdlib.float_of_int in
          let lifetime = mean (fun (l, _, _, _, _, _, _, _) -> fi l) in
          let first_death = mean (fun (_, f, _, _, _, _, _, _) -> fi f) in
          let delivered = mean (fun (_, _, d, _, _, _, _, _) -> fi d) in
          let dropped = mean (fun (_, _, _, d, _, _, _, _) -> fi d) in
          let covers = mean (fun (_, _, _, _, c, _, _, _) -> fi c) in
          let epochs = mean (fun (_, _, _, _, _, e, _, _) -> fi e) in
          let awake = mean (fun (_, _, _, _, _, _, a, _) -> fi a) in
          let epd = mean (fun (_, _, _, _, _, _, _, e) -> e) in
          rows :=
            Obs.Jsonl.Obj
              [
                ("bench", Obs.Jsonl.Str "lifetime");
                ("family",
                 Obs.Jsonl.Str (Lifetime.Schedule.family_label family));
                ("mode", Obs.Jsonl.Str mode);
                ("n", Obs.Jsonl.Int n);
                ("trials", Obs.Jsonl.Int trials);
                ("capacity",
                 Obs.Jsonl.Float params.Lifetime.Gather.capacity);
                ("rx_overhead",
                 Obs.Jsonl.Float params.Lifetime.Gather.rx_overhead);
                ("rotation_period",
                 Obs.Jsonl.Int policy.Lifetime.Schedule.rotation_period);
                ("duty", Obs.Jsonl.Float policy.Lifetime.Schedule.duty);
                ("idle_listen",
                 Obs.Jsonl.Float policy.Lifetime.Schedule.idle_listen);
                ("lifetime_rounds", Obs.Jsonl.Float lifetime);
                ("first_death", Obs.Jsonl.Float first_death);
                ("delivered", Obs.Jsonl.Float delivered);
                ("dropped", Obs.Jsonl.Float dropped);
                ("cover_sets", Obs.Jsonl.Float covers);
                ("epochs", Obs.Jsonl.Float epochs);
                ("awake_node_rounds", Obs.Jsonl.Float awake);
                ("energy_per_delivered", Obs.Jsonl.Float epd);
              ]
            :: !rows;
          Metrics.Table.add_row table
            [
              Lifetime.Schedule.family_label family;
              mode;
              Fmt.str "%.1f" lifetime;
              Fmt.str "%.1f" first_death;
              Fmt.str "%.0f" delivered;
              Fmt.str "%.1f" covers;
              Fmt.str "%.3g" epd;
            ])
        modes)
    Lifetime.Schedule.families;
  Fmt.pr "%a@." Metrics.Table.pp table;
  write_results
    (Filename.concat out_dir "lifetime.json")
    ~schema:1
    ~note:
      "mean over seeded trials per (family, mode) cell; lifetime_rounds \
       is the service-rounds scalar (rounds in which at least half the \
       original non-sink population reaches the sink); first_death is \
       censored at the simulation horizon; mode = passive is per-round \
       Dijkstra routing with every node awake (rotation_period = 0), \
       mode = scheduled is the cover-set scheduler"
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Parallel scaling (domain pool)                                      *)
(* ------------------------------------------------------------------ *)

(* Times the two representative parallel shapes — trial-level fan-out
   over whole networks and node-level chunking inside one large
   discovery — at -j 1/2/4, and checks that every level produces
   bit-identical results (digest over a full-precision rendering).
   Wall-clock speedups only show on multi-core hosts; the determinism
   check is meaningful everywhere.  Writes <out>/parallel.json. *)

let run_parallel_bench ~fast ~out_dir =
  section "Parallel scaling: domain pool at -j 1/2/4 (determinism checked)";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let host_cores = Domain.recommended_domain_count () in
  let trial_seeds =
    Workload.Scenario.seeds ~base:42 ~count:(if fast then 10 else 100)
  in
  (* workload (a): Monte-Carlo sweep, one task per network *)
  let sweep_digest pool =
    let buf = Buffer.create 4096 in
    let trials =
      Parallel.Pool.map pool (fun s -> table1_trial s) (Array.of_list trial_seeds)
    in
    Array.iter
      (fun (vals, broken) ->
        List.iter
          (fun (d, r) -> Buffer.add_string buf (Fmt.str "%.17g,%.17g;" d r))
          vals;
        Buffer.add_string buf (if broken then "!" else "."))
      trials;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  (* workload (b): one large oracle discovery, chunked over nodes *)
  let n_big = if fast then 2000 else 10000 in
  let side = 1500. *. Float.sqrt (Stdlib.float_of_int n_big /. 100.) in
  let sc_big =
    Workload.Scenario.make ~n:n_big ~width:side ~height:side ~seed:42 ()
  in
  let pl_big = Workload.Scenario.pathloss sc_big in
  let pos_big = Workload.Scenario.positions sc_big in
  let discovery_digest pool =
    let d = Cbtc.Geo.run_flat ~pool c56 pl_big pos_big in
    let buf = Buffer.create (16 * n_big) in
    Array.iteri
      (fun u p ->
        Buffer.add_string buf
          (Fmt.str "%d:%.17g:%b:%d;" u p
             d.Cbtc.Discovery.boundary.(u)
             (Cbtc.Discovery.degree d u)))
      d.Cbtc.Discovery.power;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let workloads =
    [
      ( Fmt.str "monte-carlo sweep (%d networks, trial-level)"
          (List.length trial_seeds),
        sweep_digest );
      (Fmt.str "oracle discovery (n=%d, node-level)" n_big, discovery_digest);
    ]
  in
  let table =
    Metrics.Table.create
      ~columns:[ "workload"; "jobs"; "wall (s)"; "speedup"; "identical" ]
  in
  let rows = ref [] in
  let all_identical = ref true in
  List.iter
    (fun (name, run) ->
      let base_digest = ref "" and base_time = ref 0. in
      List.iter
        (fun jobs ->
          Parallel.Pool.with_pool ~jobs (fun pool ->
              let t0 = Unix.gettimeofday () in
              let digest = run pool in
              let wall = Unix.gettimeofday () -. t0 in
              if jobs = 1 then begin
                base_digest := digest;
                base_time := wall
              end;
              let identical = String.equal digest !base_digest in
              if not identical then all_identical := false;
              let speedup = if wall > 0. then !base_time /. wall else 0. in
              rows :=
                Obs.Jsonl.Obj
                  [
                    ("workload", Obs.Jsonl.Str name);
                    ("jobs", Obs.Jsonl.Int jobs);
                    ("wall_s", Obs.Jsonl.Float (fixed 6 wall));
                    ("speedup_vs_j1", Obs.Jsonl.Float (fixed 3 speedup));
                    ("identical", Obs.Jsonl.Bool identical);
                  ]
                :: !rows;
              Metrics.Table.add_row table
                [
                  name; string_of_int jobs; Fmt.str "%.3f" wall;
                  Fmt.str "%.2fx" speedup; string_of_bool identical;
                ]))
        [ 1; 2; 4 ])
    workloads;
  Fmt.pr "%a@." Metrics.Table.pp table;
  Fmt.pr
    "host cores: %d (speedup needs a multi-core host; identity must hold \
     everywhere)@."
    host_cores;
  write_results
    (Filename.concat out_dir "parallel.json")
    ~schema:1
    ~header:
      [ ("unit", Obs.Jsonl.Str "seconds"); ("host_cores", Obs.Jsonl.Int host_cores) ]
    ~note:
      "wall clock per jobs level; speedup_vs_j1 > 1 requires a multi-core \
       host; identical compares result digests against the -j 1 run"
    (List.rev !rows);
  if not !all_identical then begin
    Fmt.epr "parallel: NON-DETERMINISTIC results across jobs levels@.";
    exit 1
  end

let run_perf ~fast () =
  section "Microbenchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let sc = Workload.Scenario.paper ~seed:42 in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let d56 = Cbtc.Geo.run_flat c56 pl positions in
  let closure = Cbtc.Discovery.closure d56 in
  let dirs =
    List.init 24 (fun i -> Stdlib.float_of_int i *. Geom.Angle.two_pi /. 24.)
  in
  let dist_cfg = Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha56 in
  let tests =
    [
      Test.make ~name:"gap-test (24 dirs)"
        (Staged.stage (fun () -> Geom.Dirset.has_gap ~alpha:alpha56 dirs));
      Test.make ~name:"oracle CBTC(5pi/6), 100 nodes"
        (Staged.stage (fun () -> Cbtc.Geo.run_flat c56 pl positions));
      Test.make ~name:"shrink-back, 100 nodes"
        (Staged.stage (fun () ->
             Cbtc.Pipeline.of_discovery d56 (Cbtc.Pipeline.with_shrink c56)));
      Test.make ~name:"pairwise removal, 100 nodes"
        (Staged.stage (fun () ->
             Cbtc.Pipeline.of_discovery d56
               { (Cbtc.Pipeline.basic c56) with Cbtc.Pipeline.pairwise = `Practical }));
      Test.make ~name:"full pipeline all-ops, 100 nodes"
        (Staged.stage (fun () ->
             Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56)));
      Test.make ~name:"distributed run, 100 nodes"
        (Staged.stage (fun () -> Cbtc.Distributed.run dist_cfg pl positions));
      Test.make ~name:"components, 100 nodes"
        (Staged.stage (fun () -> Graphkit.Traversal.components closure));
    ]
  in
  let cfg =
    if fast then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some (ns :: _) when ns >= 1e6 ->
              Fmt.pr "  %-36s %8.2f ms/run@." name (ns /. 1e6)
          | Some (ns :: _) when ns >= 1e3 ->
              Fmt.pr "  %-36s %8.2f us/run@." name (ns /. 1e3)
          | Some (ns :: _) -> Fmt.pr "  %-36s %8.1f ns/run@." name ns
          | Some [] | None -> Fmt.pr "  %-36s (no estimate)@." name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let seeds_count = ref 100 in
  let out_dir = ref "bench_out" in
  let fast = ref false in
  let jobs = ref None in
  let trace_out = ref None in
  let metrics_out = ref None in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: v :: rest ->
        (match int_of_string_opt v with
        | Some k when k >= 1 -> seeds_count := k
        | Some _ | None ->
            Fmt.epr "main.exe: --seeds expects a positive integer (got %S)@." v;
            exit 2);
        parse rest
    | "--out" :: v :: rest ->
        if String.trim v = "" then (
          Fmt.epr "main.exe: --out requires a non-empty directory@.";
          exit 2);
        out_dir := v;
        parse rest
    | "--trace-out" :: v :: rest when String.trim v <> "" ->
        trace_out := Some v;
        parse rest
    | "--metrics-out" :: v :: rest when String.trim v <> "" ->
        metrics_out := Some v;
        parse rest
    | ("--trace-out" | "--metrics-out") :: _ ->
        Fmt.epr "main.exe: --trace-out/--metrics-out require a file path@.";
        exit 2
    | ("-j" | "--jobs") :: v :: rest ->
        (match int_of_string_opt v with
        | Some j when j >= 1 && j <= 1024 -> jobs := Some j
        | Some _ | None ->
            Fmt.epr "main.exe: -j expects an integer in [1, 1024] (got %S)@."
              v;
            exit 2);
        parse rest
    | "--fast" :: rest ->
        seeds_count := 10;
        fast := true;
        parse rest
    | s :: rest ->
        sections := s :: !sections;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs =
    match !jobs with
    | Some j -> j
    | None -> (
        try Parallel.Pool.default_jobs ()
        with Invalid_argument msg ->
          Fmt.epr "main.exe: %s@." msg;
          exit 2)
  in
  let seeds = Workload.Scenario.seeds ~base:42 ~count:!seeds_count in
  let fast = !fast and out_dir = !out_dir in
  (* Every section, in run order: the loop at the end dispatches on
     these names and the check below rejects any other. *)
  let all_sections =
    [
      ("table1", fun pool obs -> run_table1 ~pool ~obs ~seeds);
      ("figures", fun _ _ -> run_figures ());
      ("figure6", fun _ _ -> run_figure6 ~out_dir);
      ( "connectivity",
        fun pool _ ->
          run_connectivity ~pool
            ~seeds:
              (Workload.Scenario.seeds ~base:42
                 ~count:(Stdlib.min 30 !seeds_count)) );
      ("ablations", fun pool _ -> run_ablations ~pool ~seeds);
      ("extensions", fun _ _ -> run_extensions ~seeds);
      ("series", fun pool _ -> run_series ~pool ~seeds ~out_dir);
      ("parallel", fun _ _ -> run_parallel_bench ~fast ~out_dir);
      ("daemon", fun pool _ -> run_daemon_scaling ~pool ~fast ~out_dir);
      ("shadowing", fun pool _ -> run_shadowing ~pool ~fast ~out_dir);
      ("lifetime", fun pool _ -> run_lifetime ~pool ~fast ~out_dir);
      ( "perf",
        fun _ _ ->
          run_perf_scaling ~fast ~out_dir;
          run_perf ~fast () );
    ]
  in
  List.iter
    (fun s ->
      if not (List.mem_assoc s all_sections) then begin
        Fmt.epr "main.exe: unknown section %S (valid sections: %s)@." s
          (String.concat " " (List.map fst all_sections));
        exit 2
      end)
    (List.rev !sections);
  let want s = !sections = [] || List.mem s !sections in
  Fmt.pr "CBTC reproduction benchmarks (%d networks per table, -j %d)@."
    !seeds_count jobs;
  (* Observability sinks open before any benchmark runs, so a bad path
     fails in milliseconds.  The harness recorder is clocked: this
     binary exists to measure time, so spans carry durations and the
     pool records task latencies (at the price of non-reproducible
     trace bytes — the CLI is the reproducible surface). *)
  let open_sink = function
    | None -> None
    | Some path -> (
        try Some (open_out path)
        with Sys_error e ->
          Fmt.epr "main.exe: cannot open output file: %s@." e;
          exit 2)
  in
  let trace_oc = open_sink !trace_out in
  let metrics_oc = open_sink !metrics_out in
  let obs =
    match (trace_oc, metrics_oc) with
    | None, None -> Obs.Recorder.nil
    | _ -> Obs.Recorder.create ~clock:Unix.gettimeofday ()
  in
  Obs.Recorder.set_str obs "command" "bench";
  Obs.Recorder.set_int obs "seeds" !seeds_count;
  Obs.Recorder.set_int obs "jobs" jobs;
  Obs.Recorder.set obs "fast" (Obs.Jsonl.Bool fast);
  Obs.Recorder.set_str obs "sections"
    (match !sections with [] -> "all" | l -> String.concat "," (List.rev l));
  let pool = Parallel.Pool.create ~obs ~jobs () in
  let sect name f = Obs.Recorder.span obs name f in
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.shutdown pool;
      (* VmHWM is a process-lifetime high-water mark, so sampling once
         at write time covers every section that ran *)
      Obs.Recorder.set obs "peak_rss_kb"
        (match Obs.Rss.peak_rss_kb () with
        | Some kb -> Obs.Jsonl.Int kb
        | None -> Obs.Jsonl.Null);
      Option.iter
        (fun oc ->
          Obs.Recorder.write_trace obs oc;
          close_out oc)
        trace_oc;
      Option.iter
        (fun oc ->
          Obs.Recorder.write_summary obs oc;
          close_out oc)
        metrics_oc)
    (fun () ->
      List.iter
        (fun (name, run) -> if want name then sect name (fun () -> run pool obs))
        all_sections);
  Fmt.pr "@.done.@."
