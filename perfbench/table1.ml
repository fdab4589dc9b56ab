(* One Table 1 trial of the paper: a random network of the paper's
   scenario (100 nodes, 1500 x 1500, R = 500) evaluated under the eight
   pipeline configurations of Table 1 and the max-power baseline, plus
   the all-ops 5pi/6 connectivity check.  The calls and their order are
   those of the reproduction harness ([bench/main.exe table1]), so the
   sweep workload times the reproduction itself.  The bench-side spans
   ([proximity.max_power], [pipeline], [connectivity]) are no-ops under
   [Obs.Recorder.nil]. *)

let c56 = Cbtc.Config.make Geom.Angle.five_pi_six

let c23 = Cbtc.Config.make Geom.Angle.two_pi_three

(* Table 1 rows in the reproduction's order; the max-power row follows. *)
let plans =
  Cbtc.Pipeline.
    [
      basic c56;
      basic c23;
      with_shrink c56;
      with_shrink c23;
      shrink_asym c23;
      { (basic c23) with asym = true };
      all_ops c56;
      all_ops c23;
    ]

(* Geo.run calls per network: one per plan, plus the all-ops check. *)
let discoveries = List.length plans + 1

(* Proximity.max_power calls per network: G_R and the max-power row. *)
let max_power_calls = 2

(* [trial ?obs seed] is the (degree, radius) of every row for the
   network drawn from [seed], and whether the all-ops 5pi/6 topology
   broke G_R connectivity. *)
let trial ?(obs = Obs.Recorder.nil) seed =
  let sc = Workload.Scenario.paper ~seed in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let max_power () =
    Obs.Recorder.span obs "proximity.max_power" (fun () ->
        Baselines.Proximity.max_power pl positions)
  in
  let oracle plan =
    Obs.Recorder.span obs "pipeline" (fun () ->
        Cbtc.Pipeline.run_oracle ~obs pl positions plan)
  in
  let gr = max_power () in
  let vals =
    List.map
      (fun plan ->
        let r = oracle plan in
        (Cbtc.Pipeline.avg_degree r, Cbtc.Pipeline.avg_radius r))
      plans
  in
  let vals =
    vals
    @ [ (Metrics.Topo_metrics.avg_degree (max_power ()),
         Radio.Pathloss.max_range pl) ]
  in
  let all56 = oracle (Cbtc.Pipeline.all_ops c56) in
  let preserved =
    Obs.Recorder.span obs "connectivity" (fun () ->
        Metrics.Connectivity.preserves ~reference:gr all56.Cbtc.Pipeline.graph)
  in
  (vals, not preserved)
