(* The paper's 2pi/3-vs-5pi/6 trade-off (Sections 3.2 and 5), node by
   node:

   - the basic algorithm converges at lower power for alpha = 5pi/6
     (p_{u,5pi/6} <= p_{u,2pi/3}: a bigger cone is easier to cover);
   - but the radius u must actually serve can be larger at 5pi/6,
     because the symmetric closure adds incoming edges that asymmetric
     removal (only sound at 2pi/3) would have deleted;
   - after all optimizations the two are nearly tied, with second-order
     advantages to 5pi/6 (fewer growth rounds, so cheaper to construct
     and reconfigure).

   Run with: dune exec examples/alpha_tradeoff.exe *)

let () =
  let scenario = Workload.Scenario.paper ~seed:77 in
  let pathloss = Workload.Scenario.pathloss scenario in
  let positions = Workload.Scenario.positions scenario in
  let c56 = Cbtc.Config.make Geom.Angle.five_pi_six in
  let c23 = Cbtc.Config.make Geom.Angle.two_pi_three in
  let d56 = Cbtc.Geo.run_flat c56 pathloss positions in
  let d23 = Cbtc.Geo.run_flat c23 pathloss positions in
  let n = Array.length positions in

  (* claim 1: per-node convergence power is monotone in alpha *)
  let holds = ref 0 in
  for u = 0 to n - 1 do
    if d56.Cbtc.Discovery.power.(u) <= d23.Cbtc.Discovery.power.(u) +. 1e-9
    then incr holds
  done;
  let avg p = Array.fold_left ( +. ) 0. p /. Stdlib.float_of_int n in
  Fmt.pr "p(u, 5pi/6) <= p(u, 2pi/3) for %d/%d nodes (avg %.0f vs %.0f)@."
    !holds n
    (avg d56.Cbtc.Discovery.power)
    (avg d23.Cbtc.Discovery.power);

  (* claim 2: after the closure, the larger alpha can still demand a
     larger serving radius — and asymmetric removal at 2pi/3 undoes it *)
  let serve d = Cbtc.Discovery.radius_in d (Cbtc.Discovery.closure d) in
  let core23 = Cbtc.Discovery.radius_in d23 (Cbtc.Discovery.core d23) in
  Fmt.pr
    "serving radius (basic closure): 5pi/6 avg %.1f vs 2pi/3 avg %.1f; \
     2pi/3 after asymmetric removal: %.1f@."
    (Metrics.Topo_metrics.avg_radius (serve d56))
    (Metrics.Topo_metrics.avg_radius (serve d23))
    (Metrics.Topo_metrics.avg_radius core23);

  (* claim 3: with all optimizations, a near tie *)
  let all56 = Cbtc.Pipeline.run_oracle pathloss positions (Cbtc.Pipeline.all_ops c56) in
  let all23 = Cbtc.Pipeline.run_oracle pathloss positions (Cbtc.Pipeline.all_ops c23) in
  Fmt.pr "all optimizations: degree %.1f vs %.1f, radius %.1f vs %.1f@."
    (Cbtc.Pipeline.avg_degree all56) (Cbtc.Pipeline.avg_degree all23)
    (Cbtc.Pipeline.avg_radius all56) (Cbtc.Pipeline.avg_radius all23);

  (* claim 4: the secondary advantage — fewer growth rounds at 5pi/6 *)
  let rounds config =
    let growth = Cbtc.Config.Double 100. in
    let o =
      Cbtc.Distributed.run
        (Cbtc.Config.make ~growth config.Cbtc.Config.alpha)
        pathloss positions
    in
    (o.Cbtc.Distributed.stats.Cbtc.Distributed.max_rounds,
     o.Cbtc.Distributed.stats.Cbtc.Distributed.transmissions)
  in
  let r56, tx56 = rounds c56 and r23, tx23 = rounds c23 in
  Fmt.pr
    "distributed construction: max rounds %d vs %d, transmissions %d vs %d \
     (5pi/6 terminates sooner, as Section 5 notes)@."
    r56 r23 tx56 tx23
