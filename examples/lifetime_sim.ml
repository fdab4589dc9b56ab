(* Network lifetime under data gathering: the paper's motivating claim
   ("network protocols that minimize energy consumption are key to
   wireless sensor networks") made quantitative.

   Every round each sensor reports one packet to a sink; transmission
   costs depend on the node's configured power (its topology radius) and
   bystanders inside the transmission disk pay overhearing costs.  We
   compare no-topology-control against CBTC with all optimizations.

   Run with: dune exec examples/lifetime_sim.exe *)

let () =
  let scenario = Workload.Scenario.make ~n:80 ~seed:61 () in
  let pathloss = Workload.Scenario.pathloss scenario in
  let positions = Workload.Scenario.positions scenario in
  (* sink: node closest to the field center *)
  let center = Geom.Vec2.make 750. 750. in
  let sink = ref 0 in
  Array.iteri
    (fun u p ->
      if Geom.Vec2.dist p center < Geom.Vec2.dist positions.(!sink) center then
        sink := u)
    positions;
  Fmt.pr "80 sensors, sink = node %d (center-most); one report per node per \
          round@.@."
    !sink;

  let params =
    { Lifetime.Gather.default_params with max_rounds = 4000 }
  in
  let table =
    Metrics.Table.create
      ~columns:
        [ "topology"; "first death"; "half dead"; "sink partition";
          "packets delivered"; "deaths" ]
  in
  let show = function None -> ">end" | Some r -> string_of_int r in
  let run name topology =
    let o =
      (Lifetime.Schedule.run ~params pathloss positions ~sink:!sink ~topology)
        .Lifetime.Schedule.outcome
    in
    Metrics.Table.add_row table
      [
        name;
        show o.Lifetime.Gather.first_death;
        show o.Lifetime.Gather.half_dead;
        show o.Lifetime.Gather.sink_partition;
        string_of_int o.Lifetime.Gather.packets_delivered;
        string_of_int (List.length o.Lifetime.Gather.deaths);
      ];
    o
  in
  let base = run "max power" (Lifetime.Gather.max_power_builder pathloss) in
  let c56 = Cbtc.Config.make Geom.Angle.five_pi_six in
  let c23 = Cbtc.Config.make Geom.Angle.two_pi_three in
  let cbtc =
    run "CBTC all ops 5pi/6"
      (Lifetime.Gather.cbtc_builder (Cbtc.Pipeline.all_ops c56) pathloss)
  in
  ignore
    (run "CBTC all ops 2pi/3"
       (Lifetime.Gather.cbtc_builder (Cbtc.Pipeline.all_ops c23) pathloss));
  ignore
    (run "CBTC basic 5pi/6"
       (Lifetime.Gather.cbtc_builder (Cbtc.Pipeline.basic c56) pathloss));
  Fmt.pr "%a@." Metrics.Table.pp table;

  let ratio a b =
    match (a, b) with
    | Some x, Some y -> Fmt.str "%.1fx" (Stdlib.float_of_int x /. Stdlib.float_of_int y)
    | _ -> "n/a"
  in
  Fmt.pr "CBTC extends time-to-first-death by %s and delivers %.1fx the \
          packets before the sink is cut off.@."
    (ratio cbtc.Lifetime.Gather.first_death base.Lifetime.Gather.first_death)
    (Stdlib.float_of_int cbtc.Lifetime.Gather.packets_delivered
    /. Stdlib.float_of_int base.Lifetime.Gather.packets_delivered);

  (* Interference view of the same story. *)
  let n = Array.length positions in
  let full =
    Metrics.Interference.coverage positions ~radius:(Array.make n 500.)
  in
  let r = Cbtc.Pipeline.run_oracle pathloss positions (Cbtc.Pipeline.all_ops c56) in
  let thin =
    Metrics.Interference.coverage positions ~radius:r.Cbtc.Pipeline.radius
  in
  Fmt.pr "@.interference (nodes disturbed per transmission): max power %.1f \
          avg -> CBTC %.1f avg (%.0fx quieter)@."
    full.Metrics.Interference.avg_coverage thin.Metrics.Interference.avg_coverage
    (full.Metrics.Interference.avg_coverage
    /. Float.max 0.01 thin.Metrics.Interference.avg_coverage)
