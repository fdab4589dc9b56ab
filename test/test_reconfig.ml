(* Tests for Section 4: NDP beaconing, join/leave/aChange events, and the
   reconfiguration guarantee — once changes stop, the maintained topology
   preserves the connectivity of the new G_R. *)

let alpha56 = Geom.Angle.five_pi_six

let growth = Cbtc.Config.Double 100.

let config = Cbtc.Config.make ~growth alpha56

let live_gr rc pl positions =
  let n = Array.length positions in
  let g = Graphkit.Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if
        Cbtc.Reconfig.alive rc u && Cbtc.Reconfig.alive rc v
        && Radio.Pathloss.in_range pl
             ~dist:(Geom.Vec2.dist positions.(u) positions.(v))
      then Graphkit.Ugraph.add_edge g u v
    done
  done;
  g

let settle rc =
  (* several beacon timeouts plus slack for any triggered re-growth *)
  Cbtc.Reconfig.run_for rc ~duration:400.

let test_initial_run_preserves () =
  let sc = Workload.Scenario.make ~n:50 ~seed:21 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  let gr = Cbtc.Geo.max_power_graph pl positions in
  Alcotest.(check bool) "initial topology preserves GR" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Reconfig.topology rc));
  Alcotest.(check int) "no events before beacons run" 0
    (List.length (Cbtc.Reconfig.events rc))

let test_stable_network_is_quiet () =
  (* With nothing moving, beacons must cause no events and no topology
     change (the join/aChange churn guard). *)
  let sc = Workload.Scenario.make ~n:40 ~seed:22 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  let before = Cbtc.Reconfig.topology rc in
  Cbtc.Reconfig.run_for rc ~duration:300.;
  let leaves =
    List.filter
      (fun e -> e.Cbtc.Reconfig.kind = Cbtc.Reconfig.Leave)
      (Cbtc.Reconfig.events rc)
  in
  Alcotest.(check int) "no spurious leaves" 0 (List.length leaves);
  Alcotest.(check bool) "quiescent" true (Cbtc.Reconfig.quiescent rc ~for_:200.);
  Alcotest.(check bool) "topology unchanged" true
    (Graphkit.Ugraph.equal before (Cbtc.Reconfig.topology rc))

let test_crash_triggers_leave_and_recovery () =
  let sc = Workload.Scenario.make ~n:50 ~seed:23 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  Cbtc.Reconfig.crash rc 0;
  Cbtc.Reconfig.crash rc 1;
  settle rc;
  let leaves_about_dead =
    List.filter
      (fun e ->
        e.Cbtc.Reconfig.kind = Cbtc.Reconfig.Leave
        && (e.Cbtc.Reconfig.about = 0 || e.Cbtc.Reconfig.about = 1))
      (Cbtc.Reconfig.events rc)
  in
  Alcotest.(check bool) "leave events observed" true (leaves_about_dead <> []);
  let gr = live_gr rc pl positions in
  Alcotest.(check bool) "post-crash topology preserves live GR" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Reconfig.topology rc))

let test_mobility_preserves_connectivity () =
  let sc = Workload.Scenario.make ~n:50 ~seed:24 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  (* teleport a third of the nodes to fresh uniform spots, then settle *)
  let prng = Prng.create ~seed:2024 in
  for u = 0 to 15 do
    Cbtc.Reconfig.set_position rc u
      (Geom.Vec2.make (Prng.float prng 1500.) (Prng.float prng 1500.))
  done;
  settle rc;
  let moved = Cbtc.Reconfig.positions rc in
  let gr = live_gr rc pl moved in
  Alcotest.(check bool) "post-move topology preserves new GR" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Reconfig.topology rc));
  Alcotest.(check bool) "events were generated" true
    (Cbtc.Reconfig.events rc <> [])

let test_partition_heal () =
  (* Two clusters out of range discover each other after moving close:
     the Section 4 beacon-power rule (beacon at the basic power, P for
     boundary nodes) is what makes the join detectable. *)
  let pl = Radio.Pathloss.make ~max_range:100. () in
  let cluster cx =
    List.init 4 (fun i ->
        Geom.Vec2.make (cx +. (Stdlib.float_of_int i *. 20.)) 0.)
  in
  let positions = Array.of_list (cluster 0. @ cluster 1000.) in
  let rc = Cbtc.Reconfig.create config pl positions in
  Alcotest.(check int) "two components initially" 2
    (Metrics.Connectivity.nb_components (Cbtc.Reconfig.topology rc));
  (* move the second cluster next to the first *)
  for i = 4 to 7 do
    let p = Cbtc.Reconfig.positions rc in
    Cbtc.Reconfig.set_position rc i
      (Geom.Vec2.make (p.(i).Geom.Vec2.x -. 850.) 40.)
  done;
  settle rc;
  let joins =
    List.filter
      (fun e -> e.Cbtc.Reconfig.kind = Cbtc.Reconfig.Join)
      (Cbtc.Reconfig.events rc)
  in
  Alcotest.(check bool) "join events observed" true (joins <> []);
  Alcotest.(check int) "healed into one component" 1
    (Metrics.Connectivity.nb_components (Cbtc.Reconfig.topology rc))

let test_achange_detected () =
  (* Rotate one neighbor around another by a large angle while keeping it
     in range: an aChange event must fire. *)
  let pl = Radio.Pathloss.make ~max_range:100. () in
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 50. 0.; Geom.Vec2.make (-50.) 0.;
       Geom.Vec2.make 0. 50. |]
  in
  let rc = Cbtc.Reconfig.create config pl positions in
  Cbtc.Reconfig.run_for rc ~duration:50.;
  Cbtc.Reconfig.set_position rc 1 (Geom.Vec2.make 0. (-50.));
  settle rc;
  let achanges =
    List.filter
      (fun e ->
        e.Cbtc.Reconfig.kind = Cbtc.Reconfig.Achange
        && e.Cbtc.Reconfig.about = 1)
      (Cbtc.Reconfig.events rc)
  in
  Alcotest.(check bool) "aChange observed" true (achanges <> [])

let test_node_failure_mid_mobility () =
  let sc = Workload.Scenario.make ~n:40 ~seed:26 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  let prng = Prng.create ~seed:77 in
  for u = 0 to 9 do
    Cbtc.Reconfig.set_position rc u
      (Geom.Vec2.make (Prng.float prng 1500.) (Prng.float prng 1500.))
  done;
  Cbtc.Reconfig.run_for rc ~duration:40.;
  Cbtc.Reconfig.crash rc 10;
  Cbtc.Reconfig.crash rc 11;
  Cbtc.Reconfig.crash rc 12;
  settle rc;
  let gr = live_gr rc pl (Cbtc.Reconfig.positions rc) in
  Alcotest.(check bool) "preserves after combined churn" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Reconfig.topology rc))

let test_discovery_snapshot () =
  let sc = Workload.Scenario.make ~n:30 ~seed:27 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  let d = Cbtc.Reconfig.discovery rc in
  Alcotest.(check int) "node count" 30 (Cbtc.Discovery.nb_nodes d);
  (* snapshot agrees with the one-shot distributed protocol run *)
  let oneshot = Cbtc.Distributed.run config pl positions in
  for u = 0 to 29 do
    Alcotest.(check (list int))
      (Fmt.str "N(%d)" u)
      (Cbtc.Discovery.neighbor_ids oneshot.Cbtc.Distributed.discovery u)
      (Cbtc.Discovery.neighbor_ids d u)
  done

let test_lossy_beacons_still_converge () =
  (* Section 4's asynchronous model: beacons and protocol messages can be
     lost.  Occasional spurious leaves are repaired by re-growth and the
     next heard beacon; after settling, connectivity must be preserved. *)
  let sc = Workload.Scenario.make ~n:40 ~seed:28 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let channel = Dsim.Channel.make ~loss:0.1 () in
  let rc =
    Cbtc.Reconfig.create ~channel ~seed:7
      ~params:{ Cbtc.Reconfig.default_params with hello_repeats = 3 }
      config pl positions
  in
  Cbtc.Reconfig.run_for rc ~duration:600.;
  let gr = live_gr rc pl (Cbtc.Reconfig.positions rc) in
  Alcotest.(check bool) "lossy NDP preserves connectivity" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Reconfig.topology rc))

let test_mass_crash_recovery () =
  (* Kill a third of the network at once; the survivors must reconverge
     to a topology preserving the survivors' GR partition. *)
  let sc = Workload.Scenario.make ~n:45 ~seed:29 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let rc = Cbtc.Reconfig.create config pl positions in
  for u = 0 to 14 do
    Cbtc.Reconfig.crash rc u
  done;
  settle rc;
  let gr = live_gr rc pl (Cbtc.Reconfig.positions rc) in
  Alcotest.(check bool) "survivors preserve their GR" true
    (Metrics.Connectivity.preserves ~reference:gr (Cbtc.Reconfig.topology rc));
  (* crashed nodes appear isolated in the snapshot *)
  let topo = Cbtc.Reconfig.topology rc in
  for u = 0 to 14 do
    Alcotest.(check int) (Fmt.str "dead %d isolated" u) 0
      (Graphkit.Ugraph.degree topo u)
  done

let test_create_validation () =
  let pl = Radio.Pathloss.make ~max_range:100. () in
  let positions = [| Geom.Vec2.zero |] in
  Alcotest.check_raises "Exact rejected"
    (Invalid_argument
       "Reconfig: Exact growth needs global knowledge; use Double or Mult")
    (fun () ->
      ignore (Cbtc.Reconfig.create (Cbtc.Config.make alpha56) pl positions));
  Alcotest.check_raises "bad params" (Invalid_argument "Reconfig.create: bad params")
    (fun () ->
      ignore
        (Cbtc.Reconfig.create
           ~params:{ Cbtc.Reconfig.default_params with beacon_interval = 0. }
           config pl positions))

let test_radial_reach_flip () =
  (* Regression: a move that keeps a neighbor's direction unchanged but
     carries it beyond reach at the observer's current power must be
     handled as a leave+join (the link's power class flipped), not a
     silent neighbor-set refresh.  Node 1 moves radially away from node
     0 — its direction from node 0 stays exactly 0, so no aChange can
     fire — from distance 100 to 200.  Node 0's converged power (at
     most 12800, the first Double-100 step past p(100) = 10000) no
     longer reaches it, yet node 1's beacons (sent at its basic power,
     51200) still arrive and keep refreshing the timeout. *)
  let pl = Radio.Pathloss.make ~max_range:500. () in
  let positions =
    [| Geom.Vec2.zero; Geom.Vec2.make 100. 0.;
       Geom.Vec2.make (-50.) 86.6; Geom.Vec2.make (-50.) (-86.6) |]
  in
  let rc = Cbtc.Reconfig.create config pl positions in
  Cbtc.Reconfig.run_for rc ~duration:50.;
  let t0 = Cbtc.Reconfig.now rc in
  Cbtc.Reconfig.set_position rc 1 (Geom.Vec2.make 200. 0.);
  settle rc;
  let observed k =
    List.exists
      (fun e ->
        e.Cbtc.Reconfig.time > t0 && e.Cbtc.Reconfig.node = 0
        && e.Cbtc.Reconfig.about = 1 && e.Cbtc.Reconfig.kind = k)
      (Cbtc.Reconfig.events rc)
  in
  Alcotest.(check bool) "leave observed at node 0" true
    (observed Cbtc.Reconfig.Leave);
  Alcotest.(check bool) "join observed at node 0" true
    (observed Cbtc.Reconfig.Join);
  let d = Cbtc.Reconfig.discovery rc in
  Alcotest.(check bool) "node 0's power reaches the new distance" true
    (d.Cbtc.Discovery.power.(0)
     >= Radio.Pathloss.power_for_distance pl 200.);
  (match Cbtc.Reconfig.check_stable rc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check_stable: %s" e)

let prop_recovery_converges_any_schedule =
  (* Under any tie-break seed, a crashed-then-recovered node's cone
     coverage reconverges within the watchdog bound (the [settle]
     duration): either it is a boundary node or its alpha-gap is
     closed, and the whole network passes the surviving-set checks. *)
  QCheck.Test.make ~count:15
    ~name:"recovered cone converges under every tie-break seed"
    QCheck.(pair (int_bound 9999) (int_bound 24))
    (fun (seed, victim) ->
      let sc = Workload.Scenario.make ~n:25 ~seed:31 () in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      let rc =
        Cbtc.Reconfig.create ~policy:(Dsim.Eventq.Seeded seed) config pl
          positions
      in
      Cbtc.Reconfig.crash rc victim;
      Cbtc.Reconfig.run_for rc ~duration:100.;
      Cbtc.Reconfig.recover rc victim;
      settle rc;
      (match Cbtc.Reconfig.check_stable rc with
      | Ok () -> ()
      | Error e ->
          QCheck.Test.fail_reportf "seed %d victim %d: check_stable: %s"
            seed victim e);
      let d = Cbtc.Reconfig.discovery rc in
      Cbtc.Reconfig.alive rc victim
      && (d.Cbtc.Discovery.boundary.(victim)
         || not (Cbtc.Discovery.has_gap d victim)))

let test_crash_mid_growth_stops_stepping () =
  (* A node crashed in the middle of a regrowth sends nothing more and
     takes no further power step: every growth callback checks that its
     node is alive.  The window stays below the NDP timeout, so no peer
     sees a leave and regrows in it. *)
  let sc = Workload.Scenario.make ~n:30 ~seed:32 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let obs = Obs.Recorder.create () in
  let rc = Cbtc.Reconfig.create ~obs config pl positions in
  let v = 7 in
  Cbtc.Reconfig.crash rc v;
  Cbtc.Reconfig.recover rc v;
  Cbtc.Reconfig.run_for rc ~duration:1.2;
  Cbtc.Reconfig.crash rc v;
  let count name = Obs.Recorder.counter obs name in
  let hellos = count "msg.hello" and steps = count "protocol.power_steps" in
  Cbtc.Reconfig.run_for rc ~duration:25.;
  Alcotest.(check int) "no hello after the crash" hellos (count "msg.hello");
  Alcotest.(check int) "no power step after the crash" steps
    (count "protocol.power_steps")

let prop_bootstrap_is_one_distributed_run =
  (* The bootstrap inside [create] is one distributed CBTC(alpha) run to
     convergence: its snapshot is the centralized oracle's, and it sends
     exactly the hellos and acks [Distributed.run] sends on the same
     network (the Remove phase adds no hello or ack). *)
  QCheck.Test.make ~count:40
    ~name:"bootstrap equals the oracle and Distributed.run's hello/ack counts"
    QCheck.(quad (int_bound 9999) (int_range 20 50) bool bool)
    (fun (seed, n, narrow, mult) ->
      let alpha = if narrow then Geom.Angle.two_pi_three else alpha56 in
      let growth =
        if mult then Cbtc.Config.Mult { p0 = 50.; factor = 1.7 }
        else Cbtc.Config.Double 100.
      in
      let config = Cbtc.Config.make ~growth alpha in
      let sc = Workload.Scenario.make ~n ~seed () in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      let rc_obs = Obs.Recorder.create () in
      let rc = Cbtc.Reconfig.create ~obs:rc_obs config pl positions in
      let run_obs = Obs.Recorder.create () in
      ignore (Cbtc.Distributed.run ~obs:run_obs config pl positions);
      (match
         Cbtc.Verify.discovery_equal
           ~oracle:(Cbtc.Geo.run_flat config pl positions)
           (Cbtc.Reconfig.discovery rc)
       with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "seed %d n %d: %s" seed n e);
      List.for_all
        (fun name ->
          Obs.Recorder.counter rc_obs name = Obs.Recorder.counter run_obs name)
        [ "msg.hello"; "msg.ack" ])

let () =
  Alcotest.run "reconfig"
    [
      ( "steady-state",
        [
          Alcotest.test_case "initial run preserves" `Quick test_initial_run_preserves;
          Alcotest.test_case "stable network is quiet" `Quick test_stable_network_is_quiet;
          Alcotest.test_case "discovery snapshot" `Quick test_discovery_snapshot;
          QCheck_alcotest.to_alcotest prop_bootstrap_is_one_distributed_run;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash triggers leave and recovery" `Quick
            test_crash_triggers_leave_and_recovery;
          Alcotest.test_case "failure during mobility" `Quick
            test_node_failure_mid_mobility;
          Alcotest.test_case "mass crash recovery" `Quick test_mass_crash_recovery;
          Alcotest.test_case "lossy beacons converge" `Quick
            test_lossy_beacons_still_converge;
          Alcotest.test_case "crash mid-growth stops stepping" `Quick
            test_crash_mid_growth_stops_stepping;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "mobility preserves connectivity" `Quick
            test_mobility_preserves_connectivity;
          Alcotest.test_case "partition heal" `Quick test_partition_heal;
          Alcotest.test_case "aChange detected" `Quick test_achange_detected;
          Alcotest.test_case "radial reach flip" `Quick test_radial_reach_flip;
        ] );
      ( "schedules",
        [ QCheck_alcotest.to_alcotest prop_recovery_converges_any_schedule ] );
      ("validation", [ Alcotest.test_case "create" `Quick test_create_validation ]);
    ]
