(* Tests for the fault-injection subsystem (Faults.Plan / Faults.Inject),
   the network-level fault surface (recover, hooks, per-link loss, drop
   accounting, the grid-after-crash regression), the hardened distributed
   protocol under burst loss and crash schedules, and the surviving /
   degradation verifiers. *)

let alpha56 = Geom.Angle.five_pi_six

let alpha23 = Geom.Angle.two_pi_three

let growth = Cbtc.Config.Double 100.

let scenario ~n ~seed =
  let sc = Workload.Scenario.make ~n ~seed () in
  (Workload.Scenario.pathloss sc, Workload.Scenario.positions sc)

(* ---------- Net fault surface ---------- *)

let pl = Radio.Pathloss.make ~max_range:100. ()

let line_positions =
  [| Geom.Vec2.make 0. 0.; Geom.Vec2.make 10. 0.; Geom.Vec2.make 50. 0.;
     Geom.Vec2.make 150. 0. |]

let make_net ?(channel = Dsim.Channel.reliable) () =
  let sim = Dsim.Sim.create () in
  let net =
    Airnet.Net.create ~sim ~pathloss:pl ~channel ~prng:(Prng.create ~seed:5)
      ~positions:line_positions ()
  in
  (sim, net)

let collect net =
  let log = ref [] in
  for u = 0 to Airnet.Net.nb_nodes net - 1 do
    Airnet.Net.set_handler net u (fun r -> log := r :: !log)
  done;
  log

let dsts log = List.sort Int.compare (List.map (fun r -> r.Airnet.Net.dst) !log)

let test_recover_restores_delivery () =
  let sim, net = make_net () in
  let log = collect net in
  Airnet.Net.crash net 1;
  ignore (Airnet.Net.bcast net ~src:0 ~power:2500. "while-dead");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check (list int)) "dead node misses the bcast" [ 2 ] (dsts log);
  Airnet.Net.recover net 1;
  Alcotest.(check bool) "alive again" true (Airnet.Net.is_alive net 1);
  log := [];
  ignore (Airnet.Net.bcast net ~src:0 ~power:2500. "after-recover");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check (list int)) "recovered node hears again" [ 1; 2 ] (dsts log)

let test_fault_hooks_fire_on_transitions () =
  let _, net = make_net () in
  let seen = ref [] in
  Airnet.Net.on_fault net (fun ev -> seen := ev :: !seen);
  Airnet.Net.crash net 1;
  Airnet.Net.crash net 1;
  (* idempotent: no second event *)
  Airnet.Net.recover net 1;
  Airnet.Net.recover net 1;
  Airnet.Net.recover net 2;
  (* live node: no event *)
  match List.rev !seen with
  | [ Airnet.Net.Crashed 1; Airnet.Net.Recovered 1 ] -> ()
  | l -> Alcotest.failf "expected [Crashed 1; Recovered 1], got %d events"
           (List.length l)

let test_link_loss_asymmetric () =
  let sim, net = make_net () in
  let log = collect net in
  Airnet.Net.set_link_loss net ~src:0 ~dst:1 ~loss:1.;
  Alcotest.(check bool) "readback" true
    (Airnet.Net.link_loss net ~src:0 ~dst:1 = 1.);
  Alcotest.(check bool) "reverse unset" true
    (Airnet.Net.link_loss net ~src:1 ~dst:0 = 0.);
  ignore (Airnet.Net.bcast net ~src:0 ~power:2500. "fwd");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check (list int)) "0->1 severed, 0->2 fine" [ 2 ] (dsts log);
  Alcotest.(check int) "one drop" 1 (Airnet.Net.drops net);
  log := [];
  (* the reverse direction still works: asymmetric by construction *)
  ignore (Airnet.Net.send net ~src:1 ~dst:0 ~power:100. "rev");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check (list int)) "1->0 untouched" [ 0 ] (dsts log);
  (* loss 0 removes the entry *)
  Airnet.Net.set_link_loss net ~src:0 ~dst:1 ~loss:0.;
  log := [];
  ignore (Airnet.Net.bcast net ~src:0 ~power:2500. "healed");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check (list int)) "healed link delivers" [ 1; 2 ] (dsts log);
  Alcotest.check_raises "invalid loss"
    (Invalid_argument "Net.set_link_loss: loss out of [0,1]") (fun () ->
      Airnet.Net.set_link_loss net ~src:0 ~dst:1 ~loss:1.5)

let test_drop_accounting () =
  let channel = Dsim.Channel.make ~loss:0.5 () in
  let sim, net = make_net ~channel () in
  let _log = collect net in
  let sent = 200 in
  for _ = 1 to sent do
    ignore (Airnet.Net.bcast net ~src:0 ~power:200. "x")
  done;
  ignore (Dsim.Sim.run sim);
  (* power 200 reaches only node 1: every transmission either delivers or
     counts as a drop *)
  Alcotest.(check int) "deliveries + drops = attempts" sent
    (Airnet.Net.deliveries net + Airnet.Net.drops net)

let test_retransmit_credit () =
  let _, net = make_net () in
  Airnet.Net.note_retransmit net 2;
  Airnet.Net.note_retransmit net 2;
  Airnet.Net.note_retransmit net 0;
  Alcotest.(check int) "total" 3 (Airnet.Net.retransmits net)

(* Regression for the crash/grid interaction: a crashed node stays in the
   spatial index (it is a pure position map), so crash-then-bcast must
   (a) never deliver to the dead node, (b) still deliver to everyone
   else, and (c) resume delivering to the node after recovery without any
   re-insertion — all with the audience identical to a full scan. *)
let test_crash_then_bcast_grid_regression () =
  let sim, net = make_net () in
  let log = collect net in
  Airnet.Net.crash net 1;
  let reached = Airnet.Net.bcast net ~src:0 ~power:2500. "a" in
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "audience excludes the dead node" 1 reached;
  Alcotest.(check (list int)) "only the live in-range node hears" [ 2 ]
    (dsts log);
  (* mobility while dead keeps the index consistent *)
  Airnet.Net.set_position net 1 (Geom.Vec2.make 20. 0.);
  Airnet.Net.recover net 1;
  log := [];
  let reached = Airnet.Net.bcast net ~src:0 ~power:2500. "b" in
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "recovered node back in the audience" 2 reached;
  Alcotest.(check (list int)) "hears at its moved position" [ 1; 2 ] (dsts log)

(* ---------- Faults.Plan ---------- *)

let test_plan_validation () =
  Alcotest.check_raises "negative time"
    (Invalid_argument "Faults.Plan: negative or non-finite event time")
    (fun () ->
      ignore (Faults.Plan.make [ { time = -1.; kind = Faults.Plan.Crash 0 } ]));
  Alcotest.check_raises "loss range"
    (Invalid_argument "Faults.Plan: link loss out of [0,1]") (fun () ->
      ignore
        (Faults.Plan.make
           [ { time = 0.;
               kind = Faults.Plan.Link_loss { src = 0; dst = 1; loss = 1.5 } } ]));
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Faults.Plan.random_crashes: fraction out of [0,1]")
    (fun () ->
      ignore
        (Faults.Plan.random_crashes ~prng:(Prng.create ~seed:1) ~n:10
           ~fraction:1.5 ~window:(0., 1.) ()));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Faults.Plan.random_crashes: bad window") (fun () ->
      ignore
        (Faults.Plan.random_crashes ~prng:(Prng.create ~seed:1) ~n:10
           ~fraction:0.5 ~window:(5., 1.) ()));
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Faults.Plan.partition: bad interval") (fun () ->
      ignore (Faults.Plan.partition ~left:[ 0 ] ~right:[ 1 ] ~from_:5. ~until:1.));
  Alcotest.check_raises "bad loss interval"
    (Invalid_argument "Faults.Plan.random_asymmetric_loss: loss interval out \
                       of [0,1]") (fun () ->
      ignore
        (Faults.Plan.random_asymmetric_loss ~prng:(Prng.create ~seed:1) ~n:5
           ~pairs:2 ~loss:(0.5, 0.2) ~time:0.))

(* An infinite recovery delay is not "never recovers" (that is
   [?recover_after] left out): the generator rejects it by name instead
   of building a Recover event at +inf that [make] then refuses. *)
let test_plan_non_finite_times () =
  List.iter
    (fun time ->
      Alcotest.check_raises (Fmt.str "event at %g" time)
        (Invalid_argument "Faults.Plan: negative or non-finite event time")
        (fun () ->
          ignore (Faults.Plan.make [ { time; kind = Faults.Plan.Crash 0 } ])))
    [ Float.infinity; Float.neg_infinity; Float.nan ];
  List.iter
    (fun recover_after ->
      Alcotest.check_raises (Fmt.str "recover_after %g" recover_after)
        (Invalid_argument "Faults.Plan.random_crashes: non-finite recover_after")
        (fun () ->
          ignore
            (Faults.Plan.random_crashes ~prng:(Prng.create ~seed:1) ~n:10
               ~fraction:0.5 ~window:(0., 1.) ~recover_after ())))
    [ Float.infinity; Float.nan ]

let test_plan_ordering_and_union () =
  let p =
    Faults.Plan.make
      [
        { time = 9.; kind = Faults.Plan.Crash 2 };
        { time = 1.; kind = Faults.Plan.Crash 0 };
        { time = 4.; kind = Faults.Plan.Recover 0 };
      ]
  in
  Alcotest.(check (list (float 0.)))
    "sorted by time" [ 1.; 4.; 9. ]
    (List.map (fun (e : Faults.Plan.event) -> e.time) (Faults.Plan.events p));
  (* merging two plans' events keeps one stable time order *)
  let q = Faults.Plan.make [ { time = 2.; kind = Faults.Plan.Crash 1 } ] in
  let u = Faults.Plan.make (Faults.Plan.events p @ Faults.Plan.events q) in
  Alcotest.(check (list (float 0.)))
    "union sorted by time" [ 1.; 2.; 4.; 9. ]
    (List.map (fun (e : Faults.Plan.event) -> e.time) (Faults.Plan.events u));
  Alcotest.(check (list int)) "crashed nodes, distinct and sorted" [ 0; 1; 2 ]
    (Faults.Plan.crashed_nodes u);
  Alcotest.(check int) "empty plan" 0 (Faults.Plan.nb_events Faults.Plan.empty)

let test_random_crashes_generator () =
  let plan =
    Faults.Plan.random_crashes ~prng:(Prng.create ~seed:3) ~n:20 ~fraction:0.25
      ~window:(10., 20.) ~recover_after:7. ()
  in
  let victims = Faults.Plan.crashed_nodes plan in
  Alcotest.(check int) "round (0.25 * 20) victims" 5 (List.length victims);
  Alcotest.(check int) "crash + recover per victim" 10
    (Faults.Plan.nb_events plan);
  List.iter
    (fun (e : Faults.Plan.event) ->
      match e.kind with
      | Faults.Plan.Crash _ ->
          if e.time < 10. || e.time > 20. then
            Alcotest.failf "crash at %g outside window" e.time
      | Faults.Plan.Recover _ ->
          if e.time < 17. || e.time > 27. then
            Alcotest.failf "recovery at %g outside shifted window" e.time
      | Faults.Plan.Link_loss _ -> Alcotest.fail "unexpected link event")
    (Faults.Plan.events plan)

let test_partition_generator () =
  let plan = Faults.Plan.partition ~left:[ 0; 1 ] ~right:[ 2 ] ~from_:5. ~until:9. in
  (* 2 directed links per (left, right) pair, severed then restored *)
  Alcotest.(check int) "event count" 8 (Faults.Plan.nb_events plan);
  let sever, restore =
    List.partition
      (fun (e : Faults.Plan.event) -> e.time = 5.)
      (Faults.Plan.events plan)
  in
  Alcotest.(check int) "severs at from_" 4 (List.length sever);
  List.iter
    (fun (e : Faults.Plan.event) ->
      match e.kind with
      | Faults.Plan.Link_loss { loss; _ } ->
          let expect = if e.time = 5. then 1. else 0. in
          if loss <> expect then Alcotest.failf "loss %g at t=%g" loss e.time
      | _ -> Alcotest.fail "non-link event in partition plan")
    (sever @ restore)

let test_asymmetric_loss_generator () =
  let plan =
    Faults.Plan.random_asymmetric_loss ~prng:(Prng.create ~seed:4) ~n:10
      ~pairs:6 ~loss:(0.2, 0.8) ~time:3.
  in
  let events = Faults.Plan.events plan in
  Alcotest.(check int) "one event per pair" 6 (List.length events);
  List.iter
    (fun (e : Faults.Plan.event) ->
      match e.kind with
      | Faults.Plan.Link_loss { src; dst; loss } ->
          if src = dst then Alcotest.fail "self link";
          if loss < 0.2 || loss > 0.8 then
            Alcotest.failf "loss %g outside interval" loss
      | _ -> Alcotest.fail "non-link event")
    events

(* ---------- Faults.Inject ---------- *)

let test_inject_applies_and_counts () =
  let sim, net = make_net () in
  let plan =
    Faults.Plan.make
      [
        { time = 5.; kind = Faults.Plan.Crash 1 };
        { time = 6.; kind = Faults.Plan.Crash 1 };
        (* already dead: no transition *)
        { time = 8.;
          kind = Faults.Plan.Link_loss { src = 0; dst = 2; loss = 0.4 } };
        { time = 10.; kind = Faults.Plan.Recover 1 };
      ]
  in
  let stats = Faults.Inject.arm plan net in
  let alive_at_7 = ref true in
  ignore (Dsim.Sim.schedule sim ~delay:7. (fun () ->
      alive_at_7 := Airnet.Net.is_alive net 1));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "dead between crash and recovery" false !alive_at_7;
  Alcotest.(check bool) "alive at the end" true (Airnet.Net.is_alive net 1);
  Alcotest.(check int) "one effective crash" 1 stats.Faults.Inject.crashes;
  Alcotest.(check int) "one recovery" 1 stats.Faults.Inject.recoveries;
  Alcotest.(check int) "one link change" 1 stats.Faults.Inject.link_changes;
  Alcotest.(check bool) "link loss installed" true
    (Airnet.Net.link_loss net ~src:0 ~dst:2 = 0.4)

(* ---------- hardened distributed protocol ---------- *)

(* GE channel with stationary mean loss [m] and bursts dropping
   everything: pi_bad = m requires p_gb = p_bg * m / (1 - m). *)
let ge_channel ~mean_loss ~burst =
  let p_bg = 1. /. burst in
  Dsim.Channel.gilbert_elliott ~p_gb:(p_bg *. mean_loss /. (1. -. mean_loss))
    ~p_bg ~loss_bad:1. ()

let test_legacy_profile_is_identical () =
  let pl, positions = scenario ~n:40 ~seed:21 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let plain = Cbtc.Distributed.run ~seed:21 config pl positions in
  let explicit =
    Cbtc.Distributed.run ~seed:21 ~reliability:Cbtc.Distributed.legacy config
      pl positions
  in
  Alcotest.(check int) "same transmissions"
    plain.Cbtc.Distributed.stats.Cbtc.Distributed.transmissions
    explicit.Cbtc.Distributed.stats.Cbtc.Distributed.transmissions;
  Alcotest.(check bool) "same duration" true
    (plain.Cbtc.Distributed.stats.Cbtc.Distributed.duration
    = explicit.Cbtc.Distributed.stats.Cbtc.Distributed.duration);
  Alcotest.(check bool) "same closure" true
    (Graphkit.Ugraph.equal
       (Cbtc.Discovery.closure plain.Cbtc.Distributed.discovery)
       (Cbtc.Discovery.closure explicit.Cbtc.Distributed.discovery))

(* The ISSUE's acceptance scenario in miniature: GE mean loss 0.3 plus a
   crash schedule killing 10% of the nodes mid-growth.  The hardened run
   must terminate, every surviving non-boundary node must have cone
   coverage (checked independently from positions), and the symmetric
   closure must preserve connectivity of the survivors' max-power
   component. *)
let test_crash_mid_growth_under_burst_loss () =
  List.iter
    (fun seed ->
      let n = 40 in
      let pl, positions = scenario ~n ~seed in
      let config = Cbtc.Config.make ~growth alpha56 in
      let faults =
        Faults.Plan.random_crashes ~prng:(Prng.create ~seed) ~n ~fraction:0.1
          ~window:(5., 30.) ()
      in
      let o =
        Cbtc.Distributed.run
          ~channel:(ge_channel ~mean_loss:0.3 ~burst:4.)
          ~seed ~reliability:Cbtc.Distributed.hardened ~faults config pl
          positions
      in
      Alcotest.(check int)
        (Fmt.str "seed %d: all planned crashes fired" seed)
        4 o.Cbtc.Distributed.injected.Faults.Inject.crashes;
      Cbtc.Verify.surviving ~alive:o.Cbtc.Distributed.alive
        o.Cbtc.Distributed.discovery;
      let deg = Cbtc.Verify.degradation o in
      Alcotest.(check int)
        (Fmt.str "seed %d: survivors" seed)
        36 deg.Cbtc.Verify.survivors;
      Alcotest.(check (list int))
        (Fmt.str "seed %d: no residual gaps" seed)
        [] deg.Cbtc.Verify.residual_gap_nodes;
      Alcotest.(check bool)
        (Fmt.str "seed %d: connectivity preserved" seed)
        true deg.Cbtc.Verify.connectivity_preserved;
      Alcotest.(check bool)
        (Fmt.str "seed %d: losses really happened" seed)
        true
        (o.Cbtc.Distributed.stats.Cbtc.Distributed.drops > 0
        && o.Cbtc.Distributed.stats.Cbtc.Distributed.retransmissions > 0))
    [ 31; 32; 33 ]

let test_crash_and_recover_mid_growth () =
  let n = 30 in
  let seed = 35 in
  let pl, positions = scenario ~n ~seed in
  let config = Cbtc.Config.make ~growth alpha56 in
  let faults =
    Faults.Plan.random_crashes ~prng:(Prng.create ~seed) ~n ~fraction:0.2
      ~window:(5., 20.) ~recover_after:40. ()
  in
  let o =
    Cbtc.Distributed.run ~seed ~reliability:Cbtc.Distributed.hardened ~faults
      config pl positions
  in
  Alcotest.(check int) "crashes fired" 6
    o.Cbtc.Distributed.injected.Faults.Inject.crashes;
  Alcotest.(check int) "recoveries fired" 6
    o.Cbtc.Distributed.injected.Faults.Inject.recoveries;
  Array.iteri
    (fun u a -> Alcotest.(check bool) (Fmt.str "node %d alive" u) true a)
    o.Cbtc.Distributed.alive;
  (* recovered nodes restarted discovery: the run must converge to a
     fully verified state, and everyone participates again *)
  Cbtc.Verify.run o.Cbtc.Distributed.discovery;
  let deg = Cbtc.Verify.degradation o in
  Alcotest.(check int) "no one left dead" 0 deg.Cbtc.Verify.crashed;
  Alcotest.(check bool) "connectivity preserved" true
    deg.Cbtc.Verify.connectivity_preserved

let test_partition_heals () =
  (* Severing all links between two node groups during early growth and
     restoring them later must not leave residual gaps once the hardened
     retries run at the final power. *)
  let n = 24 in
  let seed = 36 in
  let pl, positions = scenario ~n ~seed in
  let config = Cbtc.Config.make ~growth alpha56 in
  let left = List.init (n / 2) Fun.id in
  let right = List.init (n - (n / 2)) (fun i -> (n / 2) + i) in
  let faults = Faults.Plan.partition ~left ~right ~from_:0. ~until:25. in
  let o =
    Cbtc.Distributed.run ~seed ~reliability:Cbtc.Distributed.hardened ~faults
      config pl positions
  in
  Cbtc.Verify.surviving ~alive:o.Cbtc.Distributed.alive
    o.Cbtc.Distributed.discovery;
  let deg = Cbtc.Verify.degradation o in
  Alcotest.(check bool) "connectivity preserved after heal" true
    deg.Cbtc.Verify.connectivity_preserved

(* ---------- qcheck: lossy convergence (satellite property) ---------- *)

(* A profile with enough retries that, for every seed the generator can
   produce, the lossy outcome is bit-determined and equal to the reliable
   one (runs are fully seeded, so passing once means passing forever). *)
let robust =
  { Cbtc.Distributed.hardened with hello_attempts = 24; settle_rounds = 10;
    remove_attempts = 10 }

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 60)

let prop_lossy_topology_matches_reliable =
  QCheck.Test.make ~count:12
    ~name:"hardened run under loss matches the reliable topology"
    seed_gen
    (fun seed ->
      let pl, positions = scenario ~n:24 ~seed in
      let config = Cbtc.Config.make ~growth alpha56 in
      let reliable = Cbtc.Distributed.run ~seed config pl positions in
      List.for_all
        (fun loss ->
          let channel = Dsim.Channel.make ~loss () in
          let o =
            Cbtc.Distributed.run ~channel ~seed ~reliability:robust config pl
              positions
          in
          Graphkit.Ugraph.equal
            (Cbtc.Discovery.closure reliable.Cbtc.Distributed.discovery)
            (Cbtc.Discovery.closure o.Cbtc.Distributed.discovery))
        [ 0.1; 0.3 ])

let prop_lossy_core_matches_oracle =
  QCheck.Test.make ~count:12
    ~name:"acked removals build E-_alpha under loss (alpha <= 2pi/3)"
    seed_gen
    (fun seed ->
      let pl, positions = scenario ~n:24 ~seed in
      let config = Cbtc.Config.make ~growth alpha23 in
      List.for_all
        (fun loss ->
          let channel = Dsim.Channel.make ~loss () in
          let o =
            Cbtc.Distributed.run ~channel ~seed ~reliability:robust config pl
              positions
          in
          let d = o.Cbtc.Distributed.discovery in
          let expected = Cbtc.Discovery.core d in
          let got = Graphkit.Ugraph.create (Cbtc.Discovery.nb_nodes d) in
          Array.iteri
            (fun u vs ->
              List.iter (fun v -> Graphkit.Ugraph.add_edge got u v) vs)
            o.Cbtc.Distributed.core_neighbors;
          Graphkit.Ugraph.equal expected got)
        [ 0.1; 0.3 ])

(* ---------- Verify.surviving / degradation ---------- *)

let test_surviving_rejects_dead_neighbor () =
  let pl, positions = scenario ~n:30 ~seed:41 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let o = Cbtc.Distributed.run ~seed:41 config pl positions in
  let d = o.Cbtc.Distributed.discovery in
  (* declare some listed neighbor dead without telling the protocol *)
  let u, v =
    let rec first u =
      if Cbtc.Discovery.degree d u = 0 then first (u + 1)
      else (u, d.ids.(d.off.(u)))
    in
    first 0
  in
  let alive = Array.make (Cbtc.Discovery.nb_nodes d) true in
  alive.(v) <- false;
  (match Cbtc.Verify.surviving ~alive d with
  | () -> Alcotest.failf "stale neighbor %d of %d not detected" v u
  | exception Failure _ -> ());
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Verify.surviving: alive array size mismatch")
    (fun () -> Cbtc.Verify.surviving ~alive:[| true |] d)

let test_degradation_clean_run () =
  let pl, positions = scenario ~n:30 ~seed:42 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let o = Cbtc.Distributed.run ~seed:42 config pl positions in
  let deg = Cbtc.Verify.degradation ~reference:o o in
  Alcotest.(check int) "all survive" 30 deg.Cbtc.Verify.survivors;
  Alcotest.(check int) "none crashed" 0 deg.Cbtc.Verify.crashed;
  Alcotest.(check (list int)) "no gaps" [] deg.Cbtc.Verify.residual_gap_nodes;
  Alcotest.(check bool) "connectivity" true
    deg.Cbtc.Verify.connectivity_preserved;
  Alcotest.(check bool) "perfect delivery" true
    (deg.Cbtc.Verify.delivery_ratio = 1.);
  Alcotest.(check int) "no extra rounds vs self" 0 deg.Cbtc.Verify.extra_rounds

(* ---------- Reconfig crash/recover ---------- *)

let test_reconfig_recover_rejoins () =
  let pl, positions = scenario ~n:20 ~seed:51 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let rc = Cbtc.Reconfig.create ~seed:51 config pl positions in
  let u = 3 in
  Cbtc.Reconfig.crash rc u;
  Cbtc.Reconfig.run_for rc ~duration:100.;
  Alcotest.(check bool) "down" false (Cbtc.Reconfig.alive rc u);
  Alcotest.(check int) "isolated while down" 0
    (Graphkit.Ugraph.degree (Cbtc.Reconfig.topology rc) u);
  let t_recover = Cbtc.Reconfig.now rc in
  Cbtc.Reconfig.recover rc u;
  Alcotest.(check bool) "up" true (Cbtc.Reconfig.alive rc u);
  (* recover on a live node is a no-op *)
  Cbtc.Reconfig.recover rc u;
  Cbtc.Reconfig.run_for rc ~duration:150.;
  Alcotest.(check bool) "reconnected" true
    (Graphkit.Ugraph.degree (Cbtc.Reconfig.topology rc) u > 0);
  let rejoin_seen =
    List.exists
      (fun (e : Cbtc.Reconfig.event) ->
        e.kind = Cbtc.Reconfig.Join && e.about = u && e.time > t_recover)
      (Cbtc.Reconfig.events rc)
  in
  Alcotest.(check bool) "peers observed the rejoin" true rejoin_seen;
  (* and the maintained topology still preserves survivor connectivity *)
  Alcotest.(check bool) "topology preserves G_R" true
    (Metrics.Connectivity.preserves
       ~reference:(Cbtc.Geo.max_power_graph pl positions)
       (Cbtc.Reconfig.topology rc))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "faults"
    [
      ( "net",
        [
          Alcotest.test_case "recover restores delivery" `Quick
            test_recover_restores_delivery;
          Alcotest.test_case "hooks fire on transitions" `Quick
            test_fault_hooks_fire_on_transitions;
          Alcotest.test_case "asymmetric link loss" `Quick
            test_link_loss_asymmetric;
          Alcotest.test_case "drop accounting" `Quick test_drop_accounting;
          Alcotest.test_case "retransmit credit" `Quick test_retransmit_credit;
          Alcotest.test_case "crash then bcast (grid regression)" `Quick
            test_crash_then_bcast_grid_regression;
        ] );
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "non-finite times" `Quick
            test_plan_non_finite_times;
          Alcotest.test_case "ordering and union" `Quick
            test_plan_ordering_and_union;
          Alcotest.test_case "random crashes" `Quick
            test_random_crashes_generator;
          Alcotest.test_case "partition" `Quick test_partition_generator;
          Alcotest.test_case "asymmetric loss" `Quick
            test_asymmetric_loss_generator;
        ] );
      ( "inject",
        [
          Alcotest.test_case "applies and counts" `Quick
            test_inject_applies_and_counts;
        ] );
      ( "hardened",
        [
          Alcotest.test_case "legacy profile identical" `Quick
            test_legacy_profile_is_identical;
          Alcotest.test_case "crash mid-growth under burst loss" `Quick
            test_crash_mid_growth_under_burst_loss;
          Alcotest.test_case "crash and recover" `Quick
            test_crash_and_recover_mid_growth;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
        ] );
      ("lossy convergence", qsuite
        [ prop_lossy_topology_matches_reliable; prop_lossy_core_matches_oracle ]);
      ( "verify",
        [
          Alcotest.test_case "surviving rejects dead neighbor" `Quick
            test_surviving_rejects_dead_neighbor;
          Alcotest.test_case "degradation of a clean run" `Quick
            test_degradation_clean_run;
        ] );
      ( "reconfig",
        [
          Alcotest.test_case "recover rejoins" `Quick
            test_reconfig_recover_rejoins;
        ] );
    ]
