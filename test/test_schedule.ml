(* Tests for the energy-aware cover-set scheduler (Lifetime.Schedule):
   float-exact energy conservation against an independent replay of the
   charge stream, bit-identical differential oracle against the
   passive simulation stated in test/spec_gather.ml, and the correlated-failure regressions
   that bridge load-driven deaths into Faults/Reconfig. *)

module S = Lifetime.Schedule

let pl120 = Radio.Pathloss.make ~max_range:120. ()

(* Small batteries so random placements actually reach deaths and
   partition within a short horizon. *)
let quick_params =
  { Lifetime.Gather.default_params with capacity = 2e6; max_rounds = 150 }

(* Keep the randomized suites affordable: one cheap proximity family per
   seed plus CBTC on a sub-slice. *)
let family_of_seed seed =
  match seed mod 4 with
  | 0 -> S.Max_power
  | 1 -> S.Rng
  | 2 -> S.Knn 4
  | _ -> S.Cbtc Geom.Angle.five_pi_six

let policy_of_seed seed =
  if seed mod 5 = 0 then S.passive
  else
    {
      S.rotation_period = 1 + (seed mod 17);
      duty = [| 0.; 0.35; 1. |].(seed mod 3);
      idle_listen = float_of_int (seed mod 3) *. 400.;
      seed;
    }

let arb_scenario =
  QCheck.pair Gen_common.positions_arb QCheck.(int_bound 1000)

(* ---------- satellite: float-exact energy conservation ---------- *)

let prop_conservation =
  QCheck.Test.make ~count:40
    ~name:"conservation: ledger == charge-stream replay, float-exact"
    arb_scenario
    (fun (positions, seed) ->
      let n = Array.length positions in
      let replay =
        Array.init 4 (fun _ -> Array.make n 0.)
      in
      let on_charge cat u amount =
        let i =
          match cat with S.Tx -> 0 | S.Rx -> 1 | S.Overhear -> 2 | S.Idle -> 3
        in
        replay.(i).(u) <- replay.(i).(u) +. amount
      in
      let r =
        S.run ~params:quick_params ~policy:(policy_of_seed seed) ~on_charge
          pl120 positions ~sink:0
          ~topology:(S.family_builder (family_of_seed seed) pl120)
      in
      let led = r.S.ledger in
      let exact = Float.equal in
      let per_node_ok = ref true in
      for u = 0 to n - 1 do
        let ok =
          exact led.S.tx.(u) replay.(0).(u)
          && exact led.S.rx.(u) replay.(1).(u)
          && exact led.S.overhear.(u) replay.(2).(u)
          && exact led.S.idle.(u) replay.(3).(u)
          && (u = 0
             || exact led.S.residual.(u)
                  (quick_params.Lifetime.Gather.capacity
                  -. (((replay.(0).(u) +. replay.(1).(u)) +. replay.(2).(u))
                     +. replay.(3).(u))))
        in
        if not ok then per_node_ok := false
      done;
      let sum a =
        let acc = ref 0. in
        for u = 0 to n - 1 do
          acc := !acc +. a.(u)
        done;
        !acc
      in
      let tx_t = sum replay.(0)
      and rx_t = sum replay.(1)
      and oh_t = sum replay.(2)
      and idle_t = sum replay.(3) in
      !per_node_ok
      && exact r.S.tx_total tx_t
      && exact r.S.rx_total rx_t
      && exact r.S.overhear_total oh_t
      && exact r.S.idle_total idle_t
      && exact r.S.consumed_energy (((tx_t +. rx_t) +. oh_t) +. idle_t)
      (* the conservation identity itself, float-exact *)
      && exact
           (r.S.initial_energy -. r.S.consumed_energy)
           r.S.residual_energy
      && exact r.S.initial_energy
           (float_of_int (n - 1) *. quick_params.Lifetime.Gather.capacity)
      (* the sink is mains-powered: never charged *)
      && exact led.S.tx.(0) 0.
      && exact led.S.rx.(0) 0.
      && exact led.S.overhear.(0) 0.
      && exact led.S.idle.(0) 0.)

(* ---------- satellite: differential oracle against Spec_gather ---------- *)

let outcomes_equal (a : Lifetime.Gather.outcome) (b : Lifetime.Gather.outcome)
    =
  a.Lifetime.Gather.first_death = b.Lifetime.Gather.first_death
  && a.Lifetime.Gather.half_dead = b.Lifetime.Gather.half_dead
  && a.Lifetime.Gather.sink_partition = b.Lifetime.Gather.sink_partition
  && a.Lifetime.Gather.rounds_completed = b.Lifetime.Gather.rounds_completed
  && a.Lifetime.Gather.packets_delivered = b.Lifetime.Gather.packets_delivered
  && a.Lifetime.Gather.packets_dropped = b.Lifetime.Gather.packets_dropped
  && a.Lifetime.Gather.deaths = b.Lifetime.Gather.deaths

(* Every third seed runs a radio without overhearing, with other fixed
   overheads, so the oracle also pins the cost terms the default radio
   leaves dormant. *)
let params_of_seed seed =
  if seed mod 3 = 0 then
    { quick_params with
      Lifetime.Gather.overhearing = false; tx_overhead = 30000.;
      rx_overhead = 15000. }
  else quick_params

let prop_passive_reproduces_gather =
  QCheck.Test.make ~count:30
    ~name:
      "rotation off + duty-cycling off: Schedule.run == Gather.run \
       bit-identically"
    arb_scenario
    (fun (positions, seed) ->
      let topology = S.family_builder (family_of_seed seed) pl120 in
      let params = params_of_seed seed in
      let reference =
        Spec_gather.run ~params pl120 positions ~sink:0 ~topology
      in
      let r =
        S.run ~params ~policy:S.passive pl120 positions ~sink:0 ~topology
      in
      (* passive is the default policy *)
      let d = S.run ~params pl120 positions ~sink:0 ~topology in
      outcomes_equal reference r.S.outcome
      && outcomes_equal reference d.S.outcome
      && r.S.epochs = 0 && r.S.cover_sets = 0)

(* ---------- satellite: correlated-failure regressions ---------- *)

(* Sink at the origin, two interchangeable relays, two leaves that can
   only reach the sink through a relay (and sit > 100 apart, so they
   never overhear each other).  Max power everywhere, so the passive
   Dijkstra deterministically funnels both leaves through one relay,
   which dies first; the scheduler elects a single awake relay per
   epoch, puts the other to sleep (no overhearing tax), and rotates the
   funnel between the two every epoch. *)
let relay_positions =
  [|
    Geom.Vec2.make 0. 0. (* sink *);
    Geom.Vec2.make 80. 10. (* relay r1 *);
    Geom.Vec2.make 80. (-10.) (* relay r2 *);
    Geom.Vec2.make 150. 60.;
    Geom.Vec2.make 150. (-60.);
  |]

let pl100 = Radio.Pathloss.make ~max_range:100. ()

let relay_params =
  (* ~60 relay transmissions per battery (deaths well inside the
     horizon) at a radio-realistic listening cost: rx comparable to a
     full-range transmission, so sleeping actually saves energy *)
  let per_tx = Radio.Pathloss.power_for_distance pl100 100. +. 5000. in
  { Lifetime.Gather.default_params with capacity = 60. *. per_tx;
    rx_overhead = 20000.; max_rounds = 500 }

let test_rotation_spreads_relay_load () =
  let topology = S.family_builder S.Max_power pl100 in
  let passive =
    S.run ~params:relay_params ~policy:S.passive pl100 relay_positions
      ~sink:0 ~topology
  in
  let scheduled =
    S.run ~params:relay_params
      ~policy:{ S.default_policy with rotation_period = 2 }
      pl100 relay_positions ~sink:0 ~topology
  in
  let first_casualty r =
    match r.S.outcome.Lifetime.Gather.deaths with
    | (_, u) :: _ -> u
    | [] -> Alcotest.fail "expected at least one death"
  in
  let relay = first_casualty passive in
  Alcotest.(check bool)
    "passive: a relay dies first" true
    (relay = 1 || relay = 2);
  let p_first =
    match passive.S.outcome.Lifetime.Gather.first_death with
    | Some r -> r
    | None -> Alcotest.fail "passive: no death"
  in
  let s_first =
    match scheduled.S.outcome.Lifetime.Gather.first_death with
    | Some r -> r
    | None -> Alcotest.fail "scheduled: no death"
  in
  Alcotest.(check bool)
    (Fmt.str "rotation delays the first death (%d > %d)" s_first p_first)
    true (s_first > p_first);
  Alcotest.(check bool)
    (Fmt.str "rotation extends total lifetime (%d > %d)"
       (S.total_lifetime scheduled) (S.total_lifetime passive))
    true
    (S.total_lifetime scheduled > S.total_lifetime passive);
  Alcotest.(check bool) "several cover sets were generated" true
    (scheduled.S.cover_sets >= 2);
  Alcotest.(check bool) "epochs bound cover sets" true
    (scheduled.S.cover_sets <= scheduled.S.epochs)

let test_deaths_plan_and_reconfig_healing () =
  let sc = Workload.Scenario.make ~n:30 ~seed:11 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let r =
    S.run
      ~params:{ Lifetime.Gather.default_params with capacity = 2e6 }
      ~policy:S.default_policy pl positions ~sink:0
      ~topology:(S.family_builder S.Max_power pl)
  in
  let deaths = r.S.outcome.Lifetime.Gather.deaths in
  Alcotest.(check bool) "the load drove some deaths" true (deaths <> []);
  let plan = S.deaths_plan ~round_time:10. r in
  Alcotest.(check (list int))
    "plan crashes exactly the casualties"
    (List.sort_uniq compare (List.map snd deaths))
    (Faults.Plan.crashed_nodes plan);
  let times = List.map (fun e -> e.Faults.Plan.time) (Faults.Plan.events plan) in
  Alcotest.(check bool) "crash times are chronological" true
    (List.sort compare times = times);
  (* Replay the first load-driven casualty into a maintained network:
     healing must converge and leave the survivor guarantees intact
     (check_stable runs Verify.surviving underneath). *)
  let config =
    Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.)
      Geom.Angle.five_pi_six
  in
  let rc = Cbtc.Reconfig.create config pl positions in
  Cbtc.Reconfig.run_for rc ~duration:400.;
  (match List.map snd deaths with
  | [] -> ()
  | first :: _ -> Cbtc.Reconfig.crash rc first);
  Cbtc.Reconfig.run_for rc ~duration:400.;
  (match Cbtc.Reconfig.check_stable rc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healed network fails verification: %s" e)

(* ---------- scheduler beats the passive baseline ---------- *)

let test_scheduler_extends_lifetime_max_power () =
  let sc = Workload.Scenario.make ~n:40 ~seed:42 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  (* Radio-realistic listening cost: at the library default
     (rx_overhead = 2000 vs p(R) = 250000) overhearing is a rounding
     error and no sleeping discipline can matter; with rx comparable to
     a transmission — the regime the paper's interference argument is
     about — the cover-set scheduler's savings dominate. *)
  let params =
    { Lifetime.Gather.default_params with
      capacity = 5e7; rx_overhead = 20000.; max_rounds = 4000 }
  in
  let topology = S.family_builder S.Max_power pl in
  let passive = S.run ~params ~policy:S.passive pl positions ~sink:0 ~topology in
  let scheduled =
    S.run ~params ~policy:S.default_policy pl positions ~sink:0 ~topology
  in
  Alcotest.(check bool)
    (Fmt.str "scheduled lifetime %d > passive %d"
       (S.total_lifetime scheduled) (S.total_lifetime passive))
    true
    (S.total_lifetime scheduled > S.total_lifetime passive)

(* ---------- policy and family plumbing ---------- *)

let contains ~affix s =
  let ls = String.length s and la = String.length affix in
  let rec at i = i + la <= ls && (String.sub s i la = affix || at (i + 1)) in
  at 0

let test_policy_validation () =
  let bad p msg =
    match S.validate_policy p with
    | Error e ->
        Alcotest.(check bool) (Fmt.str "mentions %S" msg) true
          (contains ~affix:msg e)
    | Ok () -> Alcotest.failf "policy accepted: %s" msg
  in
  bad { S.default_policy with rotation_period = -1 } "rotation period";
  bad { S.default_policy with duty = 1.5 } "duty";
  bad { S.default_policy with duty = Float.nan } "duty";
  bad { S.default_policy with idle_listen = -1. } "idle-listen";
  bad { S.passive with duty = 0.5 } "rotation period";
  (match S.validate_policy S.passive with
  | Ok () -> ()
  | Error e -> Alcotest.failf "passive policy rejected: %s" e);
  Alcotest.check_raises "run rejects a bad policy"
    (Invalid_argument "Schedule.run: rotation period must be >= 0")
    (fun () ->
      ignore
        (S.run
           ~policy:{ S.default_policy with rotation_period = -1 }
           pl100 relay_positions ~sink:0
           ~topology:(S.family_builder S.Max_power pl100)))

let test_family_of_string () =
  let ok s f =
    match S.family_of_string s with
    | Ok f' -> Alcotest.(check string) s (S.family_label f) (S.family_label f')
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "max-power" S.Max_power;
  ok "cbtc" (S.Cbtc Geom.Angle.five_pi_six);
  ok "cbtc:2pi/3" (S.Cbtc Geom.Angle.two_pi_three);
  ok "yao:8" (S.Yao 8);
  ok "rng" S.Rng;
  ok "gabriel" S.Gabriel;
  ok "knn:4" (S.Knn 4);
  ok "mst" S.Mst;
  (match S.family_of_string "frisbee" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown family accepted");
  (* Yao needs at least three sectors: fewer is a parse error, not an
     Invalid_argument from the builder *)
  List.iter
    (fun s ->
      match S.family_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" s)
    [ "yao:0"; "yao:1"; "yao:2" ]

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "schedule"
    [
      ( "invariants",
        qsuite [ prop_conservation; prop_passive_reproduces_gather ] );
      ( "correlated-failures",
        [
          Alcotest.test_case "rotation spreads relay load" `Quick
            test_rotation_spreads_relay_load;
          Alcotest.test_case "deaths plan + reconfig healing" `Quick
            test_deaths_plan_and_reconfig_healing;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "scheduler beats passive (max power)" `Quick
            test_scheduler_extends_lifetime_max_power;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
          Alcotest.test_case "family parsing" `Quick test_family_of_string;
        ] );
    ]
