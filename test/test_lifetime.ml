(* Tests for the network-lifetime substrate: the battery model and the
   many-to-one data-gathering simulation (Schedule.run under its default,
   passive policy). *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- battery ---------- *)

let test_battery_basics () =
  let b = Lifetime.Battery.create ~n:3 ~capacity:10. in
  Alcotest.(check int) "all alive" 3 (Lifetime.Battery.nb_alive b);
  check_float "level" 10. (Lifetime.Battery.level b 0);
  Alcotest.(check bool) "drain survives" true (Lifetime.Battery.drain b 0 4.);
  check_float "level after" 6. (Lifetime.Battery.level b 0);
  Alcotest.(check bool) "drain to death" false (Lifetime.Battery.drain b 0 6.);
  Alcotest.(check bool) "dead" false (Lifetime.Battery.is_alive b 0);
  Alcotest.(check bool) "drain dead is no-op" false (Lifetime.Battery.drain b 0 1.);
  Alcotest.(check int) "two alive" 2 (Lifetime.Battery.nb_alive b);
  Alcotest.(check (array bool)) "mask" [| false; true; true |]
    (Lifetime.Battery.alive_mask b)

let test_battery_overdrain_clamps () =
  let b = Lifetime.Battery.create ~n:1 ~capacity:5. in
  ignore (Lifetime.Battery.drain b 0 100.);
  check_float "clamped at zero" 0. (Lifetime.Battery.level b 0)

let test_battery_validation () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Battery.create: non-positive capacity") (fun () ->
      ignore (Lifetime.Battery.create ~n:1 ~capacity:0.));
  let b = Lifetime.Battery.create ~n:1 ~capacity:1. in
  Alcotest.check_raises "negative drain"
    (Invalid_argument "Battery.drain: negative amount") (fun () ->
      ignore (Lifetime.Battery.drain b 0 (-1.)))

(* ---------- gather ---------- *)


let params max_rounds =
  { Lifetime.Gather.default_params with max_rounds }

let gather ?params pl positions ~sink ~topology =
  (Lifetime.Schedule.run ?params pl positions ~sink ~topology)
    .Lifetime.Schedule.outcome

let small_scenario () =
  let sc = Workload.Scenario.make ~n:30 ~seed:51 () in
  (Workload.Scenario.pathloss sc, Workload.Scenario.positions sc)

let test_gather_terminates_and_counts () =
  let pl, positions = small_scenario () in
  let o =
    gather ~params:(params 50) pl positions ~sink:0
      ~topology:(Lifetime.Gather.max_power_builder pl)
  in
  Alcotest.(check bool) "ran some rounds" true (o.Lifetime.Gather.rounds_completed > 0);
  Alcotest.(check bool) "bounded" true (o.Lifetime.Gather.rounds_completed <= 50);
  Alcotest.(check bool) "delivered packets" true (o.Lifetime.Gather.packets_delivered > 0)

let test_gather_no_deaths_with_huge_battery () =
  let pl, positions = small_scenario () in
  let p = { (params 10) with Lifetime.Gather.capacity = 1e15 } in
  let o =
    gather ~params:p pl positions ~sink:0
      ~topology:(Lifetime.Gather.max_power_builder pl)
  in
  Alcotest.(check (list (pair int int))) "no deaths" [] o.Lifetime.Gather.deaths;
  Alcotest.(check bool) "no first death" true (o.Lifetime.Gather.first_death = None);
  Alcotest.(check int) "all rounds run" 10 o.Lifetime.Gather.rounds_completed;
  (* 29 senders x 10 rounds, all delivered *)
  Alcotest.(check int) "every packet delivered" 290
    o.Lifetime.Gather.packets_delivered;
  Alcotest.(check int) "none dropped" 0 o.Lifetime.Gather.packets_dropped

let test_gather_milestones_ordered () =
  let pl, positions = small_scenario () in
  let o =
    gather ~params:(params 2000) pl positions ~sink:0
      ~topology:(Lifetime.Gather.max_power_builder pl)
  in
  (match (o.Lifetime.Gather.first_death, o.Lifetime.Gather.half_dead) with
  | Some f, Some h ->
      if f > h then Alcotest.failf "first death %d after half dead %d" f h
  | Some _, None -> ()
  | None, Some _ -> Alcotest.fail "half dead without first death"
  | None, None -> ());
  (* deaths are chronological *)
  let rounds = List.map fst o.Lifetime.Gather.deaths in
  Alcotest.(check (list int)) "chronological" (List.sort Int.compare rounds) rounds

let test_cbtc_outlives_max_power () =
  (* The headline lifetime claim: under the paper's one-power-per-node
     model with overhearing, CBTC extends time-to-first-death and the
     sink-partition horizon. *)
  let sc = Workload.Scenario.make ~n:60 ~seed:5 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let config = Cbtc.Config.make Geom.Angle.five_pi_six in
  let run topology =
    gather ~params:(params 3000) pl positions ~sink:0 ~topology
  in
  let base = run (Lifetime.Gather.max_power_builder pl) in
  let cbtc = run (Lifetime.Gather.cbtc_builder (Cbtc.Pipeline.all_ops config) pl) in
  let fd o =
    Option.value ~default:Stdlib.max_int o.Lifetime.Gather.first_death
  in
  Alcotest.(check bool) "first death later under CBTC" true (fd cbtc > fd base);
  Alcotest.(check bool) "more packets delivered under CBTC" true
    (cbtc.Lifetime.Gather.packets_delivered > base.Lifetime.Gather.packets_delivered)

let test_builders_isolate_dead_nodes () =
  let pl, positions = small_scenario () in
  let alive = Array.make (Array.length positions) true in
  alive.(3) <- false;
  alive.(7) <- false;
  List.iter
    (fun (name, builder) ->
      let c = builder ~alive positions in
      Alcotest.(check int) (name ^ ": dead node degree") 0
        (Graphkit.Ugraph.degree c.Lifetime.Gather.graph 3);
      check_float (name ^ ": dead node radius") 0. c.Lifetime.Gather.radius.(7);
      Alcotest.(check bool) (name ^ ": live nodes connected somehow") true
        (Graphkit.Ugraph.nb_edges c.Lifetime.Gather.graph > 0))
    [
      ("max-power", Lifetime.Gather.max_power_builder pl);
      ( "cbtc",
        Lifetime.Gather.cbtc_builder
          (Cbtc.Pipeline.all_ops (Cbtc.Config.make Geom.Angle.five_pi_six))
          pl );
    ]

let test_gather_validation () =
  let pl, positions = small_scenario () in
  Alcotest.check_raises "sink range"
    (Invalid_argument "Schedule.run: sink out of range") (fun () ->
      ignore
        (gather pl positions ~sink:999
           ~topology:(Lifetime.Gather.max_power_builder pl)))

let () =
  Alcotest.run "lifetime"
    [
      ( "battery",
        [
          Alcotest.test_case "basics" `Quick test_battery_basics;
          Alcotest.test_case "overdrain clamps" `Quick test_battery_overdrain_clamps;
          Alcotest.test_case "validation" `Quick test_battery_validation;
        ] );
      ( "gather",
        [
          Alcotest.test_case "terminates and counts" `Quick
            test_gather_terminates_and_counts;
          Alcotest.test_case "huge battery, no deaths" `Quick
            test_gather_no_deaths_with_huge_battery;
          Alcotest.test_case "milestones ordered" `Quick test_gather_milestones_ordered;
          Alcotest.test_case "CBTC outlives max power" `Quick
            test_cbtc_outlives_max_power;
          Alcotest.test_case "builders isolate dead nodes" `Quick
            test_builders_isolate_dead_nodes;
          Alcotest.test_case "validation" `Quick test_gather_validation;
        ] );
    ]
