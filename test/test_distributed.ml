(* Tests for the distributed message-passing CBTC protocol: equivalence
   with the centralized oracle, asynchronous starts, lossy/duplicating
   channels, and the Remove phase of Section 3.2. *)

let alpha56 = Geom.Angle.five_pi_six

let alpha23 = Geom.Angle.two_pi_three

let growth = Cbtc.Config.Double 100.

let scenario ~n ~seed =
  let sc = Workload.Scenario.make ~n ~seed () in
  (Workload.Scenario.pathloss sc, Workload.Scenario.positions sc)


let check_discovery_equal ~msg (a : Cbtc.Discovery.t) (b : Cbtc.Discovery.t) =
  let n = Cbtc.Discovery.nb_nodes a in
  Alcotest.(check int) (msg ^ ": node counts") n (Cbtc.Discovery.nb_nodes b);
  for u = 0 to n - 1 do
    Alcotest.(check (list int))
      (Fmt.str "%s: N(%d)" msg u)
      (Cbtc.Discovery.neighbor_ids a u)
      (Cbtc.Discovery.neighbor_ids b u);
    if Float.abs (a.power.(u) -. b.power.(u)) > 1e-6 then
      Alcotest.failf "%s: power(%d) %g vs %g" msg u a.power.(u) b.power.(u);
    Alcotest.(check bool)
      (Fmt.str "%s: boundary(%d)" msg u)
      a.boundary.(u) b.boundary.(u)
  done

let test_matches_oracle () =
  List.iter
    (fun seed ->
      let pl, positions = scenario ~n:50 ~seed in
      let config = Cbtc.Config.make ~growth alpha56 in
      let oracle = Cbtc.Geo.run_flat config pl positions in
      let outcome = Cbtc.Distributed.run config pl positions in
      check_discovery_equal
        ~msg:(Fmt.str "seed %d" seed)
        oracle outcome.Cbtc.Distributed.discovery;
      Cbtc.Discovery.check_invariants outcome.Cbtc.Distributed.discovery)
    [ 1; 2; 3 ]

let test_matches_oracle_alpha23 () =
  let pl, positions = scenario ~n:50 ~seed:9 in
  let config = Cbtc.Config.make ~growth alpha23 in
  let oracle = Cbtc.Geo.run_flat config pl positions in
  let outcome = Cbtc.Distributed.run config pl positions in
  check_discovery_equal ~msg:"alpha23" oracle outcome.Cbtc.Distributed.discovery

let test_async_starts_match_oracle () =
  (* With staggered starts and a reliable channel the converged state is
     unchanged: every Hello is eventually acked within the eval window. *)
  let pl, positions = scenario ~n:40 ~seed:4 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let oracle = Cbtc.Geo.run_flat config pl positions in
  let outcome = Cbtc.Distributed.run ~start_spread:50. config pl positions in
  check_discovery_equal ~msg:"async" oracle outcome.Cbtc.Distributed.discovery

let test_random_delays_match_oracle () =
  let channel = Dsim.Channel.make ~min_delay:0.5 ~max_delay:2. () in
  let pl, positions = scenario ~n:40 ~seed:5 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let oracle = Cbtc.Geo.run_flat config pl positions in
  let outcome = Cbtc.Distributed.run ~channel config pl positions in
  check_discovery_equal ~msg:"delays" oracle outcome.Cbtc.Distributed.discovery

let test_duplication_is_idempotent () =
  let channel = Dsim.Channel.make ~duplicate:0.7 () in
  let pl, positions = scenario ~n:40 ~seed:6 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let oracle = Cbtc.Geo.run_flat config pl positions in
  let outcome = Cbtc.Distributed.run ~channel config pl positions in
  check_discovery_equal ~msg:"dup" oracle outcome.Cbtc.Distributed.discovery

let test_lossy_channel_still_preserves_connectivity () =
  (* Under message loss the discovered sets may differ from the oracle
     (a lost ack looks like a missing node), but with Hello repeats the
     protocol still terminates gap-free-or-boundary and the closure still
     preserves connectivity on these seeds. *)
  let channel = Dsim.Channel.make ~loss:0.1 () in
  List.iter
    (fun seed ->
      let pl, positions = scenario ~n:50 ~seed in
      let config = Cbtc.Config.make ~growth alpha56 in
      let outcome =
        (* one fresh channel state per trial: burst/chain state must not
           leak across seeds (Channel.copy shares only the config) *)
        Cbtc.Distributed.run
          ~channel:(Dsim.Channel.copy channel)
          ~hello_repeats:3 ~seed config pl positions
      in
      Cbtc.Discovery.check_invariants outcome.Cbtc.Distributed.discovery;
      let gr = Cbtc.Geo.max_power_graph pl positions in
      Alcotest.(check bool)
        (Fmt.str "seed %d preserves" seed)
        true
        (Metrics.Connectivity.preserves ~reference:gr
           (Cbtc.Discovery.closure outcome.Cbtc.Distributed.discovery)))
    [ 11; 12; 13 ]

let test_remove_phase_builds_core () =
  (* The distributed Remove notifications must materialize exactly
     E-_alpha: u keeps v iff both selected each other. *)
  let pl, positions = scenario ~n:50 ~seed:7 in
  let config = Cbtc.Config.make ~growth alpha23 in
  let outcome = Cbtc.Distributed.run config pl positions in
  let d = outcome.Cbtc.Distributed.discovery in
  let expected = Cbtc.Discovery.core d in
  let got = Graphkit.Ugraph.create (Cbtc.Discovery.nb_nodes d) in
  Array.iteri
    (fun u vs -> List.iter (fun v -> Graphkit.Ugraph.add_edge got u v) vs)
    outcome.Cbtc.Distributed.core_neighbors;
  Alcotest.(check bool) "distributed core = E-_alpha" true
    (Graphkit.Ugraph.equal expected got);
  (* and the core neighbor relation is symmetric *)
  Array.iteri
    (fun u vs ->
      List.iter
        (fun v ->
          if not (List.mem u outcome.Cbtc.Distributed.core_neighbors.(v)) then
            Alcotest.failf "core asymmetric at (%d, %d)" u v)
        vs)
    outcome.Cbtc.Distributed.core_neighbors

(* Crash-stop failure injection: kill nodes mid-protocol via a scheduled
   event inside the network.  We model it by running the protocol on the
   survivor set and checking that the survivors' outcome matches the
   oracle on the survivor set — crash-stop before the protocol starts is
   equivalent to the node never existing, and the protocol must not be
   confused by unanswered Hellos. *)
let test_survivors_match_survivor_oracle () =
  let pl, positions = scenario ~n:40 ~seed:14 in
  let config = Cbtc.Config.make ~growth alpha56 in
  (* crash = remove the last five nodes *)
  let survivors = Array.sub positions 0 35 in
  let oracle = Cbtc.Geo.run_flat config pl survivors in
  let outcome = Cbtc.Distributed.run config pl survivors in
  check_discovery_equal ~msg:"survivors" oracle
    outcome.Cbtc.Distributed.discovery

let test_loss_never_decreases_power () =
  (* A lost Ack looks like a cone gap, so under loss a node can only grow
     {e further} than under the reliable channel — its converged power is
     monotonically no smaller.  (It may therefore also discover more
     neighbors, never fewer powers.) *)
  let pl, positions = scenario ~n:40 ~seed:15 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let reliable = Cbtc.Distributed.run config pl positions in
  let lossy =
    Cbtc.Distributed.run
      ~channel:(Dsim.Channel.make ~loss:0.3 ())
      ~seed:77 config pl positions
  in
  for u = 0 to 39 do
    let pr = reliable.Cbtc.Distributed.discovery.power.(u) in
    let p_lossy = lossy.Cbtc.Distributed.discovery.power.(u) in
    if p_lossy < pr -. 1e-9 then
      Alcotest.failf "node %d: lossy power %g below reliable %g" u p_lossy pr
  done

let test_mult_growth_matches_oracle () =
  let pl, positions = scenario ~n:40 ~seed:16 in
  let config =
    Cbtc.Config.make ~growth:(Cbtc.Config.Mult { p0 = 50.; factor = 5. })
      alpha56
  in
  let oracle = Cbtc.Geo.run_flat config pl positions in
  let outcome = Cbtc.Distributed.run config pl positions in
  check_discovery_equal ~msg:"mult growth" oracle
    outcome.Cbtc.Distributed.discovery

let test_combined_asynchrony () =
  (* Staggered starts + random delays + duplication together still match
     the oracle (only loss can perturb the outcome). *)
  let channel = Dsim.Channel.make ~duplicate:0.4 ~min_delay:0.2 ~max_delay:1.5 () in
  let pl, positions = scenario ~n:40 ~seed:17 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let oracle = Cbtc.Geo.run_flat config pl positions in
  let outcome =
    Cbtc.Distributed.run ~channel ~start_spread:30. config pl positions
  in
  check_discovery_equal ~msg:"combined" oracle outcome.Cbtc.Distributed.discovery;
  Cbtc.Verify.run ~complete:true outcome.Cbtc.Distributed.discovery

let test_verify_on_distributed () =
  let pl, positions = scenario ~n:50 ~seed:18 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let outcome = Cbtc.Distributed.run config pl positions in
  (* reliable channel: complete discovery at the converged power *)
  Cbtc.Verify.run ~complete:true outcome.Cbtc.Distributed.discovery

let test_stats_sane () =
  let pl, positions = scenario ~n:30 ~seed:8 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let outcome = Cbtc.Distributed.run config pl positions in
  let s = outcome.Cbtc.Distributed.stats in
  Alcotest.(check bool) "transmissions positive" true (s.transmissions > 0);
  Alcotest.(check bool) "deliveries positive" true (s.deliveries > 0);
  Alcotest.(check bool) "rounds bounded by schedule length" true
    (s.max_rounds >= 1 && s.max_rounds <= 20);
  Alcotest.(check bool) "time advanced" true (s.duration > 0.)

let test_more_repeats_more_messages () =
  let pl, positions = scenario ~n:30 ~seed:8 in
  let config = Cbtc.Config.make ~growth alpha56 in
  let one = Cbtc.Distributed.run ~hello_repeats:1 config pl positions in
  let three = Cbtc.Distributed.run ~hello_repeats:3 config pl positions in
  Alcotest.(check bool) "repeats cost messages" true
    (three.Cbtc.Distributed.stats.transmissions
    > one.Cbtc.Distributed.stats.transmissions)

let test_exact_growth_rejected () =
  let pl, positions = scenario ~n:5 ~seed:1 in
  Alcotest.check_raises "Exact rejected"
    (Invalid_argument
       "Distributed.run: Exact growth needs global knowledge; use Double or \
        Mult") (fun () ->
      ignore (Cbtc.Distributed.run (Cbtc.Config.make alpha56) pl positions))

let test_bad_args_rejected () =
  let pl, positions = scenario ~n:5 ~seed:1 in
  let config = Cbtc.Config.make ~growth alpha56 in
  Alcotest.check_raises "repeats" (Invalid_argument "Distributed.run: hello_repeats < 1")
    (fun () -> ignore (Cbtc.Distributed.run ~hello_repeats:0 config pl positions));
  Alcotest.check_raises "spread" (Invalid_argument "Distributed.run: negative spread")
    (fun () -> ignore (Cbtc.Distributed.run ~start_spread:(-1.) config pl positions))

let test_two_isolated_nodes () =
  let pl = Radio.Pathloss.make ~max_range:10. () in
  let positions = [| Geom.Vec2.zero; Geom.Vec2.make 1000. 0. |] in
  let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 1.) Geom.Angle.five_pi_six in
  let outcome = Cbtc.Distributed.run config pl positions in
  let d = outcome.Cbtc.Distributed.discovery in
  Alcotest.(check (list int)) "no neighbors" [] (Cbtc.Discovery.neighbor_ids d 0);
  Alcotest.(check bool) "both boundary" true (d.boundary.(0) && d.boundary.(1));
  Cbtc.Discovery.check_invariants d

(* Randomized oracle equivalence over the shared shrinking placement
   generator: a failure reports a (near-)minimal placement, not the full
   random one. *)
let prop_matches_oracle =
  let pl120 = Radio.Pathloss.make ~max_range:120. () in
  QCheck.Test.make ~count:25
    ~name:"distributed matches oracle on random placements"
    Gen_common.positions_arb
    (fun positions ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let oracle = Cbtc.Geo.run_flat config pl120 positions in
      let outcome = Cbtc.Distributed.run config pl120 positions in
      match
        Cbtc.Verify.check_oracle ~oracle outcome
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let () =
  Alcotest.run "distributed"
    [
      ( "oracle-equivalence",
        [
          Alcotest.test_case "reliable sync matches oracle" `Quick test_matches_oracle;
          Alcotest.test_case "alpha 2pi/3" `Quick test_matches_oracle_alpha23;
          Alcotest.test_case "asynchronous starts" `Quick test_async_starts_match_oracle;
          Alcotest.test_case "random delays" `Quick test_random_delays_match_oracle;
          Alcotest.test_case "duplication idempotent" `Quick test_duplication_is_idempotent;
          Alcotest.test_case "mult growth" `Quick test_mult_growth_matches_oracle;
          Alcotest.test_case "combined asynchrony" `Quick test_combined_asynchrony;
          Alcotest.test_case "independent verification" `Quick test_verify_on_distributed;
          QCheck_alcotest.to_alcotest ~long:false prop_matches_oracle;
        ] );
      ( "faults",
        [
          Alcotest.test_case "lossy channel preserves connectivity" `Quick
            test_lossy_channel_still_preserves_connectivity;
          Alcotest.test_case "survivors match survivor oracle" `Quick
            test_survivors_match_survivor_oracle;
          Alcotest.test_case "loss never decreases power" `Quick
            test_loss_never_decreases_power;
        ] );
      ( "remove-phase",
        [ Alcotest.test_case "builds E-_alpha" `Quick test_remove_phase_builds_core ] );
      ( "mechanics",
        [
          Alcotest.test_case "stats sane" `Quick test_stats_sane;
          Alcotest.test_case "repeats cost messages" `Quick test_more_repeats_more_messages;
          Alcotest.test_case "Exact growth rejected" `Quick test_exact_growth_rejected;
          Alcotest.test_case "bad args rejected" `Quick test_bad_args_rejected;
          Alcotest.test_case "isolated nodes" `Quick test_two_isolated_nodes;
        ] );
    ]
