(* Tests for the self-healing topology daemon: the bounded shedding
   queue, the deterministic event source, the incremental engine's
   equivalence with full recomputation, checkpoint recovery, and the
   driver's continuous verification. *)

let config = Cbtc.Config.make Geom.Angle.five_pi_six

let scenario ?(n = 30) seed = Workload.Scenario.make ~n ~seed ()

let mk_stream ?(seed = 7) ?(move_rate = 40.) ?storm ?(churn = Faults.Plan.empty)
    sc =
  {
    Daemon.Driver.seed;
    field = sc.Workload.Scenario.field;
    mobility = Workload.Mobility.default_params;
    move_rate;
    storm;
    churn;
    positions = Workload.Scenario.positions sc;
  }

(* ------------------------------------------------------------------ *)
(* Equeue                                                             *)

let ev ?(t = 0.) ?(node = 0) kind = { Daemon.Event.time = t; node; kind }

let move ?(t = 0.) node = ev ~t ~node (Daemon.Event.Move (Geom.Vec2.make 1. 2.))

let leave ?(t = 0.) node = ev ~t ~node Daemon.Event.Leave

let nodes_of q = List.map (fun e -> e.Daemon.Event.node) (Daemon.Equeue.to_list q)

let test_equeue_fifo () =
  let q = Daemon.Equeue.create ~capacity:10 in
  Daemon.Equeue.push q (move 0);
  Daemon.Equeue.push q (leave 1);
  Daemon.Equeue.push q (move 2);
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2 ] (nodes_of q);
  Alcotest.(check int) "length" 3 (Daemon.Equeue.length q);
  let popped = List.init 3 (fun _ -> Daemon.Equeue.pop q) in
  Alcotest.(check (list int))
    "pop order" [ 0; 1; 2 ]
    (List.map (function Some e -> e.Daemon.Event.node | None -> -1) popped);
  Alcotest.(check bool) "drained" true (Daemon.Equeue.pop q = None)

let test_equeue_sheds_oldest_move () =
  let q = Daemon.Equeue.create ~capacity:3 in
  Daemon.Equeue.push q (move 0);
  Daemon.Equeue.push q (leave 1);
  Daemon.Equeue.push q (move 2);
  Daemon.Equeue.push q (move 3);
  (* full: move 0 is the oldest move and must be the one shed *)
  Alcotest.(check (list int)) "oldest move shed" [ 1; 2; 3 ] (nodes_of q);
  Alcotest.(check int) "shed counted" 1 (Daemon.Equeue.stats q).Daemon.Equeue.shed;
  (* backlog now leave,move,move: shedding hits node 2 next *)
  Daemon.Equeue.push q (move 4);
  Alcotest.(check (list int)) "second shed" [ 1; 3; 4 ] (nodes_of q)

let test_equeue_never_drops_critical () =
  let q = Daemon.Equeue.create ~capacity:2 in
  Daemon.Equeue.push q (leave 0);
  Daemon.Equeue.push q (leave 1);
  Daemon.Equeue.push q (leave 2);
  (* no move to shed: criticals overflow past capacity *)
  Alcotest.(check (list int)) "all criticals kept" [ 0; 1; 2 ] (nodes_of q);
  Alcotest.(check int) "overflow counted" 1
    (Daemon.Equeue.stats q).Daemon.Equeue.overflow;
  (* an incoming move into a full all-critical backlog is itself dropped *)
  Daemon.Equeue.push q (move 3);
  Alcotest.(check (list int)) "incoming move dropped" [ 0; 1; 2 ] (nodes_of q);
  Alcotest.(check int) "drop counted as shed" 1
    (Daemon.Equeue.stats q).Daemon.Equeue.shed

let test_equeue_restore_bypasses_shedding () =
  let backlog = [ leave 0; move 1; leave 2; leave 3; leave 4 ] in
  let q = Daemon.Equeue.restore ~capacity:2 backlog in
  Alcotest.(check (list int))
    "backlog longer than capacity survives restore" [ 0; 1; 2; 3; 4 ]
    (nodes_of q);
  Alcotest.(check int) "no shed on restore" 0
    (Daemon.Equeue.stats q).Daemon.Equeue.shed

(* ------------------------------------------------------------------ *)
(* Event JSON round-trip                                              *)

let test_event_json_roundtrip () =
  let events =
    [
      ev ~t:1.5 ~node:3 (Daemon.Event.Move (Geom.Vec2.make 10.25 (-3.5)));
      ev ~t:2. ~node:0 Daemon.Event.Leave;
      (* integral floats serialize as JSON ints: of_json must accept both *)
      ev ~t:4. ~node:7 (Daemon.Event.Join (Geom.Vec2.make 100. 200.));
    ]
  in
  List.iter
    (fun e ->
      let e' = Daemon.Event.of_json (Daemon.Event.to_json e) in
      Alcotest.(check bool)
        (Fmt.str "round-trip %a" Daemon.Event.pp e)
        true (e = e'))
    events;
  Alcotest.check_raises "malformed event" (Failure
    "Daemon.Event.of_json: bad or missing field kind")
    (fun () ->
      ignore (Daemon.Event.of_json (Obs.Jsonl.Obj [ ("t", Obs.Jsonl.Int 1);
                                             ("node", Obs.Jsonl.Int 0) ])))

(* ------------------------------------------------------------------ *)
(* Source                                                             *)

let test_source_deterministic () =
  let sc = scenario 11 in
  let mk () =
    Daemon.Source.create ~seed:42 ~field:sc.Workload.Scenario.field
      ~params:Workload.Mobility.default_params ~move_rate:25.
      ~churn:Faults.Plan.empty
      (Workload.Scenario.positions sc)
  in
  let a = mk () and b = mk () in
  for i = 1 to 5 do
    let ea = Daemon.Source.tick a ~until:(float_of_int i) in
    let eb = Daemon.Source.tick b ~until:(float_of_int i) in
    Alcotest.(check bool) "identical event streams" true (ea = eb);
    Alcotest.(check bool) "time-ordered" true
      (List.sort (fun x y -> Float.compare x.Daemon.Event.time y.Daemon.Event.time) ea = ea)
  done

let test_source_churn_to_events () =
  let sc = scenario 12 in
  let prng = Prng.create ~seed:5 in
  let churn =
    Faults.Plan.random_crashes ~prng ~n:30 ~fraction:0.3 ~window:(0.5, 2.5)
      ~recover_after:1.5 ()
  in
  let src =
    Daemon.Source.create ~seed:42 ~field:sc.Workload.Scenario.field
      ~params:Workload.Mobility.default_params ~move_rate:0. ~churn
      (Workload.Scenario.positions sc)
  in
  let events = Daemon.Source.tick src ~until:10. in
  let leaves = List.filter (fun e -> e.Daemon.Event.kind = Daemon.Event.Leave) events in
  let joins = List.filter Daemon.Event.is_critical events in
  Alcotest.(check int) "9 crashes" 9 (List.length leaves);
  Alcotest.(check int) "each crash recovers" 18 (List.length joins);
  Alcotest.(check bool) "truth is all-alive again" true
    (Array.for_all (fun b -> b) (Daemon.Source.true_alive src))

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)

let run_stream_through_engine ~watchdog_frac sc ~seed ~epochs =
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let prng = Prng.create ~seed in
  let churn =
    Faults.Plan.random_crashes ~prng ~n:(Array.length positions) ~fraction:0.2
      ~window:(0., float_of_int epochs /. 2.)
      ~recover_after:(float_of_int epochs /. 4.)
      ()
  in
  let src =
    Daemon.Source.create ~seed ~field:sc.Workload.Scenario.field
      ~params:Workload.Mobility.default_params ~move_rate:30. ~churn positions
  in
  let eng = Daemon.Engine.create ~watchdog_frac config pl positions in
  for ep = 1 to epochs do
    let events = Daemon.Source.tick src ~until:(float_of_int ep) in
    List.iter (Daemon.Engine.apply eng) events;
    ignore (Daemon.Engine.commit eng);
    match Daemon.Engine.check_full_equivalence eng with
    | Ok () -> ()
    | Error m -> Alcotest.failf "epoch %d: incremental /= full: %s" ep m
  done;
  eng

let test_engine_equivalence_incremental () =
  let eng =
    run_stream_through_engine ~watchdog_frac:1.5 (scenario 13) ~seed:99
      ~epochs:8
  in
  (* watchdog_frac > 1: the full path never ran, this exercised the
     incremental path only *)
  Alcotest.(check int) "no watchdog trip" 0
    (Daemon.Engine.stats eng).Daemon.Engine.full_recomputes

let test_engine_equivalence_watchdog () =
  let eng =
    run_stream_through_engine ~watchdog_frac:0.1 (scenario 14) ~seed:77
      ~epochs:8
  in
  Alcotest.(check bool) "watchdog tripped" true
    ((Daemon.Engine.stats eng).Daemon.Engine.full_recomputes > 0)

let test_engine_verify_survivors () =
  let eng =
    run_stream_through_engine ~watchdog_frac:0.25 (scenario 15) ~seed:55
      ~epochs:6
  in
  let n = Daemon.Engine.nb_nodes eng in
  match
    Cbtc.Verify.check_surviving
      ~alive:(Array.init n (Daemon.Engine.alive eng))
      (Daemon.Engine.discovery eng)
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tracked state violates guarantees: %s" m

let test_engine_grid_lifecycle () =
  (* sustained drift through the engine's spatial index: in-window moves
     must never touch the overflow side table (the old tombstone design
     had [drifted = overflow]), and a migration far outside the built
     window must stay bounded — compaction re-centers the window instead
     of letting overflow grow with every further move *)
  (* n must clear the grid's rebuild threshold (max 64 (n/8) pending
     out-of-window nodes) or the migration could never compact *)
  let sc = scenario ~n:200 18 in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let n = Array.length positions in
  let eng = Daemon.Engine.create ~watchdog_frac:1.5 config pl positions in
  let prng = Prng.create ~seed:4242 in
  let w = sc.Workload.Scenario.field.Workload.Placement.width in
  let h = sc.Workload.Scenario.field.Workload.Placement.height in
  let apply_move ~time u p =
    Daemon.Engine.apply eng
      { Daemon.Event.time; node = u; kind = Daemon.Event.Move p }
  in
  (* phase 1: heavy in-field drift — every node crosses cells many
     times, none may land in overflow *)
  for ep = 1 to 10 do
    for _ = 1 to n do
      let u = Prng.int prng n in
      apply_move ~time:(float_of_int ep) u
        (Geom.Vec2.make (Prng.float prng w) (Prng.float prng h))
    done;
    ignore (Daemon.Engine.commit eng)
  done;
  let health = Daemon.Engine.grid_health eng in
  Alcotest.(check bool) "in-field drift moved cells" true
    (health.Geom.Grid.drifted > 0 || health.Geom.Grid.compactions > 0);
  Alcotest.(check int) "in-field drift never overflows" 0
    health.Geom.Grid.overflow;
  (* phase 2: the whole population migrates far outside the original
     window, a few nodes per epoch — overflow must trigger compactions
     that re-center the window rather than accumulate *)
  for ep = 11 to 10 + ((2 * n / 16) + 1) do
    for _ = 1 to 16 do
      let u = Prng.int prng n in
      apply_move ~time:(float_of_int ep) u
        (Geom.Vec2.make
           ((10. *. w) +. Prng.float prng w)
           ((10. *. h) +. Prng.float prng h))
    done;
    ignore (Daemon.Engine.commit eng)
  done;
  let health = Daemon.Engine.grid_health eng in
  Alcotest.(check bool) "out-of-window migration compacts" true
    (health.Geom.Grid.compactions > 0);
  Alcotest.(check bool) "overflow stays bounded after compaction" true
    (health.Geom.Grid.overflow < n / 2);
  (* the index must have stayed exact throughout *)
  match Daemon.Engine.check_full_equivalence eng with
  | Ok () -> ()
  | Error m -> Alcotest.failf "incremental /= full after migration: %s" m

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)

let params epochs =
  {
    Daemon.Driver.default_params with
    duration = float_of_int epochs;
    event_dt = 1.;
    equivalence_every = 2;
    verify_every = 2;
  }

let pl_of sc = Workload.Scenario.pathloss sc

let test_driver_clean_run_not_degraded () =
  let sc = scenario 16 in
  let stream = mk_stream ~seed:3 sc in
  let r =
    Daemon.Driver.run ~params:(params 8) ~config ~pathloss:(pl_of sc) stream
  in
  Alcotest.(check (list string)) "no guarantee violations" [] r.verify_failures;
  Alcotest.(check (list string))
    "no equivalence failures" [] r.equivalence_failures;
  (* unlimited budget, no shedding: tracked state tracks the truth *)
  Alcotest.(check int) "no degraded checks" 0 r.degraded_checks;
  Alcotest.(check bool) "not finally degraded" false
    (Daemon.Driver.degraded r.final_degradation);
  Alcotest.(check int) "nothing shed" 0 r.queue.Daemon.Equeue.shed

(* An epoch count past max_int used to wrap around to a one-epoch run
   that reported success; it, and a non-finite time, must be refused
   before any work. *)
let test_driver_rejects_bad_epoch_count () =
  let sc = scenario 16 in
  let stream = mk_stream ~seed:3 sc in
  let too_many = "Daemon.Driver.run: duration / event_dt is too many epochs" in
  let finite = "Daemon.Driver.run: duration and event_dt must be finite" in
  List.iter
    (fun (duration, event_dt, msg) ->
      Alcotest.check_raises
        (Fmt.str "duration %g, event_dt %g" duration event_dt)
        (Invalid_argument msg)
        (fun () ->
          ignore
            (Daemon.Driver.run
               ~params:{ (params 1) with duration; event_dt }
               ~config ~pathloss:(pl_of sc) stream)))
    [ (1e300, 1., too_many); (1., 1e-300, too_many); (0x1p62, 1., too_many);
      (Float.infinity, 1., finite); (1., Float.infinity, finite) ]

let test_driver_overload_degrades_then_heals () =
  let sc = scenario 17 in
  (* steady state (20 ev/epoch) fits the budget; the storm (x30) does
     not, so the queue saturates and sheds, then drains afterwards *)
  let stream = mk_stream ~seed:9 ~move_rate:20. ~storm:(2., 4., 30.) sc in
  let p =
    { (params 20) with queue_cap = 64; budget = 80; verify_every = 1 }
  in
  let r = Daemon.Driver.run ~params:p ~config ~pathloss:(pl_of sc) stream in
  Alcotest.(check bool) "storm forced shedding" true
    (r.queue.Daemon.Equeue.shed > 0);
  Alcotest.(check bool) "degradation was reported" true (r.degraded_checks > 0);
  Alcotest.(check (list string)) "guarantees never violated" []
    r.verify_failures;
  (* absolute-position moves: once the storm passes and the backlog
     drains, the tracked state heals *)
  Alcotest.(check bool) "healed after the storm" false
    (Daemon.Driver.degraded r.final_degradation)

let test_driver_checkpoint_restore_same_digest () =
  let sc = scenario 18 in
  let prng = Prng.create ~seed:4 in
  let churn =
    Faults.Plan.random_crashes ~prng ~n:30 ~fraction:0.2 ~window:(1., 5.)
      ~recover_after:2. ()
  in
  let stream = mk_stream ~seed:21 ~churn sc in
  let path = Filename.temp_file "daemon" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let p =
        {
          (params 10) with
          checkpoint_every = 4;
          checkpoint_path = Some path;
        }
      in
      let uninterrupted =
        Daemon.Driver.run ~params:p ~config ~pathloss:(pl_of sc) stream
      in
      Alcotest.(check int) "checkpoints written" 2
        uninterrupted.checkpoints_written;
      (* "kill" after the last checkpoint: resume from disk and replay *)
      let restore = Daemon.Checkpoint.load path in
      Alcotest.(check int) "cut at epoch 8" 8 restore.Daemon.Checkpoint.epoch;
      let resumed =
        Daemon.Driver.run ~restore ~params:p ~config ~pathloss:(pl_of sc)
          stream
      in
      Alcotest.(check string) "same topology digest"
        uninterrupted.topology_digest resumed.topology_digest;
      Alcotest.(check (list string)) "resumed run stays equivalent" []
        resumed.equivalence_failures)

let test_checkpoint_load_failures () =
  Alcotest.(check bool) "missing file raises" true
    (match Daemon.Checkpoint.load "/nonexistent/daemon.ckpt" with
    | exception Failure _ -> true
    | _ -> false);
  let path = Filename.temp_file "daemon" ".junk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{not json";
      close_out oc;
      Alcotest.(check bool) "malformed raises" true
        (match Daemon.Checkpoint.load path with
        | exception Failure _ -> true
        | _ -> false))

let small_checkpoint ?(epoch = 3) ?(backlog_node = 1) () =
  {
    Daemon.Checkpoint.time = 3.5;
    epoch;
    positions =
      [| Geom.Vec2.make 0.25 10.; Geom.Vec2.make 7. (-2.5); Geom.Vec2.make 1e3 3. |];
    alive = [| true; false; true |];
    backlog =
      [ move ~t:3.25 backlog_node; leave ~t:3.5 2;
        ev ~t:3.5 ~node:0 (Daemon.Event.Join (Geom.Vec2.make 4. 5.)) ];
    counters = [ ("events", 12); ("shed", 0) ];
  }

let with_temp_path f =
  let path = Filename.temp_file "daemon" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_checkpoint_save_atomic () =
  with_temp_path (fun path ->
      let first = small_checkpoint () in
      Daemon.Checkpoint.save path first;
      Alcotest.(check bool) "no temporary left after a save" false
        (Sys.file_exists (path ^ ".tmp"));
      (* an unwritable temporary: the save must fail before touching
         the live checkpoint *)
      Sys.mkdir (path ^ ".tmp") 0o755;
      Fun.protect ~finally:(fun () -> Sys.rmdir (path ^ ".tmp")) (fun () ->
          Alcotest.(check bool) "save raises" true
            (match Daemon.Checkpoint.save path (small_checkpoint ~epoch:4 ()) with
            | exception Sys_error _ -> true
            | () -> false));
      Alcotest.(check bool) "previous checkpoint still loads unchanged" true
        (Daemon.Checkpoint.load path = first))

let test_checkpoint_rejects_out_of_range () =
  let rejects what c =
    Alcotest.(check bool) what true
      (match Daemon.Checkpoint.of_json (Daemon.Checkpoint.to_json c) with
      | exception Failure _ -> true
      | _ -> false)
  in
  rejects "backlog node = n" (small_checkpoint ~backlog_node:3 ());
  rejects "negative backlog node" (small_checkpoint ~backlog_node:(-1) ());
  rejects "negative epoch" (small_checkpoint ~epoch:(-1) ());
  Alcotest.(check bool) "in-range checkpoint accepted" true
    (Daemon.Checkpoint.of_json (Daemon.Checkpoint.to_json (small_checkpoint ()))
    = small_checkpoint ())

let test_checkpoint_truncation () =
  with_temp_path (fun path ->
      let c = small_checkpoint () in
      let line = Obs.Jsonl.to_string (Daemon.Checkpoint.to_json c) in
      let load_text text =
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Daemon.Checkpoint.load path
      in
      for len = 0 to String.length line - 1 do
        match load_text (String.sub line 0 len) with
        | exception Failure _ -> ()
        | exception e ->
            Alcotest.failf "prefix of %d bytes: %s instead of Failure" len
              (Printexc.to_string e)
        | _ -> Alcotest.failf "prefix of %d bytes loaded" len
      done;
      Alcotest.(check bool) "full line round-trips" true (load_text line = c))

(* ------------------------------------------------------------------ *)
(* qcheck: random streams keep incremental == full                    *)

let equivalence_prop =
  QCheck.Test.make ~count:30 ~name:"incremental equals full on random streams"
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, epochs) ->
      let sc = scenario ~n:20 (1000 + seed) in
      let eng =
        run_stream_through_engine ~watchdog_frac:0.3 sc ~seed ~epochs
      in
      Daemon.Engine.check_full_equivalence eng = Ok ())

(* ------------------------------------------------------------------ *)
(* Connectivity verdict: union-find partitions vs the graph oracle    *)

(* The graph computation the driver's connectivity check replaces, kept
   as its oracle: G_R and the tracked closure, each restricted to the
   true survivors, compared by component partition. *)
let restrict g alive =
  let h = Graphkit.Ugraph.create (Graphkit.Ugraph.nb_nodes g) in
  Graphkit.Ugraph.iter_edges
    (fun u v -> if alive.(u) && alive.(v) then Graphkit.Ugraph.add_edge h u v)
    g;
  h

(* Checks that both partitions equal the oracle graphs' components
   exactly, and returns the (oracle, partition) verdict pair. *)
let verdicts ?env pl eng ~truth_pos ~truth_alive =
  let reference =
    restrict (Cbtc.Geo.max_power_graph ?env pl truth_pos) truth_alive
  in
  let tracked = restrict (Daemon.Engine.topology eng) truth_alive in
  let pr = Cbtc.Geo.max_power_partition ?env ~alive:truth_alive pl truth_pos in
  let pt = Daemon.Engine.partition ~alive:truth_alive eng in
  if pr <> Graphkit.Traversal.components reference then
    Alcotest.fail "max_power_partition /= components of restricted G_R";
  if pt <> Graphkit.Traversal.components tracked then
    Alcotest.fail "Engine.partition /= components of restricted closure";
  (Metrics.Connectivity.preserves ~reference tracked, pr = pt)

(* An engine driven through a churned stream, then a truth that has
   drifted from it: some nodes moved elsewhere in the field, some
   liveness flipped. *)
let drifted_engine ~sigma ~seed ~epochs =
  let sc = scenario ~n:40 (2000 + seed) in
  let pl = pl_of sc in
  let env = Radio.Env.make ~sigma_db:sigma ~shadow_seed:seed pl in
  let positions = Workload.Scenario.positions sc in
  let n = Array.length positions in
  let prng = Prng.create ~seed in
  let churn =
    Faults.Plan.random_crashes ~prng ~n ~fraction:0.2
      ~window:(0., float_of_int epochs /. 2.)
      ~recover_after:(float_of_int epochs) ()
  in
  let src =
    Daemon.Source.create ~seed ~field:sc.Workload.Scenario.field
      ~params:Workload.Mobility.default_params ~move_rate:30. ~churn positions
  in
  let eng = Daemon.Engine.create ~env ~watchdog_frac:1. config pl positions in
  for ep = 1 to epochs do
    List.iter (Daemon.Engine.apply eng)
      (Daemon.Source.tick src ~until:(float_of_int ep));
    ignore (Daemon.Engine.commit eng)
  done;
  let w = sc.Workload.Scenario.field.Workload.Placement.width in
  let h = sc.Workload.Scenario.field.Workload.Placement.height in
  let truth_pos =
    Array.init n (fun u ->
        if Prng.float prng 1. < 0.15 then
          Geom.Vec2.make (Prng.float prng w) (Prng.float prng h)
        else Daemon.Engine.position eng u)
  in
  let truth_alive =
    Array.init n (fun u ->
        Daemon.Engine.alive eng u <> (Prng.float prng 1. < 0.1))
  in
  (env, pl, eng, truth_pos, truth_alive)

let partition_verdict_prop =
  QCheck.Test.make ~count:40
    ~name:"partition verdict = graph oracle"
    QCheck.(pair small_int (int_range 0 6))
    (fun (seed, epochs) ->
      List.for_all
        (fun sigma ->
          let env, pl, eng, truth_pos, truth_alive =
            drifted_engine ~sigma ~seed ~epochs
          in
          let oracle, partition =
            verdicts ~env pl eng ~truth_pos ~truth_alive
          in
          oracle = partition)
        [ 0.; 4. ])

let test_partition_detects_lost_connectivity () =
  List.iter
    (fun sigma ->
      let sc = scenario 19 in
      let pl = pl_of sc in
      let env = Radio.Env.make ~sigma_db:sigma ~shadow_seed:5 pl in
      let positions = Workload.Scenario.positions sc in
      let n = Array.length positions in
      let eng = Daemon.Engine.create ~env ~watchdog_frac:1. config pl positions in
      let truth_alive = Array.make n true in
      Alcotest.(check (pair bool bool))
        (Fmt.str "sigma %g: tracked truth preserves connectivity" sigma)
        (true, true)
        (verdicts ~env pl eng ~truth_pos:positions ~truth_alive);
      (* truth moves a linked node out of everyone's range; the engine
         still tracks it at its old place, linked to its neighbors *)
      let topo = Daemon.Engine.topology eng in
      let u =
        match
          List.find_opt (fun u -> Graphkit.Ugraph.degree topo u > 0)
            (List.init n Fun.id)
        with
        | Some u -> u
        | None -> Alcotest.fail "no linked node"
      in
      let truth_pos = Array.copy positions in
      truth_pos.(u) <- Geom.Vec2.make 1e7 1e7;
      Alcotest.(check (pair bool bool))
        (Fmt.str "sigma %g: node %d out of range breaks the verdict" sigma u)
        (false, false)
        (verdicts ~env pl eng ~truth_pos ~truth_alive))
    [ 0.; 4. ]

let () =
  Alcotest.run "daemon"
    [
      ( "equeue",
        [
          Alcotest.test_case "fifo" `Quick test_equeue_fifo;
          Alcotest.test_case "sheds oldest move" `Quick
            test_equeue_sheds_oldest_move;
          Alcotest.test_case "never drops criticals" `Quick
            test_equeue_never_drops_critical;
          Alcotest.test_case "restore bypasses shedding" `Quick
            test_equeue_restore_bypasses_shedding;
        ] );
      ( "events",
        [ Alcotest.test_case "json round-trip" `Quick test_event_json_roundtrip ] );
      ( "source",
        [
          Alcotest.test_case "deterministic" `Quick test_source_deterministic;
          Alcotest.test_case "churn to events" `Quick test_source_churn_to_events;
        ] );
      ( "engine",
        [
          Alcotest.test_case "equivalence (incremental)" `Quick
            test_engine_equivalence_incremental;
          Alcotest.test_case "equivalence (watchdog)" `Quick
            test_engine_equivalence_watchdog;
          Alcotest.test_case "survivor guarantees" `Quick
            test_engine_verify_survivors;
          Alcotest.test_case "grid lifecycle under drift" `Quick
            test_engine_grid_lifecycle;
          QCheck_alcotest.to_alcotest equivalence_prop;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean run not degraded" `Quick
            test_driver_clean_run_not_degraded;
          Alcotest.test_case "overload degrades then heals" `Quick
            test_driver_overload_degrades_then_heals;
          Alcotest.test_case "epoch count must fit an int" `Quick
            test_driver_rejects_bad_epoch_count;
          Alcotest.test_case "checkpoint restore digest" `Quick
            test_driver_checkpoint_restore_same_digest;
          Alcotest.test_case "checkpoint load failures" `Quick
            test_checkpoint_load_failures;
          Alcotest.test_case "checkpoint save is atomic" `Quick
            test_checkpoint_save_atomic;
          Alcotest.test_case "checkpoint rejects out-of-range events" `Quick
            test_checkpoint_rejects_out_of_range;
          Alcotest.test_case "checkpoint truncation" `Quick
            test_checkpoint_truncation;
        ] );
      ( "verify",
        [
          Alcotest.test_case "partition detects lost connectivity" `Quick
            test_partition_detects_lost_connectivity;
          QCheck_alcotest.to_alcotest partition_verdict_prop;
        ] );
    ]
