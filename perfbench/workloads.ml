(* The benchmark's workloads.  Each is a closed loop with one caller:
   the next operation starts when the previous one returns.  Every
   input is drawn from the run's seed inside the benchmark; the program
   only receives the generated positions and streams.

   An instance first sets itself up [setup_reps] times (each set-up
   timed, all but the last released), then serves [run ~rep]: rep 0 is
   the untimed warm-up, whose output is verified in full and whose
   digest is pinned at seed 42; reps >= 1 are the timed operations, each
   on inputs of its own, so no result can be reused across reps.

   A traced operation additionally passes a clocked [Obs.Recorder] to
   the library's [?obs] hooks, wraps bench-side spans around the public
   calls the library does not span, and returns per-layer readings. *)

type config = {
  seed : int;
  jobs : int;
  smoke : bool;  (* tiny inputs, for the smoke alias *)
  trace : bool;  (* the run will trace some of its operations *)
  out_dir : string;  (* where checkpoint files go *)
}

type op = {
  wall_s : float;
  items : int;  (* units of work the operation completed *)
  alloc_bytes : float;  (* allocated by all domains during the call *)
  checked : int;  (* outputs checked *)
  failures : string list;  (* one message per failed check *)
  digest : string;  (* MD5 of the operation's output *)
  steps_s : float list;  (* traced: durations of the operation's steps *)
  layers : (string * float) list;  (* traced: per-layer readings *)
}

type instance = {
  setup_s : float list;
  run : rep:int -> traced:bool -> op;
  close : unit -> unit;
}

type t = {
  name : string;
  item : string;  (* what [op.items] counts *)
  pin : string;  (* digest of the warm-up output at seed 42 *)
  start : config -> instance;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let word_bytes = float_of_int (Sys.word_size / 8)

(* [Gc.quick_stat] sums the counters of every domain (as of each
   domain's last minor collection), so pool workers' allocations count;
   [Gc.allocated_bytes] would see the calling domain only. *)
let allocated () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. word_bytes

let measured f =
  let a0 = allocated () in
  let x, wall = timed f in
  (x, wall, allocated () -. a0)

(* Heap held by a value: every word reachable from it. *)
let live_mb v =
  float_of_int (Obj.reachable_words (Obj.repr v)) *. word_bytes /. 1048576.

(* Rep [r] of the run with seed [s] draws its inputs from (s, r) alone.
   Consecutive reps are 10^7 apart, so the 7919-strided scenario seeds
   of a sweep pass (fewer than 1262 networks) never overlap. *)
let rep_seed cfg rep = (cfg.seed * 1_000_000_007) + (rep * 10_000_019)

let setup_reps = 5

let repeat_setup ~release f =
  let rec go k times prev =
    Option.iter release prev;
    let x, dt = timed f in
    if k = 1 then (x, List.rev (dt :: times)) else go (k - 1) (dt :: times) (Some x)
  in
  go setup_reps [] None

(* The pool, plus the clocked recorder its task latencies go to when
   the run traces ([Parallel.Pool] records [pool.task_s] only then). *)
type pool = { pool : Parallel.Pool.t; pool_obs : Obs.Recorder.t }

let make_pool cfg =
  let pool_obs =
    if cfg.trace then Obs.Recorder.create ~clock:now () else Obs.Recorder.nil
  in
  { pool = Parallel.Pool.create ~obs:pool_obs ~jobs:cfg.jobs (); pool_obs }

let close_pool p = Parallel.Pool.shutdown p.pool

(* Task time the pool has recorded so far. *)
let pool_busy_s p = snd (Spans.hist p.pool_obs "pool.task_s")

(* Share of [wall_s] x jobs the pool's tasks were busy since [before]:
   read right after the call, before bench-side work uses the pool. *)
let pool_busy_frac p ~before ~wall_s =
  (pool_busy_s p -. before) /. (wall_s *. float_of_int (Parallel.Pool.jobs p.pool))

(* The paper's density (average G_R degree ~25.6) at any n. *)
let scenario ~n ~seed =
  let side = 1500. *. Float.sqrt (float_of_int n /. 100.) in
  Workload.Scenario.make ~n ~width:side ~height:side ~seed ()

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

let per_node_us s nodes = s /. float_of_int nodes *. 1e6

let ratio a b = if b > 0. then a /. b else 0.

(* Discovery counters recorded by [Cbtc.Geo]: mean candidates per node,
   and useful work over attempts (discovered neighbors / candidates). *)
let discovery_counts obs =
  let nodes, cand = Spans.hist obs "discovery.candidates" in
  let _, degree = Spans.hist obs "discovery.degree" in
  [ ("geo.candidates_per_node", ratio cand (float_of_int nodes));
    ("geo.kept_ratio", ratio degree cand) ]

(* ------------------------------------------------------------------ *)
(* sweep-paper                                                         *)
(* ------------------------------------------------------------------ *)

let paper_n = (Workload.Scenario.paper ~seed:0).Workload.Scenario.n

(* [Geo.run] is [Soa.to_discovery] of [Geo.run_flat], and only the flat
   kernel sits inside the [discovery] span: the list shim's cost is
   measured bench-side, per node, on the first networks of the pass. *)
let sweep_shim_s_per_node seeds =
  let reps = 20 in
  let sample = Array.sub seeds 0 (Stdlib.min 8 (Array.length seeds)) in
  let total = ref 0. and nodes = ref 0 in
  Array.iter
    (fun seed ->
      let sc = Workload.Scenario.paper ~seed in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      List.iter
        (fun config ->
          let flat = Cbtc.Geo.run_flat config pl positions in
          let (), dt =
            timed (fun () ->
                for _ = 1 to reps do
                  ignore (Sys.opaque_identity (Cbtc.Soa.to_discovery flat))
                done)
          in
          total := !total +. dt;
          nodes := !nodes + (reps * Array.length positions))
        [ Table1.c56; Table1.c23 ])
    sample;
  !total /. float_of_int !nodes

let sweep_digest results =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (vals, broken) ->
      List.iter (fun (d, r) -> add_float b d; add_float b r) vals;
      Buffer.add_char b (if broken then '!' else '.'))
    results;
  md5 b

let sweep =
  let start cfg =
    let networks = if cfg.smoke then 4 else 100 in
    let warmup = if cfg.smoke then 2 else 20 in
    let seeds_of base count =
      Array.of_list (Workload.Scenario.seeds ~base ~count)
    in
    let p, setup_s =
      repeat_setup ~release:close_pool (fun () ->
          let p = make_pool cfg in
          ignore
            (Parallel.Pool.map p.pool
               (fun s -> Table1.trial s)
               (seeds_of (rep_seed cfg (-1)) warmup));
          p)
    in
    let run ~rep ~traced =
      let seeds = seeds_of (rep_seed cfg rep) networks in
      let busy0 = pool_busy_s p in
      let traced_results, wall_s, alloc_bytes =
        measured (fun () ->
            Parallel.Pool.map p.pool
              (fun s ->
                if traced then begin
                  (* recorders are single-domain: one per network,
                     merged below in seed order *)
                  let obs = Obs.Recorder.create ~clock:now () in
                  let r =
                    Obs.Recorder.span obs "sweep.network" (fun () ->
                        Table1.trial ~obs s)
                  in
                  (r, obs)
                end
                else (Table1.trial s, Obs.Recorder.nil))
              seeds)
      in
      let busy = pool_busy_frac p ~before:busy0 ~wall_s in
      let results = Array.map fst traced_results in
      let failures =
        Array.to_list results
        |> List.mapi (fun i (_, broken) ->
               if broken then
                 [ Printf.sprintf
                     "network %d: all-ops 5pi/6 topology broke G_R connectivity"
                     seeds.(i) ]
               else [])
        |> List.concat
      in
      let steps_s, layers =
        if not traced then ([], [])
        else begin
          let obs = Obs.Recorder.create ~clock:now () in
          Array.iter (fun (_, o) -> Obs.Recorder.merge_into ~into:obs o) traced_results;
          let sp = Spans.of_recorder obs in
          (* the passes run on every domain at once: shares are of the
             summed per-network time, not of the pass wall time *)
          let work = Spans.total sp "sweep.network" in
          let share name = Spans.total sp name /. work in
          let nodes = Obs.Recorder.counter obs "discovery.nodes" in
          let shim = sweep_shim_s_per_node seeds *. float_of_int nodes in
          let first = Workload.Scenario.paper ~seed:seeds.(0) in
          let kept =
            Cbtc.Pipeline.run_oracle
              (Workload.Scenario.pathloss first)
              (Workload.Scenario.positions first)
              (Cbtc.Pipeline.all_ops Table1.c56)
          in
          ( Spans.durations sp "sweep.network",
            [
              ("geo.flat_frac", share "discovery");
              ("geo.list_shim_frac", shim /. work);
              ("optimize.shrink_back_frac", share "shrink-back");
              ("optimize.asym_frac", share "asym-removal");
              ("optimize.pairwise_frac", share "pairwise-removal");
              ("pipeline.self_frac", Spans.self sp "pipeline" /. work);
              ("proximity.max_power_frac", share "proximity.max_power");
              ("discovery.us_per_node", per_node_us (Spans.total sp "discovery") nodes);
              ( "gr.us_per_node",
                per_node_us
                  (Spans.total sp "proximity.max_power")
                  (Spans.count sp "proximity.max_power" * paper_n) );
              ( "connectivity.us_per_node",
                per_node_us
                  (Spans.total sp "connectivity")
                  (Spans.count sp "connectivity" * paper_n) );
              ("pool.busy_frac", busy);
              ("result.live_mb", live_mb kept);
            ]
            @ discovery_counts obs )
        end
      in
      {
        wall_s;
        items = networks;
        alloc_bytes;
        checked = networks;
        failures;
        digest = sweep_digest results;
        steps_s;
        layers;
      }
    in
    { setup_s; run; close = (fun () -> close_pool p) }
  in
  {
    name = "sweep-paper";
    item = "networks";
    pin = "a23eae59cb75dd77fad9001d06307c2b";
    start;
  }

(* ------------------------------------------------------------------ *)
(* construct-50k, construct-shadow                                     *)
(* ------------------------------------------------------------------ *)

let construct_digest (r : Cbtc.Pipeline.t) =
  let b = Buffer.create 65536 in
  Graphkit.Ugraph.iter_edges
    (fun u v ->
      Buffer.add_int64_le b (Int64.of_int u);
      Buffer.add_int64_le b (Int64.of_int v))
    r.Cbtc.Pipeline.graph;
  Array.iter (add_float b) r.Cbtc.Pipeline.radius;
  md5 b

let construct ~name ~n ~smoke_n ~sigma_db ~pin =
  let start cfg =
    let n = if cfg.smoke then smoke_n else n in
    let plan = Cbtc.Pipeline.all_ops Table1.c56 in
    (* an input: the placement and its propagation environment (one
       shadowing draw per placement) *)
    let input rep =
      let seed = rep_seed cfg rep in
      let sc = scenario ~n ~seed in
      let pl = Workload.Scenario.pathloss sc in
      let env =
        if sigma_db > 0. then Some (Radio.Env.make ~sigma_db ~shadow_seed:seed pl)
        else None
      in
      (pl, Workload.Scenario.positions sc, env)
    in
    (* set-up: the pool, the warm-up's input, and the pipeline run once
       on the first tenth of that placement (domains spawned, code and
       heap warm), as the sweep's set-up runs a short pass *)
    let (p, input0), setup_s =
      repeat_setup
        ~release:(fun (p, _) -> close_pool p)
        (fun () ->
          let p = make_pool cfg in
          let ((pl, positions, env) as inp) = input 0 in
          ignore
            (Cbtc.Pipeline.run_oracle ~pool:p.pool ?env pl
               (Array.sub positions 0 (n / 10))
               plan);
          (p, inp))
    in
    (* The warm-up's G_R reference, and the time it and the connectivity
       comparison against it took.  Theorem 2.1 guarantees preservation
       only for sigma = 0: under shadowing, link power is not monotone
       in distance and pairwise removal's triangle argument fails, so
       there the comparison is only timed, for the traced layers. *)
    let checks_reference = sigma_db = 0. in
    let reference = ref None in
    let compare_reference (pl, positions, env) (r : Cbtc.Pipeline.t) =
      let gr, gr_s =
        timed (fun () -> Cbtc.Geo.max_power_graph ~pool:p.pool ?env pl positions)
      in
      let preserved, connectivity_s =
        timed (fun () -> Metrics.Connectivity.preserves ~reference:gr r.graph)
      in
      reference := Some (gr_s, connectivity_s);
      if preserved || not checks_reference then []
      else [ "warm-up: topology broke G_R connectivity" ]
    in
    let run ~rep ~traced =
      let ((pl, positions, env) as inp) = if rep = 0 then input0 else input rep in
      let obs =
        if traced then Obs.Recorder.create ~clock:now () else Obs.Recorder.nil
      in
      let busy0 = pool_busy_s p in
      let r, wall_s, alloc_bytes =
        measured (fun () ->
            Obs.Recorder.span obs "pipeline" (fun () ->
                Cbtc.Pipeline.run_oracle ~pool:p.pool ~obs ?env pl positions plan))
      in
      let busy = pool_busy_frac p ~before:busy0 ~wall_s in
      (* every rep: the discovery guarantees, recomputed from positions
         (completeness is left out: its check is O(n^2)) *)
      let failures =
        (match Cbtc.Verify.run ?env ~minimal:true r.discovery with
        | () -> []
        | exception Failure m -> [ Printf.sprintf "rep %d: %s" rep m ])
        @
        if rep = 0 && (checks_reference || cfg.trace) then compare_reference inp r
        else []
      in
      let layers =
        if not traced then []
        else begin
          let sp = Spans.of_recorder obs in
          let flat = Cbtc.Geo.run_flat ~pool:p.pool ?env Table1.c56 pl positions in
          let _, shim_s = timed (fun () -> Cbtc.Soa.to_discovery flat) in
          let share name = Spans.total sp name /. wall_s in
          let reference_s, connectivity_s = Option.get !reference in
          [
            ("geo.flat_frac", share "discovery");
            ("geo.list_shim_frac", shim_s /. wall_s);
            ("optimize.shrink_back_frac", share "shrink-back");
            ("optimize.asym_frac", share "asym-removal");
            ("optimize.pairwise_frac", share "pairwise-removal");
            ("pipeline.self_frac", Spans.self sp "pipeline" /. wall_s);
            ("discovery.us_per_node", per_node_us (Spans.total sp "discovery") n);
            ("gr.us_per_node", per_node_us reference_s n);
            ("connectivity.us_per_node", per_node_us connectivity_s n);
            ("pool.busy_frac", busy);
            ("result.live_mb", live_mb r);
          ]
          @ discovery_counts obs
        end
      in
      {
        wall_s;
        items = n;
        alloc_bytes;
        checked = (if rep = 0 && checks_reference then 2 else 1);
        failures;
        digest = construct_digest r;
        steps_s = (if traced then [ wall_s ] else []);
        layers;
      }
    in
    { setup_s; run; close = (fun () -> close_pool p) }
  in
  { name; item = "nodes"; pin; start }

let construct_50k =
  construct ~name:"construct-50k" ~n:50_000 ~smoke_n:2_000 ~sigma_db:0.
    ~pin:"8fb8561b6199d28717b44cbfad6dee81"

let construct_shadow =
  construct ~name:"construct-shadow" ~n:20_000 ~smoke_n:1_000 ~sigma_db:4.
    ~pin:"e157605d2580a6d819349744270be456"

(* ------------------------------------------------------------------ *)
(* daemon-stream, daemon-ops                                           *)
(* ------------------------------------------------------------------ *)

(* Costs of the public calls [Daemon.Driver]'s verification, digest and
   checkpoint make, timed one by one on the set-up engine. *)
type snapshot = {
  discovery_copy_s : float;
  check_surviving_s : float;
  max_power_graph_s : float;
  topology_s : float;
  connectivity_s : float;
  digest_s : float;
  checkpoint_save_s : float;
  checkpoint_bytes : int;
  engine_live_mb : float;
}

let snapshot p engine ~pathloss ~path =
  let n = Daemon.Engine.nb_nodes engine in
  let alive = Array.init n (Daemon.Engine.alive engine) in
  let positions = Array.init n (Daemon.Engine.position engine) in
  let d, discovery_copy_s = timed (fun () -> Daemon.Engine.discovery engine) in
  let _, check_surviving_s =
    timed (fun () -> Cbtc.Verify.check_surviving ~alive d)
  in
  let reference, max_power_graph_s =
    timed (fun () -> Cbtc.Geo.max_power_graph ~pool:p.pool pathloss positions)
  in
  let topology, topology_s = timed (fun () -> Daemon.Engine.topology engine) in
  let _, connectivity_s =
    timed (fun () -> Metrics.Connectivity.preserves ~reference topology)
  in
  let _, digest_s = timed (fun () -> Daemon.Engine.digest engine) in
  let (), checkpoint_save_s =
    timed (fun () ->
        Daemon.Checkpoint.save path
          { Daemon.Checkpoint.time = 0.; epoch = 0; positions; alive;
            backlog = []; counters = [] })
  in
  {
    discovery_copy_s;
    check_surviving_s;
    max_power_graph_s;
    topology_s;
    connectivity_s;
    digest_s;
    checkpoint_save_s;
    checkpoint_bytes = (Unix.stat path).Unix.st_size;
    engine_live_mb = live_mb engine;
  }

let daemon ~name ~n ~smoke_n ~move_rate ~epochs ~smoke_epochs ~crash ~every ~pin =
  let start cfg =
    let n = if cfg.smoke then smoke_n else n in
    let epochs = if cfg.smoke then smoke_epochs else epochs in
    let every = if cfg.smoke then Stdlib.min every 2 else every in
    let duration = float_of_int epochs in
    let placement rep = scenario ~n ~seed:(rep_seed cfg rep) in
    let pathloss = Workload.Scenario.pathloss (placement 0) in
    let ckpt_path = Filename.concat cfg.out_dir (name ^ ".ckpt.json") in
    (* set-up: the pool and an engine grown on the warm-up's positions *)
    let (p, engine), setup_s =
      repeat_setup
        ~release:(fun (p, _) -> close_pool p)
        (fun () ->
          let p = make_pool cfg in
          ( p,
            Daemon.Engine.create ~pool:p.pool
              ~watchdog_frac:Daemon.Engine.default_watchdog_frac Table1.c56
              pathloss
              (Workload.Scenario.positions (placement 0)) ))
    in
    let create_s = Stats.Summary.((of_list setup_s).median) in
    let snap = lazy (snapshot p engine ~pathloss ~path:ckpt_path) in
    let run ~rep ~traced =
      let seed = rep_seed cfg rep in
      let sc = placement rep in
      let churn =
        if crash <= 0. then Faults.Plan.empty
        else
          Faults.Plan.random_crashes
            ~prng:(Prng.create ~seed:(seed + 1))
            ~n ~fraction:crash
            ~window:(0.1 *. duration, 0.6 *. duration)
            ~recover_after:(0.25 *. duration) ()
      in
      let stream =
        {
          Daemon.Driver.seed = seed + 2;
          field = sc.Workload.Scenario.field;
          mobility = Workload.Mobility.default_params;
          move_rate;
          storm = None;
          churn;
          positions = Workload.Scenario.positions sc;
        }
      in
      let params =
        {
          Daemon.Driver.default_params with
          duration;
          verify_every = every;
          checkpoint_every = every;
          checkpoint_path = (if every > 0 then Some ckpt_path else None);
          (* incremental == full, checked on the warm-up only *)
          equivalence_every = (if rep = 0 then Stdlib.max 1 (epochs / 2) else 0);
        }
      in
      let obs = if traced then Some (Obs.Recorder.create ~clock:now ()) else None in
      let busy0 = pool_busy_s p in
      let r, wall_s, alloc_bytes =
        measured (fun () ->
            Daemon.Driver.run ~pool:p.pool ?obs ~clock:now ~params
              ~config:Table1.c56 ~pathloss stream)
      in
      let busy = pool_busy_frac p ~before:busy0 ~wall_s in
      let events = r.Daemon.Driver.engine.Daemon.Engine.events in
      let fd = r.Daemon.Driver.final_degradation in
      let failures =
        r.Daemon.Driver.verify_failures
        @ r.Daemon.Driver.equivalence_failures
        @ (if r.Daemon.Driver.queue.Daemon.Equeue.shed > 0 then
             [ Printf.sprintf "%d events shed" r.Daemon.Driver.queue.Daemon.Equeue.shed ]
           else [])
        @
        if Daemon.Driver.degraded fd then
          [ Printf.sprintf "final degradation: drift %d, liveness lag %d, connectivity %b"
              fd.Daemon.Driver.drift fd.Daemon.Driver.liveness_lag
              fd.Daemon.Driver.connectivity_preserved ]
        else []
      in
      let steps_s, layers =
        match obs with
        | None -> ([], [])
        | Some obs ->
            let sp = Spans.of_recorder obs in
            let s = Lazy.force snap in
            let phase = Spans.total sp in
            let verify_calls = Spans.count sp "daemon.verify" in
            let per_verify = phase "daemon.verify" /. float_of_int verify_calls in
            let verify_parts =
              [
                ("verify.discovery_copy_frac", s.discovery_copy_s);
                ("verify.check_surviving_frac", s.check_surviving_s);
                ("verify.max_power_graph_frac", s.max_power_graph_s);
                ("verify.topology_frac", s.topology_s);
                ("verify.connectivity_frac", s.connectivity_s);
              ]
            in
            let attributed = List.fold_left (fun a (_, t) -> a +. t) 0. verify_parts in
            let checkpoints =
              float_of_int r.Daemon.Driver.checkpoints_written *. s.checkpoint_save_s
            in
            let phases =
              List.fold_left
                (fun a name -> a +. phase name)
                0.
                [ "daemon.drain"; "daemon.dirty_propagate"; "daemon.regrow";
                  "daemon.verify" ]
            in
            (* the engine's initial grow regrows every node once *)
            let regrown = r.Daemon.Driver.engine.Daemon.Engine.regrown - n in
            let frac t = t /. wall_s in
            ( List.map2 ( +. )
                (List.map2 ( +. )
                   (Spans.durations sp "daemon.drain")
                   (Spans.durations sp "daemon.dirty_propagate"))
                (Spans.durations sp "daemon.regrow"),
              [
                ("engine.create_frac", frac create_s);
                ("source.drain_frac", frac (phase "daemon.drain"));
                ("engine.apply_frac", frac (phase "daemon.dirty_propagate"));
                ("engine.regrow_frac", frac (phase "daemon.regrow"));
                ("driver.verify_frac", frac (phase "daemon.verify"));
                ("driver.checkpoint_frac", frac checkpoints);
                ("engine.digest_frac", frac s.digest_s);
                ( "driver.residual_frac",
                  frac (wall_s -. create_s -. phases -. checkpoints -. s.digest_s) );
              ]
              @ List.map (fun (k, t) -> (k, t /. per_verify)) verify_parts
              @ [
                  ("verify.unattributed_frac", (per_verify -. attributed) /. per_verify);
                  ("driver.verify_calls", float_of_int verify_calls);
                  ( "engine.regrown_per_event",
                    float_of_int regrown /. float_of_int events );
                  ( "engine.full_recomputes",
                    float_of_int r.Daemon.Driver.engine.Daemon.Engine.full_recomputes );
                  ("equeue.peak", float_of_int r.Daemon.Driver.queue.Daemon.Equeue.peak);
                  ("checkpoint.bytes", float_of_int s.checkpoint_bytes);
                  ("discovery.us_per_node", per_node_us (phase "daemon.regrow") regrown);
                  ("gr.us_per_node", per_node_us s.max_power_graph_s n);
                  ("connectivity.us_per_node", per_node_us s.connectivity_s n);
                  ("pool.busy_frac", busy);
                  ("result.live_mb", s.engine_live_mb);
                ] )
      in
      {
        wall_s;
        items = events;
        alloc_bytes;
        checked = 1;
        failures;
        digest = r.Daemon.Driver.topology_digest;
        steps_s;
        layers;
      }
    in
    { setup_s; run; close = (fun () -> close_pool p) }
  in
  { name; item = "events"; pin; start }

(* Four moves per node per operation, so the steady incremental path
   (dirty propagation and regrow) outweighs the O(n) create and final
   verification that bracket every stream. *)
let daemon_stream =
  daemon ~name:"daemon-stream" ~n:10_000 ~smoke_n:2_000 ~move_rate:2000.
    ~epochs:20 ~smoke_epochs:4 ~crash:0. ~every:0
    ~pin:"67dac2e579c28ceea25ae9d581af9f53"

(* Churn, and verification and checkpoints every five epochs: the O(n)
   bookkeeping inside the stream. *)
let daemon_ops =
  daemon ~name:"daemon-ops" ~n:10_000 ~smoke_n:1_000 ~move_rate:1000.
    ~epochs:10 ~smoke_epochs:4 ~crash:0.1 ~every:5
    ~pin:"40239daacaec374d73179a6d5f75a8f0"

let all = [ sweep; construct_50k; construct_shadow; daemon_stream; daemon_ops ]
