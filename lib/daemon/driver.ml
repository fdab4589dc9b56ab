(* The daemon loop: epoch by epoch, pull events from the deterministic
   source, push them through the bounded queue (shedding under
   overload), apply the survivors to the incremental engine, and commit.
   Around that core: continuous verification against the CBTC guarantees
   and the ground truth, the incremental-vs-full equivalence invariant,
   and periodic checkpoints for crash recovery.

   Determinism: everything observable — events, shedding decisions,
   regrown cones, digests — is a pure function of (stream, params,
   epoch boundaries).  The pool only changes where regrowth runs, never
   what it computes, so reports are byte-identical at every -j. *)

type params = {
  duration : float;
  event_dt : float;  (* epoch length: events are batched per epoch *)
  budget : int;  (* max events applied per epoch; <= 0 = unlimited *)
  queue_cap : int;
  watchdog_frac : float;
  verify_every : int;  (* epochs between truth checks; 0 = final only *)
  equivalence_every : int;  (* epochs between invariant checks; 0 = never *)
  checkpoint_every : int;  (* epochs between snapshots; 0 = never *)
  checkpoint_path : string option;
}

let default_params =
  {
    duration = 10.;
    event_dt = 1.;
    budget = 0;
    queue_cap = 4096;
    watchdog_frac = Engine.default_watchdog_frac;
    verify_every = 0;
    equivalence_every = 0;
    checkpoint_every = 0;
    checkpoint_path = None;
  }

type stream = {
  seed : int;
  field : Workload.Placement.field;
  mobility : Workload.Mobility.params;
  move_rate : float;
  storm : (float * float * float) option;
  churn : Faults.Plan.t;
  positions : Geom.Vec2.t array;
}

type degradation = { drift : int; liveness_lag : int; connectivity_preserved : bool }

let degraded d = d.drift > 0 || d.liveness_lag > 0 || not d.connectivity_preserved

type latency = { p50 : float; p95 : float; p99 : float; max : float; samples : int }

type report = {
  epochs : int;
  duration : float;
  live : int;
  queue : Equeue.stats;
  engine : Engine.stats;
  latency : latency option;  (* None when no event was applied *)
  verify_checks : int;
  degraded_checks : int;
  final_degradation : degradation;
  verify_failures : string list;  (* violated guarantees = engine bugs *)
  equivalence_checks : int;
  equivalence_failures : string list;
  checkpoints_written : int;
  grid : Geom.Grid.health;
  topology_digest : string;
  wall_s : float option;
}

(* Growable float buffer for latency samples (tens of thousands of
   events at n = 10k: keep them unboxed). *)
module Samples = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0. in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  (* nearest-rank percentiles on a sorted copy *)
  let latency t =
    if t.len = 0 then None
    else begin
      let s = Array.sub t.a 0 t.len in
      Array.sort Float.compare s;
      let pct q =
        let r = int_of_float (Float.ceil (q /. 100. *. float_of_int t.len)) in
        s.(Stdlib.max 0 (Stdlib.min (t.len - 1) (r - 1)))
      in
      Some
        {
          p50 = pct 50.;
          p95 = pct 95.;
          p99 = pct 99.;
          max = s.(t.len - 1);
          samples = t.len;
        }
    end
end

let counters_of (es : Engine.stats) (qs : Equeue.stats) =
  [
    ("events", es.events);
    ("moves", es.moves);
    ("leaves", es.leaves);
    ("joins", es.joins);
    ("commits", es.commits);
    ("regrown", es.regrown);
    ("full_recomputes", es.full_recomputes);
    ("pushed", qs.pushed);
    ("popped", qs.popped);
    ("shed", qs.shed);
    ("overflow", qs.overflow);
    ("peak", qs.peak);
  ]

let restore_counters (es : Engine.stats) (qs : Equeue.stats) kvs =
  let get k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
  es.events <- get "events";
  es.moves <- get "moves";
  es.leaves <- get "leaves";
  es.joins <- get "joins";
  es.commits <- get "commits";
  es.regrown <- get "regrown";
  es.full_recomputes <- get "full_recomputes";
  qs.pushed <- get "pushed";
  qs.popped <- get "popped";
  qs.shed <- get "shed";
  qs.overflow <- get "overflow";
  qs.peak <- get "peak"

let validate (params : params) (stream : stream) =
  if not (params.duration > 0.) then
    invalid_arg "Daemon.Driver.run: duration must be positive";
  if not (params.event_dt > 0.) then
    invalid_arg "Daemon.Driver.run: event_dt must be positive";
  if not (Float.is_finite params.duration && Float.is_finite params.event_dt)
  then invalid_arg "Daemon.Driver.run: duration and event_dt must be finite";
  (* [run]'s epoch count, [ceil (duration / event_dt)], must fit an int:
     [int_of_float] is unspecified from 2^62 up, and a wrapped count
     silently ran a single epoch *)
  let epochs = Float.ceil (params.duration /. params.event_dt) in
  if not (epochs < Float.of_int max_int) then
    invalid_arg "Daemon.Driver.run: duration / event_dt is too many epochs";
  if params.queue_cap < 1 then
    invalid_arg "Daemon.Driver.run: queue_cap must be >= 1";
  if not (params.watchdog_frac >= 0.) then
    invalid_arg "Daemon.Driver.run: watchdog_frac must be >= 0";
  if Array.length stream.positions < 2 then
    invalid_arg "Daemon.Driver.run: need at least two nodes"

let run ?pool ?obs ?clock ?restore ?env ~params ~config ~pathloss stream =
  validate params stream;
  let t_start = match clock with Some c -> Some (c ()) | None -> None in
  let total =
    Stdlib.max 1 (int_of_float (Float.ceil (params.duration /. params.event_dt)))
  in
  let boundary ep =
    Stdlib.min params.duration (float_of_int (ep + 1) *. params.event_dt)
  in
  let n = Array.length stream.positions in
  let src =
    Source.create ~seed:stream.seed ~field:stream.field ~params:stream.mobility
      ~move_rate:stream.move_rate ?storm:stream.storm ~churn:stream.churn
      stream.positions
  in
  let engine, queue, start_epoch =
    match restore with
    | None ->
        ( Engine.create ?pool ?env ~watchdog_frac:params.watchdog_frac config
            pathloss stream.positions,
          Equeue.create ~capacity:params.queue_cap,
          0 )
    | Some (c : Checkpoint.t) ->
        if Array.length c.positions <> n then
          invalid_arg "Daemon.Driver.run: checkpoint node count mismatch";
        if c.epoch < 0 || c.epoch > total then
          invalid_arg "Daemon.Driver.run: checkpoint epoch out of range";
        (* the stream is a pure function of the boundary sequence:
           replaying the processed epochs resynchronizes the source *)
        for ep = 0 to c.epoch - 1 do
          Source.fast_forward src ~until:(boundary ep)
        done;
        let engine =
          Engine.create ?pool ~alive:c.alive ?env
            ~watchdog_frac:params.watchdog_frac config pathloss c.positions
        in
        let queue = Equeue.restore ~capacity:params.queue_cap c.backlog in
        restore_counters (Engine.stats engine) (Equeue.stats queue) c.counters;
        (engine, queue, c.epoch)
  in
  let lat = Samples.create () in
  let verify_checks = ref 0 in
  let degraded_checks = ref 0 in
  let verify_failures = ref [] in
  let equivalence_checks = ref 0 in
  let equivalence_failures = ref [] in
  let checkpoints_written = ref 0 in
  let observe name v =
    match obs with Some o -> Obs.Recorder.observe o name v | None -> ()
  in
  (* per-phase spans: with the CLI's clockless recorder these carry no
     wall time, only deterministic structure, so traces stay
     -j-identical and byte-stable *)
  let span name f =
    match obs with Some o -> Obs.Recorder.span o name f | None -> f ()
  in
  let verify () =
    incr verify_checks;
    (match
       Cbtc.Verify.check_surviving ?env
         ~alive:(Array.init n (Engine.alive engine))
         (Engine.discovery engine)
     with
    | Ok () -> ()
    | Error m -> verify_failures := m :: !verify_failures);
    let truth_pos = Source.true_positions src in
    let truth_alive = Source.true_alive src in
    let drift = ref 0 in
    let lag = ref 0 in
    for u = 0 to n - 1 do
      if Engine.position engine u <> truth_pos.(u) then Stdlib.incr drift;
      if Engine.alive engine u <> truth_alive.(u) then Stdlib.incr lag
    done;
    (* connectivity among the true survivors: both partitions number
       components by smallest member, so equal partitions are equal
       arrays *)
    let d =
      {
        drift = !drift;
        liveness_lag = !lag;
        connectivity_preserved =
          Cbtc.Geo.max_power_partition ?env ~alive:truth_alive pathloss
            truth_pos
          = Engine.partition ~alive:truth_alive engine;
      }
    in
    if degraded d then Stdlib.incr degraded_checks;
    d
  in
  let checkpoint ~time ~epoch path =
    Checkpoint.save path
      {
        Checkpoint.time;
        epoch;
        positions = Array.init n (Engine.position engine);
        alive = Array.init n (Engine.alive engine);
        backlog = Equeue.to_list queue;
        counters = counters_of (Engine.stats engine) (Equeue.stats queue);
      };
    Stdlib.incr checkpoints_written
  in
  for ep = start_epoch to total - 1 do
    let t1 = boundary ep in
    span "daemon.drain" (fun () ->
        let events = Source.tick src ~until:t1 in
        List.iter (Equeue.push queue) events);
    let budget = if params.budget <= 0 then max_int else params.budget in
    let applied = ref 0 in
    span "daemon.dirty_propagate" (fun () ->
        let continue = ref true in
        while !continue && !applied < budget do
          match Equeue.pop queue with
          | None -> continue := false
          | Some ev ->
              (* convergence latency: stream time from the event to the
                 end of the epoch that applied it *)
              Samples.add lat (t1 -. ev.Event.time);
              Engine.apply engine ev;
              Stdlib.incr applied
        done);
    span "daemon.regrow" (fun () ->
        match Engine.commit ?pool engine with
        | `Clean -> ()
        | `Incremental k -> observe "daemon.regrow_incremental" (float_of_int k)
        | `Full k -> observe "daemon.regrow_full" (float_of_int k));
    observe "daemon.epoch_events" (float_of_int !applied);
    observe "daemon.epoch_backlog" (float_of_int (Equeue.length queue));
    if
      params.equivalence_every > 0
      && (ep + 1 - start_epoch) mod params.equivalence_every = 0
    then
      span "daemon.verify" (fun () ->
          Stdlib.incr equivalence_checks;
          match Engine.check_full_equivalence ?pool engine with
          | Ok () -> ()
          | Error m ->
              equivalence_failures :=
                Printf.sprintf "epoch %d: %s" (ep + 1) m
                :: !equivalence_failures);
    if params.verify_every > 0 && (ep + 1) mod params.verify_every = 0 then
      span "daemon.verify" (fun () -> ignore (verify () : degradation));
    match params.checkpoint_path with
    | Some path
      when params.checkpoint_every > 0
           && (ep + 1) mod params.checkpoint_every = 0 && ep + 1 < total ->
        checkpoint ~time:t1 ~epoch:(ep + 1) path
    | _ -> ()
  done;
  let final_degradation = span "daemon.verify" verify in
  let wall_s =
    match (clock, t_start) with
    | Some c, Some t0 -> Some (c () -. t0)
    | _ -> None
  in
  {
    epochs = total;
    duration = params.duration;
    live = Engine.live engine;
    queue = Equeue.stats queue;
    engine = Engine.stats engine;
    latency = Samples.latency lat;
    verify_checks = !verify_checks;
    degraded_checks = !degraded_checks;
    final_degradation;
    verify_failures = List.rev !verify_failures;
    equivalence_checks = !equivalence_checks;
    equivalence_failures = List.rev !equivalence_failures;
    checkpoints_written = !checkpoints_written;
    grid = Engine.grid_health engine;
    topology_digest = Engine.digest engine;
    wall_s;
  }

let report_json (r : report) ~jobs =
  let open Obs.Jsonl in
  let lat =
    match r.latency with
    | None -> Null
    | Some l ->
        Obj
          [
            ("p50", Float l.p50);
            ("p95", Float l.p95);
            ("p99", Float l.p99);
            ("max", Float l.max);
            ("samples", Int l.samples);
          ]
  in
  let counters =
    List.map (fun (k, v) -> (k, Int v)) (counters_of r.engine r.queue)
  in
  Obj
    ([
       ("epochs", Int r.epochs);
       ("duration", Float r.duration);
       ("jobs", Int jobs);
       ("live", Int r.live);
     ]
    @ counters
    @ [
        ("latency", lat);
        ("verify_checks", Int r.verify_checks);
        ("degraded_checks", Int r.degraded_checks);
        ( "final_degradation",
          Obj
            [
              ("drift", Int r.final_degradation.drift);
              ("liveness_lag", Int r.final_degradation.liveness_lag);
              ( "connectivity_preserved",
                Bool r.final_degradation.connectivity_preserved );
            ] );
        ("verify_failures", List (List.map (fun m -> Str m) r.verify_failures));
        ("equivalence_checks", Int r.equivalence_checks);
        ( "equivalence_failures",
          List (List.map (fun m -> Str m) r.equivalence_failures) );
        ("checkpoints_written", Int r.checkpoints_written);
        ( "grid",
          Obj
            [
              ("drifted", Int r.grid.Geom.Grid.drifted);
              ("overflow", Int r.grid.Geom.Grid.overflow);
              ("compactions", Int r.grid.Geom.Grid.compactions);
            ] );
        ("topology_digest", Str r.topology_digest);
        ( "events_per_s",
          match r.wall_s with
          | Some w when w > 0. ->
              Float (float_of_int r.engine.Engine.events /. w)
          | _ -> Null );
        ("wall_s", match r.wall_s with Some w -> Float w | None -> Null);
      ])
