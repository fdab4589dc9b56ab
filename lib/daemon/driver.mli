(** The self-healing topology daemon loop.

    Epoch by epoch ([event_dt] of stream time each): pull the epoch's
    events from the deterministic {!Source}, push them through the
    bounded {!Equeue} (shedding moves under overload), apply at most
    [budget] of them to the incremental {!Engine}, and commit.  Around
    the core loop:

    - {b continuous verification} ([verify_every]): the CBTC guarantees
      on the tracked survivor state (a violation is an engine bug and is
      collected in [verify_failures]), plus degradation against the
      stream's ground truth — position drift, liveness lag, and
      connectivity preservation among the true survivors.  Degradation
      is {e reported}, never fatal: under overload it appears, and it
      heals once shedding stops (moves carry absolute positions).
    - {b the equivalence invariant} ([equivalence_every]): tracked state
      must equal a from-scratch recompute, float-exactly.
    - {b checkpoints} ([checkpoint_every] + [checkpoint_path]): periodic
      {!Checkpoint} snapshots; [run ~restore] resumes one and converges
      to the {e same topology digest} as the uninterrupted run.

    Reports are byte-identical for every pool size. *)

type params = {
  duration : float;
  event_dt : float;
  budget : int;  (** max events applied per epoch; [<= 0] = unlimited *)
  queue_cap : int;
  watchdog_frac : float;  (** see {!Engine.create} *)
  verify_every : int;  (** 0 = final check only *)
  equivalence_every : int;  (** 0 = never *)
  checkpoint_every : int;  (** 0 = never *)
  checkpoint_path : string option;
}

val default_params : params

type stream = {
  seed : int;
  field : Workload.Placement.field;
  mobility : Workload.Mobility.params;
  move_rate : float;
  storm : (float * float * float) option;  (** (t0, t1, rate multiplier) *)
  churn : Faults.Plan.t;
  positions : Geom.Vec2.t array;
}

type degradation = {
  drift : int;  (** nodes whose tracked position <> true position *)
  liveness_lag : int;  (** nodes whose tracked liveness <> truth *)
  connectivity_preserved : bool;
      (** tracked topology preserves the survivor partition of [G_R] *)
}

val degraded : degradation -> bool

type latency = {
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  samples : int;
}
(** Convergence latency (stream time from event emission to the end of
    the epoch that applied it), nearest-rank percentiles. *)

type report = {
  epochs : int;
  duration : float;
  live : int;
  queue : Equeue.stats;
  engine : Engine.stats;
  latency : latency option;
  verify_checks : int;
  degraded_checks : int;
  final_degradation : degradation;
  verify_failures : string list;
  equivalence_checks : int;
  equivalence_failures : string list;
  checkpoints_written : int;
  grid : Geom.Grid.health;
  topology_digest : string;
  wall_s : float option;
}

(** [validate params stream] is [run]'s argument check, for callers that
    reject a bad configuration before doing any other work.
    @raise Invalid_argument on a non-positive or non-finite
    duration/event_dt, an epoch count [ceil (duration / event_dt)] that
    does not fit an int, a [queue_cap < 1], a negative [watchdog_frac],
    or fewer than two nodes. *)
val validate : params -> stream -> unit

(** [run ?pool ?obs ?clock ?restore ~params ~config ~pathloss stream].
    [obs] records per-phase spans for every epoch — [daemon.drain]
    (source tick + queue push), [daemon.dirty_propagate] (event
    apply), [daemon.regrow] (commit), [daemon.verify] (equivalence and
    invariant checks) — plus the per-epoch counters; with a clockless
    recorder the trace is deterministic and [-j]-independent.
    [clock] (e.g. [Unix.gettimeofday]) enables [wall_s] and the derived
    events/sec — and makes the report non-reproducible, so benchmarks
    only.  [restore] resumes a checkpoint: the source is resynchronized
    by replaying the processed epoch boundaries, the engine re-derives
    all cones from the snapshot, and counters carry over.
    @raise Invalid_argument when {!validate} does, or on a checkpoint
    that does not match the stream. *)
val run :
  ?pool:Parallel.Pool.t ->
  ?obs:Obs.Recorder.t ->
  ?clock:(unit -> float) ->
  ?restore:Checkpoint.t ->
  ?env:Radio.Env.t ->
  params:params ->
  config:Cbtc.Config.t ->
  pathloss:Radio.Pathloss.t ->
  stream ->
  report

(** Byte-stable JSON rendering ([jobs] is included so smoke tests can
    normalize it away before comparing runs at different [-j]). *)
val report_json : report -> jobs:int -> Obs.Jsonl.t
