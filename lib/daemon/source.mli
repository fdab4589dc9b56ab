(** Deterministic join/leave/move event stream.

    Combines random-waypoint motion ([Workload.Mobility], advanced
    lazily per node) with a crash/recovery plan ([Faults.Plan];
    [Link_loss] entries are ignored — the daemon tracks topology state,
    not links).  All randomness derives from [seed], and the stream is a
    pure function of [(seed, tick boundaries)]: replaying the same
    sequence of [tick ~until] calls — as checkpoint recovery does —
    reproduces the identical event list, bit for bit. *)

type t

(** [create ~seed ~field ~params ~move_rate ?storm ~churn positions] —
    [move_rate] is network-wide position reports per time unit; [storm]
    is [(t0, t1, mult)]: while the tick start lies in [[t0, t1)] the
    move rate is multiplied by [mult] (a load spike for shedding tests).
    @raise Invalid_argument on a negative rate or an unordered storm. *)
val create :
  seed:int ->
  field:Workload.Placement.field ->
  params:Workload.Mobility.params ->
  move_rate:float ->
  ?storm:float * float * float ->
  churn:Faults.Plan.t ->
  Geom.Vec2.t array ->
  t

val time : t -> float

(** [tick t ~until] advances stream time and returns the events in
    [(time t, until]], time-ordered; on equal times, crashes and
    recoveries precede position reports.  Dead nodes keep emitting moves
    (their motion continues), and a recovery's [Join] carries the
    node's true position at recovery time.
    @raise Invalid_argument when [until < time t]. *)
val tick : t -> until:float -> Event.t list

(** [tick], discarding the events — replaying history up to a
    checkpoint. *)
val fast_forward : t -> until:float -> unit

(** {1 Ground truth}

    What the world actually looks like, for degradation reporting:
    tracked state that processed every event matches these exactly. *)

val true_positions : t -> Geom.Vec2.t array

val true_alive : t -> bool array
