(** Discrete-event simulation engine.

    Events are thunks scheduled at simulated times; the engine runs them
    in (time, FIFO) order and advances a virtual clock.  Both the
    synchronous round model of Section 2 of the paper and the
    asynchronous model of Section 4 are driven by this engine. *)

type t

(** A cancellable handle for a scheduled event. *)
type handle

(** [create ?obs ?policy ()] builds an empty simulation.  When [obs] is
    given, every fired event bumps the [sim.events_fired] counter.
    [policy] (default {!Eventq.Fifo}) selects the same-timestamp
    tie-break rule — see {!Eventq.policy}; the default is bit-identical
    to the historical FIFO engine. *)
val create : ?obs:Obs.Recorder.t -> ?policy:Eventq.policy -> unit -> t

(** [now t] is the current simulated time (starts at [0.]). *)
val now : t -> float

(** The tie-break policy the engine was created with. *)
val policy : t -> Eventq.policy

(** [schedule_log t] is the decision log of the underlying queue so far
    (see {!Eventq.log}): empty under [Fifo], else one priority per
    scheduled event in scheduling order.  Replaying it via
    [create ~policy:(Replay log)] reproduces the schedule. *)
val schedule_log : t -> int array

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].
    @raise Invalid_argument on a negative delay. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [schedule_at t ~time f] runs [f ()] at absolute [time >= now t]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [cancel h] prevents the event from firing (no-op if already fired). *)
val cancel : handle -> unit

(** [run t] executes events until the queue drains; returns the number of
    events fired.  Events may schedule further events. *)
val run : t -> int

(** [run_until t ~time] executes events with timestamp [<= time], then
    advances the clock to [time]; returns the number fired. *)
val run_until : t -> time:float -> int

(** [step t] fires the single earliest event; [false] when none remain. *)
val step : t -> bool
