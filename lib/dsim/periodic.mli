(** Recurring timers over the simulation engine.

    Beaconing protocols (the paper's NDP) and watchdog checks are
    periodic; this wraps the schedule-reschedule pattern with a stop
    handle. *)

type t

(** [start sim ?initial_delay ~interval f] runs [f ()] at
    [now + initial_delay] (default [interval]) and then every [interval]
    until {!stop}.  [f] may call {!stop} on its own timer.
    @raise Invalid_argument for a non-positive interval or negative
    initial delay. *)
val start :
  Sim.t -> ?initial_delay:float -> interval:float -> (unit -> unit) -> t

(** [stop t] halts the recurrence (idempotent; pending fire is
    cancelled). *)
val stop : t -> unit

(** [fires t] counts completed invocations. *)
val fires : t -> int
