(** Pending-event queue for the simulator: a binary min-heap ordered by
    (time, priority, insertion sequence).

    How same-timestamp ties break is governed by the queue's {!policy}:

    - {!Fifo} (the default) assigns every event the same priority, so
      simultaneous events fire in insertion order — bit-identical to the
      historical behaviour, and a determinism requirement for
      reproducible runs.
    - [Seeded seed] draws one priority per push from a dedicated
      splitmix64 stream: any group of same-timestamp events fires in a
      uniformly random permutation, deterministic in [seed] and the push
      sequence.  This is the engine of schedule exploration
      ({!Check.Explore}): the protocol's guarantees must hold under
      {e every} tie order, not just the FIFO one.
    - [Replay prios] replays a recorded decision log: push [i] gets
      priority [prios.(i)]; pushes beyond the log fall back to the Fifo
      priority.  Truncating the log therefore perturbs only a prefix of
      the schedule — the shrinking move of {!Check.Shrink}.

    Events pushed with equal times {e and} equal priorities still fire
    in insertion order, so every policy is fully deterministic. *)

type policy = Fifo | Seeded of int | Replay of int array

(** Exclusive upper bound of assigned priorities ([2{^30}]). *)
val prio_bound : int

type 'a t

val create : ?policy:policy -> unit -> 'a t

(** The policy the queue was created with. *)
val policy : 'a t -> policy

(** [log t] is the priority assigned to each push so far, in push order —
    the decision log.  Recorded only for non-[Fifo] policies (empty for
    [Fifo]); replaying it with [Replay] reproduces the schedule exactly. *)
val log : 'a t -> int array

(** [push t ~time v] enqueues [v] at [time]. *)
val push : 'a t -> time:float -> 'a -> unit

(** [pop t] removes and returns the earliest event as [(time, v)].
    @raise Not_found when empty. *)
val pop : 'a t -> float * 'a

(** [peek_time t] is the time of the earliest event without removing it. *)
val peek_time : 'a t -> float option
