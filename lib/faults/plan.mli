(** Deterministic fault schedules.

    A plan is a time-ordered list of fault events — node crashes and
    recoveries, and per-link loss changes (from which network partitions
    are built) — generated up front from a PRNG so every stress run is
    reproducible bit-for-bit from one integer seed.  {!Inject.arm} turns
    a plan into scheduled simulator events against an {!Airnet.Net}. *)

type kind =
  | Crash of int
  | Recover of int
  | Link_loss of { src : int; dst : int; loss : float }
      (** set the directed link's injected loss (1. severs it) *)

type event = { time : float; kind : kind }

type t

val empty : t

(** [make events] is a plan with the events sorted by time (stable).
    @raise Invalid_argument on a negative or non-finite time or a
    [Link_loss] outside [0, 1]. *)
val make : event list -> t

(** [events t] — time-ordered. *)
val events : t -> event list

(** [crashed_nodes t] is the sorted list of distinct nodes the plan
    crashes at some point (whether or not it later recovers them). *)
val crashed_nodes : t -> int list

val nb_events : t -> int

(** [random_crashes ~prng ~n ~fraction ~window ?recover_after ()] crashes
    [round (fraction *. n)] distinct nodes (chosen uniformly) at times
    uniform in [window]; when [recover_after] is given each crashed node
    recovers that long after its crash.
    @raise Invalid_argument unless [0 <= fraction <= 1], [n >= 0], the
    window is ordered with a non-negative start and [recover_after], when
    given, is finite and [>= 0]. *)
val random_crashes :
  prng:Prng.t ->
  n:int ->
  fraction:float ->
  window:float * float ->
  ?recover_after:float ->
  unit ->
  t

(** [partition ~left ~right ~from_ ~until] severs every directed link
    between the two groups (loss 1. at [from_], restored at [until]) —
    a clean network partition for its duration.
    @raise Invalid_argument unless [0 <= from_ <= until]. *)
val partition : left:int list -> right:int list -> from_:float -> until:float -> t

(** [random_asymmetric_loss ~prng ~n ~pairs ~loss ~time] picks [pairs]
    random {e directed} links (src <> dst) and sets each one's injected
    loss to a value uniform in the [loss] interval at [time] — the
    reverse direction is left untouched, modelling asymmetric links.
    @raise Invalid_argument on a negative time/pairs, [n < 2], or a loss
    interval outside [0, 1]. *)
val random_asymmetric_loss :
  prng:Prng.t -> n:int -> pairs:int -> loss:float * float -> time:float -> t

(** [restrict ~keep t] renames node ids through [keep] and drops every
    event touching a node for which [keep] is [None] (a [Link_loss]
    survives only when both endpoints do).  Used when shrinking a
    failing scenario: deleting nodes compacts the id space, and the
    fault plan must follow the survivors. *)
val restrict : keep:(int -> int option) -> t -> t
