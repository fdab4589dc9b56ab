(** Per-node energy stores.

    The paper's introduction motivates topology control with network
    lifetime: "reducing energy consumption tends to increase network
    lifetime ... particularly if the main reason that nodes die is loss
    of battery power".  This module is the battery model used by the
    {!Gather} lifetime simulation. *)

type t

(** [create ~n ~capacity] gives every node the same initial energy.
    @raise Invalid_argument on non-positive capacity. *)
val create : n:int -> capacity:float -> t

val nb_nodes : t -> int

(** [level t u] is the remaining energy ([0.] once dead). *)
val level : t -> int -> float

val is_alive : t -> int -> bool

val nb_alive : t -> int

(** [alive_mask t] is a fresh per-node liveness snapshot. *)
val alive_mask : t -> bool array

(** [drain t u amount] subtracts energy; a node dies when its level
    reaches zero.  Returns [true] when [u] is still alive afterwards.
    Draining a dead node is a no-op returning [false].
    @raise Invalid_argument on negative amount. *)
val drain : t -> int -> float -> bool
