(** Unions of closed arcs on the unit circle.

    An arc is a closed circular interval [\[start, start + len\]] with
    [0 <= len <= 2pi].  An arc set is kept in a canonical form: a sorted
    list of disjoint, non-touching arcs with starts in [\[0, 2pi)], or the
    distinguished full circle.

    Arc sets implement the paper's coverage operator
    [cover_alpha(dir) = { theta : exists theta' in dir, |theta - theta'| mod 2pi <= alpha/2 }]
    behind the shrink-back optimization: removing a discovered neighbor is
    allowed exactly when coverage is unchanged, i.e. when the removed
    neighbor's arc is contained in the union of the remaining arcs.  The
    library decides op1 with a gap walk over sorted arc endpoints
    ([Cbtc.Optimize]); this module is the coverage-set statement it is
    tested against, and its 1e-9 tolerance is the boundary rule the walk
    reproduces. *)

type arc = { start : float; len : float }

type t

val empty : t

val full : t

val is_full : t -> bool

(** [of_arcs arcs] is the canonical union of [arcs].  Arcs with negative
    length are rejected with [Invalid_argument]; arcs with length
    [>= 2pi] yield the full circle. *)
val of_arcs : arc list -> t

(** [of_directions ~alpha dirs] is the union of arcs of angular width
    [alpha] centered on each direction in [dirs] — the paper's
    [cover_alpha(dirs)]. *)
val of_directions : alpha:float -> float list -> t

(** [add t arc] is the union of [t] and the single [arc]. *)
val add : t -> arc -> t

(** [arcs t] lists the canonical arcs ([\[\]] for empty; a single
    [{start = 0.; len = 2pi}] for the full circle). *)
val arcs : t -> arc list

(** [total_length t] is the total angular measure covered. *)
val total_length : t -> float

(** [contains_angle ?eps t theta] holds when direction [theta] lies in the
    union (within tolerance [eps], default [1e-9]). *)
val contains_angle : ?eps:float -> t -> float -> bool

(** [contains_arc ?eps t arc] holds when the whole of [arc] lies in the
    union (within tolerance [eps]). *)
val contains_arc : ?eps:float -> t -> arc -> bool

(** [subsumes ?eps t u] holds when every arc of [u] is contained in [t]. *)
val subsumes : ?eps:float -> t -> t -> bool

(** [equal ?eps a b] holds when [a] and [b] cover the same set of
    directions (mutual subsumption). *)
val equal : ?eps:float -> t -> t -> bool
