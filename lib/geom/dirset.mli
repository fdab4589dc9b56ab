(** Sets of directions and the CBTC gap test.

    A node running CBTC(alpha) accumulates the directions of its discovered
    neighbors; the algorithm keeps growing power while there is an
    {e alpha-gap} — a maximal circular gap between consecutive directions
    strictly greater than [alpha], which is equivalent to the existence of
    a cone of degree [alpha] containing no neighbor (Section 2 of the
    paper). *)

(** [max_gap dirs] is the largest circular gap between consecutive
    directions of [dirs].  It is [2pi] when [dirs] has fewer than two
    distinct directions (the empty set and singletons leave the whole
    circle uncovered). *)
val max_gap : float list -> float

(** [has_gap ?eps ~alpha dirs] holds when [dirs] leaves some cone of degree
    [alpha] empty, i.e. when [max_gap dirs >= alpha - eps].  A gap of
    exactly [alpha] counts: per Theorem 2.1 the open cone spanning it
    contains no neighbor, so growth must still trigger.  The tolerance
    [eps] (default [1e-9]) puts near-boundary configurations on the
    conservative (keep-growing) side. *)
val has_gap : ?eps:float -> alpha:float -> float list -> bool
