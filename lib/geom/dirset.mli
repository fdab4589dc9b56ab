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

(** [max_gap_ba dirs len] is {!max_gap} over the prefix
    [dirs.(0 .. len-1)] of a float64 [Bigarray.Array1], which the caller
    guarantees is sorted increasing, duplicate-free and already
    normalized — the invariant kept by the SoA discovery core, which
    inserts each new direction in place instead of re-sorting a list per
    power step.  Uses the exact float operations of {!max_gap}, so
    results are bit-identical; [has_gap_ba ?eps ~alpha dirs len] is
    {!has_gap} over the same prefix. *)
val max_gap_ba :
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float

val has_gap_ba :
  ?eps:float ->
  alpha:float ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  bool

(** [cover ~alpha dirs] is the paper's coverage operator
    [cover_alpha(dirs)]: the set of directions within [alpha/2] of some
    member of [dirs]. *)
val cover : alpha:float -> float list -> Arcset.t

(** [covers_circle ?eps ~alpha dirs] holds when [cover ~alpha dirs] is the
    full circle; equivalent to [not (has_gap ~alpha dirs)] for nonempty
    [dirs]. *)
val covers_circle : ?eps:float -> alpha:float -> float list -> bool
