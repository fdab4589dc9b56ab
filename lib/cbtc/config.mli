(** CBTC parameters: the cone degree [alpha] and the power-growth
    schedule.

    The paper proves [alpha = 5pi/6] is the tight connectivity threshold
    (Theorems 2.1 and 2.4) and that asymmetric edge removal additionally
    requires [alpha <= 2pi/3] (Theorem 3.2). *)

(** How a node grows its broadcast power while it still has an
    [alpha]-gap.  The paper leaves the [Increase] function open,
    suggesting doubling; the converged topology depends on the schedule
    only through overshoot. *)
type growth =
  | Exact
      (** Grow exactly to the next candidate neighbor's link power — the
          continuous-growth limit.  Only available to the centralized
          oracle (a distributed node cannot know the next distance);
          yields the paper's Table 1 radii. *)
  | Double of float
      (** [Double p0]: powers [p0, 2 p0, 4 p0, ..., P] — the paper's
          suggested [Increase(p) = 2p], which overestimates the needed
          power by at most a factor of 2. *)
  | Mult of { p0 : float; factor : float }
      (** Generalized multiplicative schedule. *)

type t = { alpha : float; growth : growth }

(** [make ?growth alpha] — default growth is [Exact].
    @raise Invalid_argument unless [0 < alpha <= 2pi] and the schedule's
    parameters are positive (factor > 1). *)
val make : ?growth:growth -> float -> t

(** [preserves_connectivity t] — [alpha <= 5pi/6] (Theorem 2.1). *)
val preserves_connectivity : t -> bool

(** [allows_asymmetric_removal t] — [alpha <= 2pi/3] (Theorem 3.2). *)
val allows_asymmetric_removal : t -> bool

(** [power_steps ?from t ~pathloss ~link_powers] is the increasing
    sequence of powers a node will try: for [Exact], the (deduplicated)
    candidate link powers; for stepped schedules, the schedule clamped to
    end exactly at the maximum power [P].  Always nonempty, always ends
    at a power [>= P] for stepped schedules or the largest candidate for
    [Exact] (falling back to [\[P\]] when there are no candidates).

    [from] (default [0.]) restarts growth from a power already reached
    (Section 4's "grow from [p(rad-)]"): a stepped schedule starts at
    [max p0 from] and multiplies on from there; [Exact] drops the
    candidates below [from]. *)
val power_steps :
  ?from:float ->
  t -> pathloss:Radio.Pathloss.t -> link_powers:float list -> float list

val pp : t Fmt.t
