(** The paper's power model.

    Each node has a power function [p] where [p(d)] is the minimum power
    needed to establish a link to a node at distance [d]; transmission
    power grows as the [n]-th power of distance for some [n >= 2]
    (Rappaport), and the maximum power [P] is the same for all nodes, with
    [p(R) = P] defining the maximum communication range [R].

    Concretely [p(d) = c * d^n].  Reception power after free-space
    attenuation is modelled as [p' = p / max(d, d0)^n] with reference
    distance [d0 = 1]; from [(p, p')] a receiver can recover
    [p(d) = c * p / p'] — exactly the estimation assumption of Section 2
    of the paper. *)

type t

(** [make ?exponent ?coeff ~max_range ()] builds a model with
    [p(d) = coeff * d^exponent] and maximum power [P = p(max_range)].
    Defaults: [exponent = 2.], [coeff = 1.].
    @raise Invalid_argument unless [exponent >= 1.], [coeff > 0.],
    [max_range > 0.]. *)
val make : ?exponent:float -> ?coeff:float -> max_range:float -> unit -> t

val exponent : t -> float

val coeff : t -> float

(** [max_range t] is [R]. *)
val max_range : t -> float

(** [max_power t] is [P = p(R)]. *)
val max_power : t -> float

(** [power_for_distance t d] is [p(d)].  Monotone increasing in [d]. *)
val power_for_distance : t -> float -> float

(** [distance_for_power t p] is the inverse of {!power_for_distance}:
    the farthest distance reachable with power [p]. *)
val distance_for_power : t -> float -> float

(** [reaches t ~power ~dist] holds when transmitting at [power] reaches a
    node at distance [dist] (with a tiny tolerance for float round-trips). *)
val reaches : t -> power:float -> dist:float -> bool

(** [reach_cap ~power] is the largest link power {!reaches} accepts for
    [power] — the power plus its exact float tolerance.  [reaches] is
    literally [power_for_distance t dist <= reach_cap ~power]; hot loops
    hoist the cap once and compare link powers against it directly. *)
val reach_cap : power:float -> float

(** [in_range t ~dist] is [reaches t ~power:(max_power t) ~dist]: whether
    the pair would be an edge of [G_R]. *)
val in_range : t -> dist:float -> bool

(** [reach_distance t ~power] bounds the distances {!reaches} accepts at
    [power], tolerance included: [reaches t ~power ~dist] implies
    [dist <= reach_distance t ~power] (up to float rounding well below
    the spatial index's probe slack).  Use it as the probe radius when
    prefiltering candidates with [Geom.Grid]. *)
val reach_distance : t -> power:float -> float

(** [rx_power t ~tx_power ~dist] is the reception power [p'] of a message
    sent with [tx_power] from distance [dist]. *)
val rx_power : t -> tx_power:float -> dist:float -> float

(** [estimate_link_power t ~tx_power ~rx_power] recovers the link power
    from the transmission and reception powers, per the paper's
    assumption.

    {b Contract.}  Reception power is clamped at the reference distance
    [d0 = 1] ({!rx_power}), so no distance information survives below
    it: the recovery is saturated there rather than left non-invertible.
    For model-generated inputs ([rx_power t ~tx_power ~dist:d]) the
    result is exactly [power_for_distance t (max d d0)] for every
    [d] in [(0, R]] — equal to [p(d)] for [d >= d0], and [p(d0)]
    (an upper bound on [p(d)]) below it. *)
val estimate_link_power : t -> tx_power:float -> rx_power:float -> float

(** [estimate_distance t ~tx_power ~rx_power] recovers the distance
    similarly, clamped to the reference distance: for model-generated
    inputs the result is exactly [max d d0] over [(0, R]] — never less
    than [d0], and never an underestimate of the true distance. *)
val estimate_distance : t -> tx_power:float -> rx_power:float -> float
