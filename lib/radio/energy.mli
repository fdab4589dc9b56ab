(** Per-link energy cost model.

    The paper's competitiveness discussion charges each hop the
    transmission power plus a constant receiver/processing overhead [k].
    We expose that as [link_cost = p(d) + tx_overhead + rx_overhead],
    which the power-stretch metric sums along routes. *)

type t = { pathloss : Pathloss.t; tx_overhead : float; rx_overhead : float }

(** [make ?tx_overhead ?rx_overhead pathloss] — overheads default to 0
    (pure transmission power, the paper's [k = 1]-style base case uses the
    raw [d^n]). *)
val make : ?tx_overhead:float -> ?rx_overhead:float -> Pathloss.t -> t

(** [link_cost t d] is the energy charged to a single hop of length [d]. *)
val link_cost : t -> float -> float
