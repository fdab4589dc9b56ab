(** Degree/radius/power metrics over a topology — the quantities of the
    paper's Table 1 plus energy accounting. *)

(** [avg_degree g] is [2m/n]. *)
val avg_degree : Graphkit.Ugraph.t -> float

val degrees : Graphkit.Ugraph.t -> float array

(** [avg_radius radius] averages a per-node radius array. *)
val avg_radius : float array -> float

(** [avg_power pathloss radius] averages [p(radius_u)] (0 for isolated
    nodes). *)
val avg_power : Radio.Pathloss.t -> float array -> float

val degree_summary : Graphkit.Ugraph.t -> Stats.Summary.t
