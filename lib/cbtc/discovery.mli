(** The converged per-node state of a CBTC run.

    Both the centralized oracle ({!Geo}) and the distributed protocol
    ({!Distributed}) produce a value of this type: for each node, its
    final discovered-neighbor set [N_alpha(u)], its final broadcast power
    [p_{u,alpha}], and whether it is a {e boundary node} (terminated at
    maximum power with an [alpha]-gap remaining).  The optimization passes
    ({!Optimize}) consume and produce this type. *)

type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  positions : Geom.Vec2.t array;
  neighbors : Neighbor.t list array;
      (** [N_alpha(u)], sorted by increasing link power *)
  power : float array;  (** [p_{u,alpha}] *)
  boundary : bool array;  (** still has an [alpha]-gap at maximum power *)
}

val nb_nodes : t -> int

(** [neighbor_ids t u] is the ids of row [u] ([N_alpha(u)]) in ascending
    order.  A repeated id is kept, so a malformed row shows in a check. *)
val neighbor_ids : t -> int -> int list

(** [closure t] is [G_alpha]'s edge set [E_alpha]: the symmetric closure
    of the discovered relation, [{u,v}] present iff [v] is in
    [N_alpha(u)] or [u] is in [N_alpha(v)]. *)
val closure : t -> Graphkit.Ugraph.t

(** [core t] is [E-_alpha]: [{u,v}] present iff [v] is in [N_alpha(u)]
    and [u] is in [N_alpha(v)] — the asymmetric-edge-removal graph of
    Section 3.2. *)
val core : t -> Graphkit.Ugraph.t

(** [radius_in t g] is the per-node transmission radius required to reach
    every neighbor in graph [g] (true geometric distance to the farthest
    [g]-neighbor; [0.] for isolated nodes). *)
val radius_in : t -> Graphkit.Ugraph.t -> float array

(** [reach_power_in t g] is the per-node power needed to reach every
    [g]-neighbor: [p(radius_in t g)]. *)
val reach_power_in : t -> Graphkit.Ugraph.t -> float array

(** [out_radius t] is [rad-_{u,alpha}]: the distance to the farthest node
    of [N_alpha(u)] (i.e. [p(out_radius u) = p_{u,alpha}] up to growth
    overshoot); [0.] for nodes with no discovered neighbor. *)
val out_radius : t -> float array

(** [has_gap t u] re-checks the [alpha]-gap condition on [u]'s current
    neighbor directions. *)
val has_gap : t -> int -> bool

(** [check_invariants t] raises [Failure] if any structural invariant is
    violated: neighbor lists sorted and self-free, powers within
    [(0, P]], non-boundary nodes gap-free, boundary nodes at maximum
    power.  Used by tests. *)
val check_invariants : t -> unit
