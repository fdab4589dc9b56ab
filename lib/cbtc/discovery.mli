(** The converged per-node state of a CBTC run.

    Both the centralized oracle ({!Geo}) and the distributed protocol
    ({!Distributed}) produce a value of this type: for each node, its
    final discovered-neighbor set [N_alpha(u)], its final broadcast power
    [p_{u,alpha}], and whether it is a {e boundary node} (terminated at
    maximum power with an [alpha]-gap remaining).

    The neighbor sets are packed CSR-style: [off] (length [n+1])
    delimits node [u]'s row inside the parallel [ids]/[dirs]/[links]/
    [tags] arrays, each row in increasing (link power, id) order — the
    order continuous power growth discovers neighbors in.  An unboxed
    float slot costs 8 bytes where a boxed {!Neighbor.t} list element
    costs ~seven words plus pointer chasing, so this one form serves
    n = 10⁵–10⁶ hot loops ({!Optimize}, {!Verify}) and small hand-built
    layouts alike. *)

type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  positions : Geom.Vec2.t array;
  off : int array;  (** length [n+1]; row [u] is indices [off.(u) .. off.(u+1)-1] *)
  ids : int array;  (** discovered neighbor ids *)
  dirs : float array;  (** normalized directions, as [Neighbor.dir] *)
  links : float array;  (** link powers *)
  tags : float array;  (** discovery-step powers, as [Neighbor.tag] *)
  power : float array;  (** [p_{u,alpha}] *)
  boundary : bool array;  (** still has an [alpha]-gap at maximum power *)
}

(** [pack ~config ~pathloss ~positions ~power ~boundary rows] packs
    per-node neighbor records into rows, each in list order (callers
    sort by {!Neighbor.compare_by_link_power}); the arrays are taken as
    given, not copied.  It is how the protocols ({!Distributed},
    {!Reconfig}) turn their per-node neighbor maps into this type. *)
val pack :
  config:Config.t ->
  pathloss:Radio.Pathloss.t ->
  positions:Geom.Vec2.t array ->
  power:float array ->
  boundary:bool array ->
  Neighbor.t list array ->
  t

val nb_nodes : t -> int

(** [degree t u] is [|N_alpha(u)|]. *)
val degree : t -> int -> int

(** [iter_neighbors t u f] streams row [u] in row order, allocation-free. *)
val iter_neighbors :
  t ->
  int ->
  (id:int -> dir:float -> link_power:float -> tag:float -> unit) ->
  unit

(** [neighbor_ids t u] is the ids of row [u] ([N_alpha(u)]) in ascending
    order.  A repeated id is kept, so a malformed row shows in a check. *)
val neighbor_ids : t -> int -> int list

(** An undirected topology as CSR rows: row [u] is
    [adj.(off.(u)) .. adj.(off.(u+1)-1)], strictly increasing ids, each
    edge listed in both of its rows; [d2] holds each slot's squared
    distance, [Geom.Vec2.dist2] from the row's node.  Slots from
    [off.(n)] on, if any, are unused. *)
type topology = { off : int array; adj : int array; d2 : float array }

(** [topology ~both t ~cut] is the topology over the prefixes
    [off.(u) .. cut.(u)-1] of the rows of [t]: [E_alpha] (an edge where
    either end lists the other) or, with [~both], [E-_alpha] (both ends
    list each other).  Repeated ids collapse.  The one closure builder:
    {!closure}, {!core} and the optimization pipeline ({!Pipeline},
    [cut] being op1's) all go through it.
    @raise Invalid_argument when a kept row lists its own node or an id
    outside [0 .. n-1]. *)
val topology : both:bool -> t -> cut:int array -> topology

(** [graph tp] is [tp] as a [Ugraph.t]. *)
val graph : topology -> Graphkit.Ugraph.t

(** [closure t] is [G_alpha]'s edge set [E_alpha]: the symmetric closure
    of the discovered relation, [{u,v}] present iff [v] is in
    [N_alpha(u)] or [u] is in [N_alpha(v)].
    @raise Invalid_argument as {!topology}. *)
val closure : t -> Graphkit.Ugraph.t

(** [core t] is [E-_alpha]: [{u,v}] present iff [v] is in [N_alpha(u)]
    and [u] is in [N_alpha(v)] — the asymmetric-edge-removal graph of
    Section 3.2.
    @raise Invalid_argument as {!topology}. *)
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
    violated: a well-formed CSR ([off.(0) = 0], [off] nondecreasing,
    [off.(n)] the slot count, the parallel arrays and the per-node
    arrays of equal lengths), rows sorted by (link power, id) and
    self-free with ids in range, powers within [(0, P]], non-boundary
    nodes gap-free, boundary nodes at maximum power.  Used by tests. *)
val check_invariants : t -> unit
