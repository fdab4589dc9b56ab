(** Comparator topologies.

    [max_power] is the paper's Table 1 baseline (no topology control).
    The proximity-graph families — Relative Neighborhood Graph, Gabriel
    graph, Euclidean MST, symmetric k-nearest-neighbors — are the
    related-work structures the paper cites (Toussaint; Jaromczyk and
    Toussaint) and serve as reference points in the examples and
    ablations.  All are restricted to edges of [G_R] (pairs within radio
    range), so they are implementable topologies.

    Constructions are accelerated by a [Geom.Grid] spatial index (range
    and witness queries probe only nearby cells); the O(n²)/O(n³) pair
    scans they are property-tested against live in [test/spec_geo.ml].

    Per-node work is independent, so builders accept [?pool] and then
    run chunked over a [Parallel.Pool]: each chunk fills only its own
    slots of a per-node array of rows, and one [Graphkit.Ugraph.build]
    over the rows yields a graph bit-identical to the sequential pass
    for any pool size.

    All builders accept [?env] ({!Radio.Env}), resolved once with
    [Radio.Env.resolve] (absent = [Radio.Env.trivial pathloss]): the
    underlying edge set is [G_R^env] (grid probes use the env's probe
    radius, its link power decides membership) while the geometric
    witness criteria (lune, diametral circle, nearest-k) stay
    distance-based.  Under the trivial env [G_R^env] is [G_R], bit for
    bit.
    @raise Invalid_argument when [env] was built over another pathloss. *)

(** [max_power ?pool pathloss positions] is [G_R] (or [G_R^env]) —
    the library's one G_R builder; [Cbtc.Geo.max_power_graph] is this
    function.  Below [Geom.Grid.default_brute_cutoff] nodes and without
    a pool, the triangular pair scan is used — faster at small [n],
    identical output; a pool always selects the grid path. *)
val max_power :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> Graphkit.Ugraph.t

(** [max_power_partition ?env ~alive pathloss positions] is the
    component partition of {!max_power}'s graph restricted to the nodes
    with [alive.(u)], as {!Graphkit.Unionfind.labels}: dead nodes are
    singletons.  Same grid probe and link test as {!max_power}, but
    each admitted pair goes to a union-find instead of a graph.
    @raise Invalid_argument when [alive] and [positions] differ in
    length. *)
val max_power_partition :
  ?env:Radio.Env.t ->
  alive:bool array ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> int array

(** [rng ?pool pathloss positions]: keep [(u,v)] of [G_R] unless some
    witness [w] satisfies [max(d(u,w), d(v,w)) < d(u,v)] (lune
    criterion). *)
val rng :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> Graphkit.Ugraph.t

(** [gabriel ?pool pathloss positions]: keep [(u,v)] of [G_R] unless
    some [w] lies strictly inside the circle with diameter [uv]
    ([d2(u,w) + d2(v,w) < d2(u,v)]). *)
val gabriel :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> Graphkit.Ugraph.t

(** [euclidean_mst pathloss positions]: minimum spanning forest of [G_R]
    under Euclidean edge lengths.  (Kruskal is inherently sequential, so
    no [?pool] here.) *)
val euclidean_mst :
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> Graphkit.Ugraph.t

(** [knn ?pool pathloss positions ~k]: symmetric closure of each node's
    [k] nearest in-range neighbors. *)
val knn :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> k:int -> Graphkit.Ugraph.t

(** [radius_of pathloss positions g] is the per-node transmission radius
    implied by a topology: distance to the farthest [g]-neighbor, except
    that {!max_power}'s semantics (every node shouting at full power) is
    recovered with [~full_power:true], which reports [R] for every node
    as the paper's Table 1 does. *)
val radius_of :
  ?full_power:bool ->
  Radio.Pathloss.t ->
  Geom.Vec2.t array ->
  Graphkit.Ugraph.t ->
  float array
