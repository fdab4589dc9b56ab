(** Centralized geometric oracle for CBTC(alpha).

    Computes, directly from node positions, exactly the converged
    discovery state the distributed protocol reaches: each node grows its
    power along the configured schedule until it has no [alpha]-gap or
    hits maximum power (then it is a {e boundary node}).  The distributed
    implementation ({!Distributed}) is cross-checked against this oracle
    in the test suite.

    With the [Exact] growth schedule this is the continuous-growth limit
    and produces the paper's Table 1 topologies.

    One flat kernel computes every node's discovery: {!run_flat} and
    {!grow_into} both go through it.  The list-based
    statement of the rule (a {!Neighbor.t} list per node, rebuilt at
    every power step) is kept in [test/spec_geo.ml] as the oracle the
    kernel is property-tested against, bit for bit.

    All-pairs scans are accelerated by a [Geom.Grid] spatial index keyed
    on the radio range; results are identical to the O(n²) full scans of
    [test/spec_geo.ml] (property-tested), which are also the baseline
    column of the [perf] benchmark.

    Every node's discovery is independent of every other's, so the
    per-node loops optionally run chunked over a [Parallel.Pool]
    ([?pool]); each chunk writes only its own slots of the preallocated
    result arrays, so the outcome is bit-identical to the sequential
    pass for any pool size. *)

(** [run_flat ?pool ?obs config pathloss positions] runs the oracle for
    every node and returns the converged state in the CSR row form of
    {!Discovery.t} it is computed in.  Internally builds one spatial
    index over [positions] and reuses it for every node's discovery, so
    a full pass is O(n · local density) instead of O(n²); with [?pool]
    the nodes are processed in parallel chunks (same result,
    property-tested).

    When [obs] is given, the pass is wrapped in a [discovery] span and
    records [discovery.nodes] / [discovery.power_steps] /
    [discovery.boundary_nodes] counters plus [discovery.candidates],
    [discovery.degree] and [grid.cell_occupancy] histograms.  Metrics
    are folded in node order after the parallel loop, so they are
    identical for every pool size.

    [?env] (here and on every function below) is the per-link
    propagation environment of {!Radio.Env} discovery runs under,
    resolved once per call ([Radio.Env.resolve]): grid prefilters probe
    the env's [max_reach] radius while its exact link power decides
    membership.  Omitting it means the trivial environment, whose link
    powers and radii are the pure pathloss's bit for bit (pinned against
    pure-pathloss oracles in test/test_env.ml).
    @raise Invalid_argument when [env] was built over a pathloss other
    than [pathloss]. *)
val run_flat :
  ?pool:Parallel.Pool.t ->
  ?obs:Obs.Recorder.t ->
  ?env:Radio.Env.t ->
  Config.t -> Radio.Pathloss.t -> Geom.Vec2.t array -> Discovery.t

(** {2 Flat per-node kernel}

    One node's discovery, allocation-free, for callers that re-grow
    single nodes at high rates (the daemon's incremental engine).  A
    {!scratch} owns reusable Bigarray-backed buffers; one [grow_into]
    call leaves the discovered rows resident in it, read back through
    the [row_*] accessors.  Discovery is a pure function of the live
    positions within range of [u], which is what makes incremental
    dirty-node regrowth (lib/daemon) provably equivalent to a full
    recompute.  Results are bit-identical to the list-based spec in
    [test/spec_geo.ml] — same candidate math, same (link power, id)
    order, same gap test — pinned by the differential properties in
    test/test_csr.ml. *)

(** Reusable per-worker scratch buffers.  Not thread-safe: use one per
    domain. *)
type scratch

val scratch_create : unit -> scratch

(** The node-independent part of the power schedule ({!Config.growth}):
    compute once per (config, pathloss) and share across all
    [grow_into] calls of a run. *)
type schedule

val schedule_of : Config.t -> Radio.Pathloss.t -> schedule

(** [schedule_final s] is the final step of a stepped (Double/Mult)
    schedule — the power at which the walk {e drains} every remaining
    candidate, possibly absorbing links above the step value itself —
    or [infinity] for Exact growth, whose steps are each node's own
    candidate link powers (draining at the maximal link absorbs nothing
    beyond it).  A node converged exactly at this power may therefore
    hold neighbors with link power above its converged power; callers
    reasoning "links above [p_v] cannot be absorbed by [v]" (the
    daemon's dirty-propagation cut) must treat such nodes like boundary
    nodes. *)
val schedule_final : schedule -> float

(** [grow_into ?grid ?alive ~schedule s config pathloss positions u]
    grows node [u] to convergence and returns
    [(degree, final power, boundary)].  Candidates are [u]'s [G_R]
    neighbors passing [alive] (default: everyone — crashed nodes are
    invisible to discovery); when [grid] (an index built over exactly
    [positions]) is given only nearby cells are probed, otherwise all
    positions are scanned.  The [degree] discovered neighbors are left
    in [s], sorted by increasing (link power, id) — read row
    [r < degree] with the accessors below before the next [grow_into]
    on [s] overwrites them.
    @raise Invalid_argument when [u] is not a node of [positions]. *)
val grow_into :
  ?grid:Geom.Grid.t ->
  ?alive:(int -> bool) ->
  ?env:Radio.Env.t ->
  schedule:schedule ->
  scratch ->
  Config.t -> Radio.Pathloss.t -> Geom.Vec2.t array -> int ->
  int * float * bool

val row_id : scratch -> int -> int
val row_link : scratch -> int -> float
val row_dir : scratch -> int -> float
val row_tag : scratch -> int -> float

(** [gap_trace ~alpha dirs] inserts the normalized directions [dirs]
    one at a time into the kernel's sorted-unique direction set, whose
    alpha-gap test keeps a count of its gaps at or above
    [alpha - 1e-9] instead of rescanning the set, and returns, after
    each insertion, whether that test reports a gap.  It exists so the
    count can be checked against a full rescan of the set (the test
    suite's [max_gap_ba]) insertion by insertion. *)
val gap_trace : alpha:float -> float array -> bool array

(** [max_power_graph ?pool pathloss positions] is [G_R]: the graph
    induced by every node transmitting at maximum power.  It is
    [Baselines.Proximity.max_power], the library's one G_R builder:
    grid-accelerated with a pool or from
    [Geom.Grid.default_brute_cutoff] nodes up, a triangular pair scan
    below that (faster at small [n], the identical graph).  Under
    [?env] the result is [G_R^env] — the realized reachability graph
    under the environment. *)
val max_power_graph :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> Graphkit.Ugraph.t

(** [max_power_partition ?env ~alive pathloss positions] is the
    component partition of [G_R] (or [G_R^env]) restricted to the nodes
    with [alive.(u)], as {!Graphkit.Unionfind.labels}: dead nodes are
    singletons.  It is [Baselines.Proximity.max_power_partition]: the
    grid probe and pair predicate of {!max_power_graph}, each admitted
    pair fed to a union-find instead of materialising the graph, so it
    equals [Graphkit.Traversal.components] of [max_power_graph] with the
    edges at dead endpoints removed.
    @raise Invalid_argument when [alive] and [positions] differ in
    length. *)
val max_power_partition :
  ?env:Radio.Env.t ->
  alive:bool array ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> int array
