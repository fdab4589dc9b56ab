(** Uniform spatial grid over node positions, stored in CSR form.

    Every geometric hot path of the system — oracle discovery, the
    simulated radio broadcast, the proximity baselines, the interference
    metric — needs "which nodes lie within distance [d] of here?".  A
    brute-force answer scans all [n] positions, making whole-network
    passes O(n²).  This index buckets nodes into square cells of side
    [range] (normally the maximum radio range [R]), so a query for
    radius [d <= range] probes only the 3x3 block of cells around the
    query point — O(occupancy) instead of O(n) — and larger radii probe
    proportionally larger blocks.

    Cell contents live in a CSR (compressed-sparse-row) layout: one
    flat [int array] of node ids grouped by cell, plus a per-cell
    offset array over a dense window of cells, built in two counting
    passes.  Queries therefore stream over contiguous int-array
    segments with no per-bucket allocation or pointer chasing, which is
    what lets a full discovery pass scale to n = 10⁵–10⁶ (see
    docs/PERFORMANCE.md, "Memory layout at scale").

    The grid holds its own copy of the positions; under mobility, keep
    it current with {!move}.  Cell crossings are {e in-place CSR edits}:
    every occupied cell keeps a little slack, a departure swap-pops from
    the cell's live prefix (O(1)) and an arrival appends into the slack —
    stealing one slot from the nearest non-full cell when the slack is
    exhausted — so sustained drift never degrades queries into
    hash-table chasing.  Only nodes that leave the dense cell window
    entirely park in a small overflow table, and a full two-pass rebuild
    (re-centering the window and restoring slack) runs only when that
    table grows past an O(n) threshold.

    {2 Exactness contract}

    {!fold_in_range}, {!iter_in_range} and {!exists_in_range} are
    {e prefilters}: they enumerate a superset of the nodes within [dist]
    of the query point (every node of a cell that intersects the padded
    bounding square, each exactly once, including a node sitting exactly
    at the query point).  Callers apply their own exact predicate —
    [Radio.Pathloss.in_range], [reaches], a strict inequality, … — to
    each candidate, so replacing a brute-force scan with a grid probe
    changes {e which pairs are examined}, never {e which pairs pass}.
    The probe square is padded by a relative and absolute [1e-9] slack,
    so predicates with the path-loss model's round-trip tolerances stay
    safe as long as [dist] mathematically bounds their support (see
    [Radio.Pathloss.reach_distance]).

    {!neighbors_within} is exact: it applies [Vec2.dist _ _ <= dist]
    itself and returns ids sorted in increasing order. *)

type t

(** Node count below which a brute-force O(n²) scan beats building and
    probing the index: at the paper's density a 3x3 probe block covers
    most of a small field, so the grid only re-examines almost everything
    with extra indirection.  Calibrated from [bench_out/perf.json]
    (crossovers between n = 125 and n = 170 for G_R, Yao and
    interference coverage).  Grid-backed builders called without a
    pool fall back to their bit-identical all-pairs kernels below it. *)
val default_brute_cutoff : int

(** [padded dist] is the half-width of the square a query of radius
    [dist] probes: [dist] with a relative and an absolute slack of 1e-9,
    so a point within the exact predicates' float tolerances of [dist]
    is never just outside the probed cells.  A builder that skips the
    exact link test past [padded (Radio.Env.max_reach env)] drops only
    pairs the test rejects. *)
val padded : float -> float

(** [create ~range positions] indexes [positions] (copied) with cell
    side [range].
    @raise Invalid_argument when [range <= 0.] or not finite. *)
val create : range:float -> Vec2.t array -> t

val nb_nodes : t -> int

(** [cell_size t] is the cell side length ([range] at creation). *)
val cell_size : t -> float

(** [occupancy t] is the list of occupied-cell sizes, sorted in
    decreasing order — a deterministic summary of how clustered the
    indexed points are (used by the observability layer). *)
val occupancy : t -> int list

(** [position t u] is [u]'s current indexed position. *)
val position : t -> int -> Vec2.t

(** [move t u p] updates [u]'s position to [p], rebucketing it if it
    changed cell.  O(cell) per update: a cell crossing edits the CSR
    arrays in place (swap-pop from the old cell, append into the new
    cell's slack, worst case shifting one id per cell over a bounded
    scan for a free slot); a full rebuild only fires when too many nodes
    have left the dense cell window. *)
val move : t -> int -> Vec2.t -> unit

(** Mobility health of the index, for correlating query-latency spikes
    with rebuilds (see docs/DAEMON.md):
    [drifted] — cell-changing moves absorbed since the last rebuild
    (almost all of them in-place CSR edits); [overflow] — nodes
    currently parked in the out-of-window overflow table, normally 0
    under drift that stays inside the indexed area; [compactions] —
    {!move}-triggered full rebuilds since {!create}. *)
type health = { drifted : int; overflow : int; compactions : int }

(** [health t] is a constant-time snapshot of the counters above. *)
val health : t -> health

(** [fold_in_range t p ~dist ~init ~f] folds [f] over a superset of the
    node ids within [dist] of point [p] (see the exactness contract
    above); order is unspecified.  [dist < 0.] yields [init]. *)
val fold_in_range :
  t -> Vec2.t -> dist:float -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [iter_in_range t p ~dist f] is {!fold_in_range} for side effects. *)
val iter_in_range : t -> Vec2.t -> dist:float -> (int -> unit) -> unit

(** [exists_in_range t p ~dist f] holds when [f] holds for some candidate
    id; stops at the first hit. *)
val exists_in_range : t -> Vec2.t -> dist:float -> (int -> bool) -> bool

(** [neighbors_within t u ~dist] is the ids [v <> u] with
    [Vec2.dist (position t u) (position t v) <= dist], sorted in
    increasing order. *)
val neighbors_within : t -> int -> dist:float -> int list
