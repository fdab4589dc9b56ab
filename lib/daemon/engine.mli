(** Incrementally maintained CBTC topology state.

    Tracks positions, liveness, and every node's converged cone
    (neighbors, power, boundary flag) under a stream of join/leave/move
    events.  Because per-node discovery ({!Cbtc.Geo.grow_into}) is a pure
    function of the live positions within radio range, an event can only
    affect nodes within range R of the positions it touches: {!apply}
    marks exactly those dirty, {!commit} regrows them, and the result is
    provably equal to recomputing everything from scratch — the
    invariant {!check_full_equivalence} verifies and
    [Check.Daemon_sweep.sweep] sweeps across seeded schedules. *)

type stats = {
  mutable events : int;
  mutable moves : int;
  mutable leaves : int;
  mutable joins : int;
  mutable commits : int;  (** commits that had work to do *)
  mutable regrown : int;  (** node regrowths, incremental + full *)
  mutable full_recomputes : int;  (** watchdog trips *)
}

type t

(** Default {!commit} watchdog fraction: [1.0].  Regrowing a dirty node
    runs the same per-node kernel over the same index as the full pass
    (per-node wall cost measured within a few percent on the n=10k
    benchmark stream), so a full recompute is never cheaper than
    [k < live] regrowths; at [k = live] the two are the same target
    set and the full pass additionally squashes any drift.  The
    watchdog therefore trips exactly when the whole live population is
    dirty — a free drift-squash, not a routine fallback. *)
val default_watchdog_frac : float

(** [create ?pool ?alive ~watchdog_frac config pathloss positions]
    grows every (initially) live node's cone from scratch.
    [alive] defaults to all-true; [watchdog_frac] is the dirty-set
    fraction of the live population at which {!commit} abandons
    incremental regrowth for a full recompute ([0.] = always full,
    [> 1.] = never).  [env] ({!Radio.Env}) is the per-link propagation
    environment per-node discovery and the dirty-propagation cut run
    under, resolved once here ([Radio.Env.resolve]); omitted, it is the
    trivial env, whose link powers are the pure pathloss's bit for bit.
    @raise Invalid_argument on a negative [watchdog_frac], an [alive] mask of the wrong length, or an [env] built over another
    pathloss. *)
val create :
  ?pool:Parallel.Pool.t ->
  ?alive:bool array ->
  ?env:Radio.Env.t ->
  watchdog_frac:float ->
  Cbtc.Config.t -> Radio.Pathloss.t -> Geom.Vec2.t array -> t

val nb_nodes : t -> int

val live : t -> int

val alive : t -> int -> bool

val position : t -> int -> Geom.Vec2.t

(** [power t u] is [u]'s converged transmit power (0 when dead). *)
val power : t -> int -> float

(** Live view of the counters — not a copy. *)
val stats : t -> stats

(** Drift/overflow/rebuild health of the engine's spatial index
    (surfaced per epoch by the daemon driver). *)
val grid_health : t -> Geom.Grid.health

(** [apply t e] updates tracked positions/liveness and marks the
    affected nodes dirty.  Cones are not touched until {!commit}.
    Events for dead nodes update their tracked position silently.
    @raise Invalid_argument on a node id out of range. *)
val apply : t -> Event.t -> unit

(** [commit ?pool t] regrows the dirty live nodes — incrementally, or
    fully when the dirty set reaches [watchdog_frac] of the live
    population — and empties the dirty set.  With a pool, the targets
    are sorted into spatial order first, so each pool chunk is a compact
    patch (same results, warmer caches).  The payload is the number of nodes regrown. *)
val commit :
  ?pool:Parallel.Pool.t -> t -> [ `Clean | `Incremental of int | `Full of int ]

(** [spatial_sort ~cell positions targets] sorts [targets] in place
    into {!commit}'s spatial order: by the cell
    [(floor (x /. cell), floor (y /. cell))] of each target's position,
    x first, ties broken by id. *)
val spatial_sort : cell:float -> Geom.Vec2.t array -> int array -> unit

(** {1 Snapshots and invariants} *)

(** Copy of the tracked state as a {!Cbtc.Discovery.t}: the engine's
    per-node rows packed into its CSR slots, no per-neighbor records
    (dead nodes carry empty rows and power 0 —
    {!Cbtc.Verify.check_surviving} skips them). *)
val discovery : t -> Cbtc.Discovery.t

(** [G_alpha] restricted to the tracked state: {!Cbtc.Discovery.closure}
    of {!discovery}. *)
val topology : t -> Graphkit.Ugraph.t

(** [partition ~alive t] is the component partition of {!topology}
    restricted to the nodes with [alive.(u)], as
    {!Graphkit.Unionfind.labels} (dead nodes are singletons) — computed
    from the flat neighbor rows without materialising the closure.
    Compare it with {!Cbtc.Geo.max_power_partition} by [=].
    @raise Invalid_argument on an [alive] mask of the wrong length. *)
val partition : alive:bool array -> t -> int array

(** MD5 hex over the full tracked state (positions, liveness, powers,
    boundary flags, neighbor records): two runs converged to the same
    topology iff their digests match — the checkpoint-recovery smoke
    test's oracle. *)
val digest : t -> string

(** [check_full_equivalence ?pool t] recomputes every live node from
    scratch with {!Cbtc.Geo.grow_into} — against a {e fresh} spatial
    index and fresh scratch buffers — and float-exactly
    compares with the tracked state; dead nodes must hold no residual
    state.  [Error] names the first mismatching node. *)
val check_full_equivalence : ?pool:Parallel.Pool.t -> t -> (unit, string) result
