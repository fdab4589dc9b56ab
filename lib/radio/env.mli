(** Per-link propagation environment.

    The paper's model makes the required link power a pure function of
    distance: [p(d) = c * d^n] ({!Pathloss}).  Real environments add
    log-normal shadowing and obstacle attenuation, breaking the
    distance-monotone reachability every layer of the pipeline silently
    assumes (cf. Sethu & Gerety, arXiv 0709.0961).  An [Env] models this
    as a per-link excess: the required link power between nodes [u] and
    [v] at distance [d] is

    {v p_env(u, v, d) = p(d) * 10^(X_uv / 10) v}

    where [X_uv] (in dB) is the sum of

    - {b shadowing}: a deterministic, symmetric log-normal draw
      [N(0, sigma_db^2)] hashed from [(shadow_seed, {u, v})] and clamped
      to [+/- clamp_db] (default [3 * sigma_db]);
    - {b obstacle loss}: [loss_db] for every obstacle disc the segment
      [u--v] crosses;
    - {b height loss}: [height_loss_db * |h_u - h_v|] for 3D-projected
      placements carrying per-node heights (ids beyond the heights
      array sit at height 0, so the term is total in the node id).

    [X] is a pure function of the unordered pair and the environment —
    no PRNG state is consumed — so discovery under an [Env] remains a
    pure function of (positions, env): symmetric links, deterministic
    across runs and [-j], and safe for the incremental daemon engine.

    An [Env] is the only link model below the library's entry points:
    each function taking [?env] turns it into an [Env.t] once, with
    {!resolve}, and every membership test, probe radius, link power and
    rx power after that goes through this module.  Omitting [?env] means
    {!trivial}: with [sigma_db = 0], no obstacles and no height loss,
    [X = 0], the gain [10^(0/10)] is exactly [1.], and every function
    below equals its {!Pathloss} counterpart {e bit for bit} (pinned
    against pure-[Pathloss] oracles in [test/test_env.ml]). *)

(** An attenuating disc: any link whose segment crosses it pays
    [loss_db] extra decibels. *)
type obstacle = private {
  center : Geom.Vec2.t;
  radius : float;
  loss_db : float;
}

type t

(** [obstacle ~center ~radius ~loss_db] validates and builds a disc.
    @raise Invalid_argument unless [radius > 0] and [loss_db >= 0]. *)
val obstacle : center:Geom.Vec2.t -> radius:float -> loss_db:float -> obstacle

(** [make ?sigma_db ?shadow_seed ?clamp_db ?obstacles ?heights
    ?height_loss_db pathloss] builds an environment over [pathloss].
    Defaults: [sigma_db = 0.], [shadow_seed = 0],
    [clamp_db = 3 *. sigma_db], no obstacles, no heights,
    [height_loss_db = 0.].
    @raise Invalid_argument on negative [sigma_db], [clamp_db] or
    [height_loss_db], non-finite heights, or malformed obstacles. *)
val make :
  ?sigma_db:float ->
  ?shadow_seed:int ->
  ?clamp_db:float ->
  ?obstacles:obstacle array ->
  ?heights:float array ->
  ?height_loss_db:float ->
  Pathloss.t ->
  t

(** [trivial pathloss] is the identity environment: [X_uv = 0] for all
    pairs. *)
val trivial : Pathloss.t -> t

(** [relabel ~labels t] presents [t] under renamed node ids: a query for
    node [i] draws shadowing and heights as node [labels.(i)] of the
    original environment.  Shadowing and heights are keyed by node id,
    so a caller running discovery over a renumbered subset — e.g. the
    survivors of a lifetime run, compacted to dense local ids — must
    translate ids back or every rebuild would redraw the fading of the
    same physical link.  Obstacle losses are purely positional and are
    unaffected.  Relabeling a relabeled environment composes.
    @raise Invalid_argument (possibly deferred to the first query) on a
    negative label or a queried id outside [labels]. *)
val relabel : labels:int array -> t -> t

(** [is_trivial t] holds when [X_uv = 0] for every pair.  The link
    functions below then skip the excess computation; their results are
    the same as the general path's either way. *)
val is_trivial : t -> bool

(** [resolve ?env pathloss] is the environment a function taking
    [?env] and [pathloss] runs under: [env] itself, or [trivial
    pathloss] when it is absent.
    @raise Invalid_argument when [env] was built over a pathloss other
    than [pathloss] (the grid and the power walk follow the argument,
    membership the env, so the two must agree). *)
val resolve : ?env:t -> Pathloss.t -> t

val pathloss : t -> Pathloss.t
val sigma_db : t -> float
val clamp_db : t -> float
val shadow_seed : t -> int

(** [max_link_cap t] is [Pathloss.reach_cap ~power:P]: the largest env
    link power an edge of [G_R^env] may have: the cap {!in_range} and
    {!link_into} compare against. *)
val max_link_cap : t -> float

(** [shadow_db t ~u ~v] is the shadowing term of [X_uv] in dB.
    Symmetric ([shadow_db ~u ~v = shadow_db ~u:v ~v:u]), deterministic
    in [(shadow_seed, {u, v})], and clamped to [+/- clamp_db]. *)
val shadow_db : t -> u:int -> v:int -> float

(** [excess_db t ~u ~v ~pu ~pv] is the full [X_uv] in dB: shadowing plus
    obstacle crossings of the segment [pu--pv] plus height loss. *)
val excess_db : t -> u:int -> v:int -> pu:Geom.Vec2.t -> pv:Geom.Vec2.t -> float

(** [link_power t ~u ~v ~pu ~pv ~dist] is [p_env(u, v, dist)] — the
    minimum power that establishes the link.  [dist] must be the
    distance between [pu] and [pv] (passed in so call sites keep their
    own float spelling).
    @raise Invalid_argument when [dist < 0]. *)
val link_power :
  t -> u:int -> v:int -> pu:Geom.Vec2.t -> pv:Geom.Vec2.t -> dist:float -> float

(** A float64 lane: the unboxed per-candidate link-power storage hot
    loops hand to {!link_into}. *)
type lane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [lane_create n] is a fresh lane of [n] (uninitialized) slots. *)
val lane_create : int -> lane

(** [link_into t ~u ~v ~pu ~pv lane i] is the kernel-facing membership
    test of [G_R^env]: it equals
    [in_range t ~u ~v ~pu ~pv ~dist:(Geom.Vec2.dist pu pv)], and when it
    holds it has written the pair's {!link_power} into slot [i] of
    [lane], bit for bit.  A rejected pair leaves the slot unspecified.

    Nothing is allocated per call: no float crosses the call, and the
    shadowing hash stays unboxed.  Under shadowing, a pair is rejected
    before the excess and the gain are computed when its distance and
    its two hash words prove the link power above {!max_link_cap} (a
    bound per pair of bins of the two Box-Muller uniforms, 128 x 128
    bins built once by {!make}; see docs/RADIO.md, "The kernel entry
    and fast rejection").  The bound is a pre-test of the same formula,
    not a second one: the decision is the exact test's.
    [i] is not bounds-checked. *)
val link_into :
  t -> u:int -> v:int -> pu:Geom.Vec2.t -> pv:Geom.Vec2.t -> lane -> int -> bool

(** [reject_passes t ~u ~v ~pu ~pv] is whether {!link_into}'s fast
    reject lets the pair through to the exact formula (always without
    shadowing).  It holds for every pair {!link_into} accepts; the share
    of tested pairs it passes is the pre-test pass rate
    [bench/profile_link.exe] reports. *)
val reject_passes :
  t -> u:int -> v:int -> pu:Geom.Vec2.t -> pv:Geom.Vec2.t -> bool

(** Env counterpart of [Pathloss.reaches]. *)
val reaches :
  t ->
  power:float ->
  u:int ->
  v:int ->
  pu:Geom.Vec2.t ->
  pv:Geom.Vec2.t ->
  dist:float ->
  bool

(** Env counterpart of [Pathloss.in_range]: membership in [G_R^env]. *)
val in_range :
  t -> u:int -> v:int -> pu:Geom.Vec2.t -> pv:Geom.Vec2.t -> dist:float -> bool

(** [rx_power t ~tx_power ...] is the reception power after both
    free-space attenuation and the environment's excess loss, so
    [Pathloss.estimate_link_power] applied to it recovers
    [p_env(u, v, max(dist, 1))] — the paper's estimation assumption
    lifted to the environment. *)
val rx_power :
  t ->
  tx_power:float ->
  u:int ->
  v:int ->
  pu:Geom.Vec2.t ->
  pv:Geom.Vec2.t ->
  dist:float ->
  float

(** [headroom t] is the largest factor by which the environment can
    {e lower} a required link power: [10^(clamp_db / 10)] under
    shadowing, exactly [1.] when [sigma_db = 0] (obstacles and heights
    only add loss). *)
val headroom : t -> float

(** [probe_radius t ~power] bounds the distances {!reaches} accepts at
    [power]: the sigma-aware inflated radius grid prefilters must probe
    ([Pathloss.distance_for_power] of [reach_cap ~power * headroom t]).
    Exact predicates then decide membership. *)
val probe_radius : t -> power:float -> float

(** [max_reach t] is [probe_radius] at maximum power: the probe radius
    bounding the support of [G_R^env]. *)
val max_reach : t -> float
