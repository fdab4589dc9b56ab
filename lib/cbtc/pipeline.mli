(** End-to-end CBTC configurations: discovery plus a choice of
    optimizations, yielding a final topology.

    The paper's Table 1 columns correspond to the presets:
    {!basic}, {!with_shrink} (op1), {!shrink_asym} (op1+op2, requires
    [alpha <= 2pi/3]), and {!all_ops} (op1 + op2-if-applicable + op3). *)

type plan = {
  config : Config.t;
  shrink : bool;  (** apply the shrink-back operation (op1) *)
  asym : bool;
      (** build [E-_alpha] instead of [E_alpha] (op2; only sound — and
          only accepted — when [Config.allows_asymmetric_removal]) *)
  pairwise : [ `None | `Practical | `All ];  (** redundant-edge removal (op3) *)
}

val basic : Config.t -> plan

val with_shrink : Config.t -> plan

(** @raise Invalid_argument when [alpha > 2pi/3]. *)
val shrink_asym : Config.t -> plan

(** All applicable optimizations: shrink-back, asymmetric removal when
    [alpha <= 2pi/3], practical pairwise removal. *)
val all_ops : Config.t -> plan

(** One pipeline run.  Every stage after discovery runs on the rows of
    the {!Discovery.t}: op1 cuts each row to a prefix
    ({!Optimize.shrink_cut}), the kept prefixes become one id-sorted
    CSR topology — [E_alpha], or [E-_alpha] under op2
    ({!Discovery.topology}) — op3, when enabled, prunes it
    ({!Optimize.pairwise}), and [graph] and [radius] are built once,
    from the final rows.  No intermediate discovery or graph is kept.
    The beacon radius [rad_{u,alpha}] that Section 4 requires under
    shrink-back and pairwise removal is the radius in the
    {e unoptimized} [E_alpha]; callers that need it compute
    [Discovery.radius_in t.discovery (Discovery.closure t.discovery)]. *)
type t = {
  plan : plan;
  discovery : Discovery.t;  (** raw converged discovery state *)
  graph : Graphkit.Ugraph.t;  (** the final topology *)
  radius : float array;
      (** per-node transmission radius needed in [graph] *)
}

(** [of_discovery ?obs d plan] applies [plan]'s optimizations to an
    existing discovery state (e.g. one produced by the distributed
    protocol): a copy of its rows is reordered in place into (tag, link
    power, id) order, as op1 needs ({!Optimize.by_tag});
    [t.discovery] is [d] itself.  [plan.config]
    must equal [d.config].  When [obs] is given, each enabled
    optimization runs inside its own span ([shrink-back],
    [asym-removal], [pairwise-removal]) with the counters documented in
    {!Optimize}.  The list-based statement of the same stages
    (shrink-back on neighbor lists, [E_alpha] / [E-_alpha] built edge by
    edge, pairwise removal on [Ugraph.t]) is the oracle in
    [test/spec_optimize.ml]: graphs, radii and counters agree bit for
    bit (property-tested).
    @raise Invalid_argument on config mismatch or an inapplicable op2. *)
val of_discovery : ?obs:Obs.Recorder.t -> Discovery.t -> plan -> t

(** [run_oracle ?pool ?obs ?env pathloss positions plan] = oracle
    discovery + [plan], threading [pool], [obs] and the optional
    propagation environment [env] through {!Geo.run_flat}, whose rows
    the optimizations run on directly and [discovery] holds, with no
    copy.  The optimization
    phases operate on the discovered link powers (already env-realized),
    so no further env plumbing is needed past discovery. *)
val run_oracle :
  ?pool:Parallel.Pool.t ->
  ?obs:Obs.Recorder.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> plan -> t

(** [avg_degree t] and [avg_radius t]: the two quantities of Table 1. *)
val avg_degree : t -> float

val avg_radius : t -> float
