(** Independent verification of a converged CBTC state.

    Recomputes everything from node positions — deliberately not trusting
    the directions, link powers, or gap flags stored in the
    {!Discovery.t} — and checks the algorithm's defining guarantees.
    Used by the test suite for differential verification of both the
    oracle and the distributed protocol, and by the stress harness to
    check runs degraded by injected faults. *)

(** [run ?obs ?complete ?minimal d] raises [Failure] describing the
    first violated guarantee (when [obs] is given the pass runs inside
    a [verify] span):

    - every discovered neighbor lies within radio range and within the
      node's converged power (tags never exceed the final power);
    - every non-boundary node's {e true geometric} neighbor directions
      leave no [alpha]-gap;
    - every boundary node converged at maximum power;
    - with [complete = true] (oracle / reliable-channel outcomes): every
      node physically reachable at the converged power was discovered;
    - with [minimal = true] (exact growth only): the converged power is
      minimal — the neighbors strictly below the final power do not by
      themselves cover the circle for non-boundary nodes.

    Every range/reach/power predicate is judged by the per-link power of
    [?env] ({!Radio.Env}) — the guarantees are restricted to the
    realized reachability graph [G_R^env].  Omitted, the env is the
    trivial one, whose predicates are the pure pathloss ones bit for
    bit. *)
val run :
  ?obs:Obs.Recorder.t -> ?complete:bool -> ?minimal:bool ->
  ?env:Radio.Env.t -> Discovery.t -> unit

(** [surviving ?complete ~alive d] is {!run} restricted to the surviving
    nodes: crashed nodes ([alive.(u) = false]) are skipped entirely, and
    it is additionally a failure for a surviving node to still list a
    crashed neighbor.  [complete] restricts the completeness check to
    reachable {e survivors}.
    @raise Failure on the first violated guarantee.
    @raise Invalid_argument if [alive] does not have one entry per node. *)
val surviving :
  ?complete:bool -> ?env:Radio.Env.t -> alive:bool array -> Discovery.t -> unit

(** Quantified post-fault degradation of a {!Distributed.run} outcome. *)
type degradation = {
  survivors : int;  (** nodes alive at quiescence *)
  crashed : int;  (** nodes dead at quiescence *)
  residual_gap_nodes : int list;
      (** surviving non-boundary nodes whose true geometric directions
          leave an [alpha]-gap — empty on a successful hardened run *)
  boundary_survivors : int;
      (** survivors that gave up with a gap at maximum power *)
  connectivity_preserved : bool;
      (** the symmetric closure, restricted to survivors, induces the
          same component partition on the survivors as their max-power
          reachability graph (the fair post-fault baseline: routes
          through crashed nodes are gone for any algorithm) *)
  delivery_ratio : float;
      (** deliveries / (deliveries + drops); 1. when nothing was sent *)
  extra_rounds : int;
      (** [max_rounds] beyond the [reference] outcome's (0 without one) *)
}

(** [degradation ?reference o] measures [o] without raising.  [reference]
    is typically the fault-free, reliable-channel run of the same
    scenario and only influences [extra_rounds]. *)
val degradation :
  ?reference:Distributed.outcome -> ?env:Radio.Env.t -> Distributed.outcome ->
  degradation

(** {1 Invariant adapters}

    [result]-typed wrappers around the verification passes, for the
    schedule-exploration harness ([Check.Explore]): a failing trial
    becomes an [Error] message instead of an exception, so sweeps
    aggregate failures cheaply. *)

(** [check_guarantees ?complete o] is {!surviving} on [o]'s surviving
    nodes, as a [result]. *)
val check_guarantees :
  ?complete:bool -> ?env:Radio.Env.t -> Distributed.outcome ->
  (unit, string) result

(** [check_surviving ?complete ~alive d] is {!surviving} on a bare
    (alive mask, discovery snapshot) pair, as a [result] — the adapter
    the topology daemon's continuous verification calls between event
    batches, where no [Distributed.outcome] exists. *)
val check_surviving :
  ?complete:bool -> ?env:Radio.Env.t -> alive:bool array -> Discovery.t ->
  (unit, string) result

(** [discovery_equal ~oracle d] checks [d] against the centralized
    oracle's converged state: same neighbor id sets, powers within
    [1e-6], same boundary flags.  [Error] describes the first
    mismatching node. *)
val discovery_equal :
  oracle:Discovery.t -> Discovery.t -> (unit, string) result

(** [check_oracle ~oracle o] is [discovery_equal ~oracle o.discovery]. *)
val check_oracle :
  oracle:Discovery.t -> Distributed.outcome -> (unit, string) result
