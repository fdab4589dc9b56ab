(** Network-lifetime simulation under many-to-one data gathering, passive
    or under energy-aware cover-set scheduling.

    {b Passive} (the {!passive} policy, {!run}'s default) is the classic
    simulation over the {!Gather} cost model: every round every live
    node Dijkstra-routes a packet to the sink over the current topology
    and everyone inside a transmitter's disk pays the overhearing tax.
    Its milestones are pinned bit for bit against the plain statement of
    that simulation kept in [test/spec_gather.ml].

    {b Active} scheduling adds what the paper's lifetime argument calls
    for: each {e epoch} the scheduler elects a sink-rooted gather tree —
    a {e cover set} of relay nodes — and puts every non-relay to sleep.
    Relays are chosen greedily per node among the neighbors one hop
    closer to the sink, maximizing residual energy, with a round-robin
    rotation tie-break deterministic in [(seed, epoch)]; sleeping nodes
    wake only to send their own packet, pay no overhearing and no
    idle-listen cost.

    In both modes, when a battery empties the node crash-stops
    mid-stream, the topology is rebuilt over the survivors at the next
    round boundary (a fresh cover set is elected in active mode), and
    the run continues until [max_rounds], total death of the non-sink
    population, or sink partition.

    Costs are {!Gather}'s: a transmission costs the sender
    [p(radius) + tx_overhead] and the addressee [rx_overhead]; awake
    bystanders inside the disk pay [rx_overhead] ({e overhearing});
    awake non-sink nodes additionally pay [idle_listen] per round.

    {b Accounting.}  Alongside the battery, the run keeps per-node
    {e ledgers} of the four charge categories.  A charge is recorded in
    full even when it kills the node (the battery clamps at zero; the
    ledger keeps the overdraw), and per-node values combine in one
    canonical association order — [((tx +. rx) +. overhear) +. idle],
    summed over nodes in index order — so the conservation identity
    [initial_energy -. consumed_energy == residual_energy] holds
    {e float-exactly} by construction and the property suite can verify
    the ledgers against an independent replay of the charge stream. *)

(** Scheduling policy. *)
type policy = {
  rotation_period : int;
      (** rebuild the cover set every this many rounds; [0] disables
          active scheduling entirely (per-round Dijkstra routing — the
          passive mode) *)
  duty : float;
      (** awake fraction for non-relay nodes, in [\[0, 1\]]: [1.] keeps
          every node listening (no duty-cycling), [0.] sleeps every
          non-relay except for its own transmissions; in between, node
          [u] is awake in round [t] when a pure hash of
          [(seed, u, t)] falls below [duty].  Requires
          [rotation_period >= 1] when [< 1.] *)
  idle_listen : float;
      (** energy per round charged to every awake live non-sink node *)
  seed : int;  (** feeds the rotation tie-break and the duty hash *)
}

(** [{rotation_period = 0; duty = 1.; idle_listen = 0.; seed = 0}]:
    passive gathering — every node awake, per-round Dijkstra routing —
    and {!run}'s default policy. *)
val passive : policy

(** [{rotation_period = 25; duty = 0.; idle_listen = 0.; seed = 0}]:
    the default active scheduler used by the bench study. *)
val default_policy : policy

(** [validate_policy p] is [Error msg] on a negative rotation period, a
    duty fraction outside [\[0, 1\]], a negative or non-finite idle
    cost, or duty-cycling ([duty < 1.]) without a rotation period. *)
val validate_policy : policy -> (unit, string) result

(** Charge categories, in the order the ledgers combine. *)
type category = Tx | Rx | Overhear | Idle

(** Per-node accounting, all arrays indexed by node id.  [residual] is
    ledger-derived — [capacity -. (((tx +. rx) +. overhear) +. idle)] —
    and may be slightly negative for dead nodes (the overdraw of the
    killing charge); the battery's clamped level decides liveness. *)
type ledger = {
  tx : float array;
  rx : float array;
  overhear : float array;
  idle : float array;
  residual : float array;
}

type report = {
  outcome : Gather.outcome;  (** the classic milestones *)
  epochs : int;  (** cover-set elections performed (0 in passive mode) *)
  cover_sets : int;  (** {e distinct} relay sets generated *)
  service_rounds : int;
      (** rounds in which at least half the {e original} non-sink
          population could reach the sink — the total-network-lifetime
          scalar ({!total_lifetime}).  Unlike the sink-partition
          milestone, whose threshold is relative to the shrinking live
          population (and so rewards a policy for letting bystanders
          die), this measures how long the network keeps serving the
          deployment it started with. *)
  awake_node_rounds : int;
      (** total node-rounds spent awake by live non-sink nodes *)
  tx_total : float;
  rx_total : float;
  overhear_total : float;
  idle_total : float;
      (** category totals, each summed over nodes in index order *)
  initial_energy : float;  (** [capacity * (n - 1)] — the sink is mains *)
  consumed_energy : float;
      (** [((tx_total +. rx_total) +. overhear_total) +. idle_total] *)
  residual_energy : float;
      (** [initial_energy -. consumed_energy], float-exact *)
  energy_per_delivered : float;
      (** [consumed_energy / packets_delivered]; [infinity] when nothing
          was delivered *)
  energy_per_bit : float;
      (** [energy_per_delivered / packet_bits] *)
  ledger : ledger;
}

(** Packet size used for the energy-per-bit figure. *)
val packet_bits : float

(** [run ?params ?policy ?obs ?on_charge pathloss positions ~sink
    ~topology] simulates until [max_rounds], total death of the non-sink
    population, or sink partition; [params] defaults to
    [Gather.default_params] and [policy] to {!passive}.  The sink has
    infinite energy (it is the collection point).  [on_charge] observes
    every recorded charge in ledger order (category, node, amount) — the hook the
    conservation property replays.  With [obs], epochs, rebuilds and
    deaths are counted on the recorder.
    @raise Invalid_argument on a bad sink index, negative [max_rounds],
    or an invalid policy (see {!validate_policy}). *)
val run :
  ?params:Gather.params ->
  ?policy:policy ->
  ?obs:Obs.Recorder.t ->
  ?on_charge:(category -> int -> float -> unit) ->
  Radio.Pathloss.t ->
  Geom.Vec2.t array ->
  sink:int ->
  topology:Gather.topology_builder ->
  report

(** [total_lifetime r] is [r.service_rounds] — the scalar the bench
    study compares across families. *)
val total_lifetime : report -> int

(** [deaths_plan ?round_time r] bridges the run's load-driven deaths to
    a {!Faults.Plan}: one [Crash] event per death at
    [round_time *. round] (default [round_time = 1.]), in chronological
    order — the correlated failure schedule replayed into [Reconfig] by
    the regression suite. *)
val deaths_plan : ?round_time:float -> report -> Faults.Plan.t

(** {1 Topology families}

    The [topology_builder]-parametric core lets CBTC compete with the
    classic proximity graphs under identical load. *)

type family =
  | Max_power  (** no topology control: [G_R], radius [R] everywhere *)
  | Cbtc of float  (** the full pipeline ([all_ops]) at this [alpha] *)
  | Yao of int  (** Yao graph with [k] sectors *)
  | Rng
  | Gabriel
  | Knn of int
  | Mst  (** Euclidean minimum spanning forest *)

(** The bench study's default line-up: max power, CBTC(5pi/6),
    CBTC(2pi/3), Yao(6), RNG, Gabriel, kNN(6). *)
val families : family list

val family_label : family -> string

(** Inverse of {!family_label} plus the spellings the CLI accepts
    ("max-power", "cbtc", "cbtc:5pi/6", "yao", "yao:8", "knn:4", ...).
    [Error] names the unknown family. *)
val family_of_string : string -> (family, string) result

(** [family_builder family pathloss] rebuilds the family's topology over
    the survivors on every death, under {!Gather.local_env} (the env
    relabeled to original node ids per rebuild), so shadowing stays
    attached to physical links across survivor subsets. *)
val family_builder :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  family ->
  Radio.Pathloss.t ->
  Gather.topology_builder

val pp_report : report Fmt.t
