(** The cost model and topologies of network-lifetime simulation under
    many-to-one data gathering; the simulation itself is
    {!Schedule.run} (passive by default).

    The model follows the paper's framing: a node owns {e one} configured
    transmission power — enough to reach its farthest topology neighbor
    (its per-node radius; the full range [R] when no topology control is
    used).  Every round, each live node sends one packet to a sink along
    the cheapest route in the current topology, where forwarding a packet
    costs the transmitter [p(radius) + tx_overhead] and the receiver
    [rx_overhead]; optionally, every other live node inside the
    transmitter's disk also pays [rx_overhead] ({e overhearing} — the
    interference cost that makes large radii so expensive).  When a
    battery empties the node crash-stops and the topology is rebuilt over
    the survivors at the next round boundary.

    The {!outcome} records the classic lifetime milestones: first death,
    half dead, and sink partition (more than half of the live non-sink
    nodes unable to reach the sink).  Comparing topologies through this
    harness realizes the paper's lifetime and interference arguments
    quantitatively. *)

(** A controlled topology: the graph plus each node's configured
    transmission radius (0 for isolated or dead nodes). *)
type control = { graph : Graphkit.Ugraph.t; radius : float array }

(** [builder ~alive positions] must return a control on the full node
    set in which dead nodes are isolated with radius 0. *)
type topology_builder = alive:bool array -> Geom.Vec2.t array -> control

(** [induce ~alive positions build] compacts the live nodes to dense
    local ids, runs [build to_global local_positions] on the subset, and
    translates the resulting (graph, radius) pair back to global ids —
    dead nodes end up isolated at radius 0.  [to_global] maps local ids
    back to original ones so builders can present the environment under
    the local ids with {!local_env} ({!Schedule.family_builder} uses
    this for every proximity family). *)
val induce :
  alive:bool array ->
  Geom.Vec2.t array ->
  (int array -> Geom.Vec2.t array -> Graphkit.Ugraph.t * float array) ->
  control

(** [local_env ?env pathloss to_global] is [Radio.Env.resolve ?env
    pathloss] relabeled ([Radio.Env.relabel]) to the local ids of an
    {!induce} subset: shadowing and heights are keyed by original id, so
    survivor rebuilds keep the fading of the original links.
    @raise Invalid_argument when [env] was built over another pathloss. *)
val local_env : ?env:Radio.Env.t -> Radio.Pathloss.t -> int array -> Radio.Env.t

(** [cbtc_builder plan pathloss] reruns the CBTC pipeline over the live
    nodes, under {!local_env} on every rebuild. *)
val cbtc_builder :
  ?pool:Parallel.Pool.t -> ?env:Radio.Env.t ->
  Cbtc.Pipeline.plan -> Radio.Pathloss.t -> topology_builder

(** [max_power_builder pathloss] is the no-topology-control baseline:
    [G_R] over the live nodes, every node at radius [R]. *)
val max_power_builder :
  ?pool:Parallel.Pool.t -> ?env:Radio.Env.t ->
  Radio.Pathloss.t -> topology_builder

type params = {
  capacity : float;  (** initial battery per node *)
  tx_overhead : float;  (** fixed energy per transmission *)
  rx_overhead : float;  (** fixed energy per reception *)
  overhearing : bool;  (** charge bystanders inside the tx disk *)
  max_rounds : int;
}

val default_params : params

type outcome = {
  first_death : int option;  (** round index (1-based) of the first death *)
  half_dead : int option;
  sink_partition : int option;
  rounds_completed : int;
  packets_delivered : int;
  packets_dropped : int;
  deaths : (int * int) list;  (** (round, node), chronological *)
}

val pp_outcome : outcome Fmt.t
