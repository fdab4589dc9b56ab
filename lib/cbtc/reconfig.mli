(** Reconfiguration under mobility and failures (Section 4 of the paper).

    A Neighbor Discovery Protocol (NDP) runs forever: every node
    periodically beacons; a neighbor is considered failed when
    [miss_limit] consecutive beacons are missed; any message (hello, ack
    or beacon) from a node not heard within the timeout is a {e join} —
    hellos and acks count because a recovered node floods hellos while
    re-growing, long before its first beacon; a beacon whose angle of
    arrival moved more than a tolerance is an {e aChange}.  The
    reconfiguration rules are the paper's:

    - [leave_u(v)]: drop [v]; if an [alpha]-gap opens, rerun CBTC(alpha)
      growing from [p(rad-_{u,alpha})] — through the same {!Growth}
      machine as {!Distributed}, with {!Growth.legacy} reliability;
    - [join_u(v)]: record [v], then remove farthest neighbors while
      coverage is unchanged (shrink-back style);
    - [aChange_u(v)]: update the direction; rerun if a gap opened,
      otherwise shrink.

    Beacon power follows Section 4's correction: a node beacons with the
    power computed by the {e basic} algorithm (its unshrunk growth power,
    [P] for boundary nodes, joined with the power needed to reach every
    node it has acked), not the possibly-shrunk data power — otherwise a
    healed partition could go unnoticed.

    The guarantee (and what the tests assert): once the node set and
    positions stop changing, the maintained topology eventually preserves
    the connectivity of the {e new} [G_R]. *)

type params = {
  beacon_interval : float;
  miss_limit : int;  (** leave after this many missed beacons *)
  dir_tolerance : float;  (** aChange threshold, radians *)
  hello_repeats : int;  (** per power step during (re)growth *)
}

val default_params : params

type event_kind = Join | Leave | Achange

type event = { time : float; node : int; about : int; kind : event_kind }

type t

(** [create ?channel ?seed ?params config pathloss positions] builds the
    network, runs the initial distributed CBTC(alpha) to convergence, and
    starts the NDP beacons.  [config.growth] must be stepped.
    @raise Invalid_argument on [Exact] growth. *)
val create :
  ?obs:Obs.Recorder.t ->
  ?channel:Dsim.Channel.t ->
  ?seed:int ->
  ?params:params ->
  ?policy:Dsim.Eventq.policy ->
  Config.t ->
  Radio.Pathloss.t ->
  Geom.Vec2.t array ->
  t

val now : t -> float

(** [run_for t ~duration] advances simulated time (beacons fire, events
    are processed, re-growth happens). *)
val run_for : t -> duration:float -> unit

(** [set_position t u p] moves node [u] (takes effect on the next
    transmission involving [u]). *)
val set_position : t -> int -> Geom.Vec2.t -> unit

(** [crash t u] crash-stops node [u]; its neighbors will observe leaves.
    A growth in progress at [u] stops stepping. *)
val crash : t -> int -> unit

(** [recover t u] brings a crashed node back with a blank protocol state:
    it regrows from minimum power like a fresh node and resumes NDP
    beaconing, so peers observe a {e join}.  It runs in a new epoch: its
    NDP timers are restarted and the pre-crash ones, like any growth
    callback its previous life left pending, cancel themselves; no-op if
    [u] is alive. *)
val recover : t -> int -> unit

(** [alive t u]. *)
val alive : t -> int -> bool

(** [positions t] — current positions of all nodes. *)
val positions : t -> Geom.Vec2.t array

(** [events t] — the NDP events observed since the initial convergence,
    oldest first (bootstrap discovery is not logged). *)
val events : t -> event list

(** [topology t] is the symmetric closure of the live nodes' current
    neighbor sets, restricted to live nodes (crashed nodes appear
    isolated). *)
val topology : t -> Graphkit.Ugraph.t

(** [discovery t] snapshots the live protocol state in {!Discovery} form
    (crashed nodes have empty neighbor sets).  [power] holds the current
    data power; boundary flags reflect the last completed growth. *)
val discovery : t -> Discovery.t

(** [quiescent t ~for_:d] holds when no NDP event or re-growth started in
    the last [d] time units. *)
val quiescent : t -> for_:float -> bool

(** [check_stable t] verifies the survivors' converged state satisfies
    the CBTC guarantees ({!Verify.surviving}), as a [result] — the
    invariant the schedule-exploration harness checks after the network
    settles. *)
val check_stable : t -> (unit, string) result
