(** Simulated radio network: the paper's communication primitives.

    Section 2 of the paper assumes three primitives:
    - [bcast(u, p, m)]: all nodes [v] with [p(d(u,v)) <= p] receive [m];
    - [send(u, p, m, v)]: point-to-point message;
    - [recv(u, m, v)]: reception, with the reception power [p'] known, from
      which [p(d(u,v))] can be estimated, and with directional (angle of
      arrival) information available.

    This module realizes them over the {!Dsim} engine and the {!Radio}
    path-loss model.  Delivery timing/loss/duplication is governed by a
    {!Dsim.Channel.t}; reception metadata ([rx_power], [rx_dir]) is
    computed from the true geometry — simulating the angle-of-arrival
    hardware the paper assumes.  Nodes can crash (crash-stop), {!recover}
    and move; {!on_fault} hooks observe crash/recover transitions, and
    {!set_link_loss} injects extra {e asymmetric} per-link loss on top of
    the channel model (real links lose the two directions differently —
    Sethu & Gerety, arXiv 0709.0961). *)

type 'msg t

(** A liveness transition, reported to {!on_fault} hooks. *)
type fault = Crashed of int | Recovered of int

(** What a receiving node observes for one delivered message. *)
type 'msg recv = {
  dst : int;  (** the receiving node *)
  src : int;  (** the sender *)
  tx_power : float;  (** power the sender used (carried in-message in the paper) *)
  rx_power : float;  (** reception power after attenuation *)
  rx_dir : float;  (** angle of arrival: direction from [dst] toward [src] *)
  payload : 'msg;
}

type 'msg handler = 'msg recv -> unit

(** [create ?obs ~sim ~pathloss ~channel ~prng ~positions ()] builds a
    network of [Array.length positions] nodes, all alive, with no
    handlers.  When [obs] is given, the network bumps the
    [net.transmissions] / [net.deliveries] / [net.drops] /
    [net.retransmissions] / [net.crashes] / [net.recoveries] counters as
    traffic flows.

    [?env] ({!Radio.Env}) switches the physical layer to the per-link
    propagation environment: {!bcast}/{!send} reachability uses the env
    link power (audience prefilters probe the sigma-aware inflated
    radius), and [rx_power] carries the environment's excess loss, so
    receivers estimating link powers from it recover the {e realized}
    link power.  [?env] is resolved once here ([Radio.Env.resolve]); an
    omitted one is the trivial env, bit-identical to the pure pathloss
    model.
    @raise Invalid_argument when [env] was built over another pathloss. *)
val create :
  ?obs:Obs.Recorder.t ->
  ?env:Radio.Env.t ->
  sim:Dsim.Sim.t ->
  pathloss:Radio.Pathloss.t ->
  channel:Dsim.Channel.t ->
  prng:Prng.t ->
  positions:Geom.Vec2.t array ->
  unit ->
  'msg t

val nb_nodes : 'msg t -> int

val sim : 'msg t -> Dsim.Sim.t

val pathloss : 'msg t -> Radio.Pathloss.t

val position : 'msg t -> int -> Geom.Vec2.t

(** [set_position t u p] moves [u] to [p], keeping the network's spatial
    index (used by {!bcast} to find the audience without scanning every
    node) in sync, so mobility and reconfiguration scenarios stay
    correct. *)
val set_position : 'msg t -> int -> Geom.Vec2.t -> unit

val distance : 'msg t -> int -> int -> float

(** [set_handler t u h] installs [u]'s receive handler (replacing any). *)
val set_handler : 'msg t -> int -> 'msg handler -> unit

(** [bcast t ~src ~power msg] broadcasts: every other live node within
    [distance_for_power power] gets a delivery scheduled through the
    channel model.  Sender must be alive, [power] in [(0, P]].  Returns
    the number of nodes the transmission physically reaches. *)
val bcast : 'msg t -> src:int -> power:float -> 'msg -> int

(** [send t ~src ~dst ~power msg] unicast; returns [false] (and delivers
    nothing) when [dst] is out of range at [power]. *)
val send : 'msg t -> src:int -> dst:int -> power:float -> 'msg -> bool

(** [crash t u] makes [u] crash-stop: it no longer sends or receives.
    Fires {!on_fault} hooks; idempotent (no hook on an already-dead
    node).  [u] stays in the spatial index — the index is a pure position
    map and {!bcast} re-checks liveness on every candidate, so a dead
    node can never appear in an audience. *)
val crash : 'msg t -> int -> unit

(** [recover t u] brings a crashed node back (crash-recover model): it
    resumes sending and receiving with its handler and position intact.
    Fires {!on_fault} hooks; no-op on a live node.  Protocol state is the
    caller's business — a recovered node typically restarts discovery. *)
val recover : 'msg t -> int -> unit

val is_alive : 'msg t -> int -> bool

(** [on_fault t hook] registers [hook] to run synchronously on every
    {!crash}/{!recover} transition, in registration order.  Simulates the
    out-of-band failure detector that Section 4's NDP realizes in-band. *)
val on_fault : 'msg t -> (fault -> unit) -> unit

(** [set_link_loss t ~src ~dst ~loss] adds an independent drop with
    probability [loss] to every delivery on the {e directed} link
    [src -> dst], before the channel model runs.  Directed, so asymmetric
    links are expressible; [loss = 1.] severs the direction (partition
    building block); [loss = 0.] removes the entry.
    @raise Invalid_argument when [loss] is outside [0, 1]. *)
val set_link_loss : 'msg t -> src:int -> dst:int -> loss:float -> unit

(** [link_loss t ~src ~dst] reads the injected per-link loss (0. when
    unset). *)
val link_loss : 'msg t -> src:int -> dst:int -> float

(** [transmissions t] counts [bcast]/[send] calls that actually radiated. *)
val transmissions : 'msg t -> int

(** [deliveries t] counts receive events fired at live nodes. *)
val deliveries : 'msg t -> int

(** [drops t] counts logical deliveries that died on the way: eaten by
    injected link loss, dropped (all copies) by the channel, or arriving
    while the receiver was crashed. *)
val drops : 'msg t -> int

(** [note_retransmit t u] credits one protocol-level retransmission to
    sender [u].  The radio cannot know which transmissions are retries,
    so protocols account for them here, keeping all reliability counters
    in one place for reporting. *)
val note_retransmit : 'msg t -> int -> unit

(** [retransmits t] counts the retransmissions credited so far. *)
val retransmits : 'msg t -> int

(** [energy_used t u] is the cumulative transmission energy node [u] has
    radiated (sum over its transmissions of the power used, one unit of
    airtime each). *)
val energy_used : 'msg t -> int -> float
