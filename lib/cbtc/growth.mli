(** The per-node Hello/Ack power-growth machine of Section 2 (Figure 1),
    shared by the one-shot protocol ({!Distributed}) and by Section 4's
    reconfiguration ({!Reconfig}), whose rules "rerun CBTC(alpha)" with
    this same machine.

    A node grows through a schedule of powers.  At each step it
    broadcasts a Hello (repeated [hello_repeats] times) at the step's
    power and, once the acks can have arrived, evaluates its cone: with
    an [alpha]-gap left it retries the same power (up to
    [hello_attempts] broadcasts) and then takes the next step; with the
    gap closed it settles ([settle_rounds] confirming probes) and is
    done; with the schedule exhausted it is a boundary node.  The caller
    owns the receive handler: it answers Hellos with {!answer} and
    records the nodes that ack with {!discover}, by its own rule, into
    {!node.neighbors}, the map the gap test reads.

    Every callback the machine schedules carries the node's epoch and
    does nothing once the node has crashed or its epoch has moved
    ({!reset}): a crashed node stops stepping, and a node restarted by
    {!reset} never inherits its previous life's pending hellos or
    evaluations. *)

(** Retransmission/robustness knobs.  {!legacy} reproduces the original
    fire-and-forget protocol bit-for-bit; {!hardened} is tuned for bursty
    loss and crash faults.

    - [hello_attempts]: broadcasts of the Hello at {e each} power step
      while the cone gap persists, before conceding the gap is real and
      growing the radius.  Retries are spaced by bounded exponential
      backoff ([backoff] round trips, multiplied by [backoff_factor]
      each retry, capped).
    - [settle_rounds]: confirming Hello re-broadcasts at the final power
      once the gap closes — under loss they harvest acks from in-range
      nodes whose earlier replies were dropped, so the symmetric closure
      sees the edge from both sides.  Acks only ever add neighbors, so
      settling cannot reopen the gap.
    - [remove_attempts]: transmissions of each Section 3.2 [Remove]
      notification ({!Distributed}'s Remove phase); every [Remove] is
      acknowledged and retransmitted with the same backoff until acked
      (a silently lost [Remove] would leave a stale edge in
      [E-_alpha]). *)
type reliability = {
  hello_attempts : int;  (** >= 1; 1 = never retry *)
  settle_rounds : int;  (** >= 0; 0 = declare done immediately *)
  remove_attempts : int;  (** >= 1; 1 = fire-and-forget *)
  backoff : float;  (** > 0, first retry wait in channel round trips *)
  backoff_factor : float;  (** >= 1, growth per retry (capped) *)
}

(** No retries, no settling, unacknowledged Removes. *)
val legacy : reliability

(** Tuned for Gilbert–Elliott burst loss around 0.3 mean and crash
    faults: 8 hello attempts, 6 settle rounds, 8 remove attempts,
    1.5x backoff. *)
val hardened : reliability

type phase = Growing | Settling | Done

(** One node's growth state. *)
type node = {
  id : int;
  mutable epoch : int;  (** bumped by {!reset}; stales pending callbacks *)
  mutable phase : phase;
  mutable power : float;  (** current broadcast power *)
  mutable schedule : float list;  (** remaining steps *)
  mutable rounds : int;  (** power steps taken, over every life *)
  mutable attempt : int;  (** hello broadcasts used at the current step *)
  mutable settle_left : int;
  mutable boundary : bool;  (** schedule exhausted with a gap left *)
  mutable neighbors : Neighbor.t Map.Make(Int).t;  (** [N_u], keyed by id *)
  mutable acked : float Map.Make(Int).t;
      (** the nodes [u] answered, with their estimated link powers *)
}

(** [node id ~power] is a node at rest ([Done], epoch 0) at [power]. *)
val node : int -> power:float -> node

(** [reset node ~power] returns a node to rest at [power] in a new
    epoch: empty neighbor and acked maps, no schedule, not boundary.  Its rounds
    are kept.  Callbacks scheduled before the reset stay inert. *)
val reset : node -> power:float -> unit

(** [discover node r ~link_power ~tag] records [r]'s sender in
    [node.neighbors] (replacing any record of it), in the direction [r]
    arrived from. *)
val discover :
  node -> 'msg Airnet.Net.recv -> link_power:float -> tag:float -> unit

(** A growth machine bound to one network. *)
type 'msg t

(** [create ~net ~obs ~alpha ~channel ~hello_repeats ~reliability ~hello
    ~ack ?on_round ?on_settled ()] drives nodes of [net], broadcasting
    [hello] and answering with [ack] on [net]'s simulator.  [channel] is the network's channel:
    its [max_delay] spaces the Hello repeats and sets the evaluation
    delay.  [on_round node] runs at the start of every hello round (a
    step, a retry or a settle probe); [on_settled node] runs when the
    node reaches [Done] (gap closed and settled, or boundary).  Bumps
    the [msg.hello], [msg.ack] and [protocol.power_steps] counters of
    [obs]. *)
val create :
  net:'msg Airnet.Net.t ->
  obs:Obs.Recorder.t ->
  alpha:float ->
  channel:Dsim.Channel.t ->
  hello_repeats:int ->
  reliability:reliability ->
  hello:'msg ->
  ack:'msg ->
  ?on_round:(node -> unit) ->
  ?on_settled:(node -> unit) ->
  unit ->
  'msg t

(** [start m node ~schedule] sets [node] growing through [schedule] and
    takes its first step now. *)
val start : 'msg t -> node -> schedule:float list -> unit

(** [answer m node r ~link_power] is the Hello rule, whatever [node]'s
    phase: record [r]'s sender in [node.acked] and send it the Ack at the
    link power estimated from [r]. *)
val answer :
  'msg t -> node -> 'msg Airnet.Net.recv -> link_power:float -> unit

(** [has_gap m node] — the directions of [node.neighbors] leave an
    [alpha]-gap. *)
val has_gap : 'msg t -> node -> bool

(** [retry_delay m k] is the wait before the [k]-th retransmission
    ([k >= 1]): one round trip stretched by the reliability profile's
    bounded exponential backoff. *)
val retry_delay : 'msg t -> int -> float
