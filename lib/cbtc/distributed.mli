(** The distributed CBTC(alpha) protocol (Figure 1 of the paper), run
    over the simulated radio network.

    Each node executes, independently and asynchronously:
    {v
    N_u <- {};  D_u <- {};  p_u <- p0;
    while (p_u < P and gap_alpha(D_u)) do
      p_u <- Increase(p_u);
      bcast(u, p_u, ("Hello", p_u)) and gather Acks;
      N_u <- N_u + {v : v discovered};
      D_u <- D_u + {dir_u(v) : v discovered}
    v}
    A node receiving a "Hello" always answers with an Ack sent at the
    estimated link power.  The initiator tags each neighbor with the
    broadcast power in use when it was first discovered (for
    shrink-back), estimates the neighbor's link power from the Ack's
    transmission/reception powers, and reads its direction from the
    angle of arrival.

    After global convergence, {!finalize}d runs send the Section 3.2
    "Remove" notifications: [u] tells every node it acked but did not
    select that [(v, u)] must not count toward [E-_alpha].

    The protocol requires a stepped growth schedule ([Double] or [Mult]);
    a distributed node cannot realize [Exact] growth because it does not
    know the next neighbor's distance in advance.

    Under a reliable channel the outcome is provably identical to the
    centralized oracle ({!Geo}) with the same schedule — the test suite
    checks this on random scenarios.  Under lossy/duplicating channels
    (Section 4's asynchronous model) handlers are idempotent and Hellos
    can be repeated; a {!reliability} profile additionally retries,
    settles and acknowledges (see below), and a {!Faults.Plan.t} injects
    crashes, recoveries and link loss mid-run. *)

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
      notification; every [Remove] is acknowledged and retransmitted
      with the same backoff until acked (a silently lost [Remove] would
      leave a stale edge in [E-_alpha]). *)
type reliability = {
  hello_attempts : int;  (** >= 1; 1 = never retry *)
  settle_rounds : int;  (** >= 0; 0 = declare done immediately *)
  remove_attempts : int;  (** >= 1; 1 = fire-and-forget *)
  backoff : float;  (** > 0, first retry wait in channel round trips *)
  backoff_factor : float;  (** >= 1, growth per retry (capped) *)
}

(** The original protocol: no retries, no settling, unacknowledged
    Removes.  With no fault plan, [run ~reliability:legacy] is
    message-for-message identical to earlier releases. *)
val legacy : reliability

(** Tuned for Gilbert–Elliott burst loss around 0.3 mean and crash
    faults: 8 hello attempts, 6 settle rounds, 8 remove attempts,
    1.5x backoff. *)
val hardened : reliability

type stats = {
  transmissions : int;  (** radio transmissions (hellos + acks + removes) *)
  deliveries : int;  (** message receptions *)
  drops : int;  (** transmissions that delivered no copy *)
  retransmissions : int;  (** retries + settle probes beyond first sends *)
  max_rounds : int;  (** largest number of power steps any node used *)
  duration : float;  (** simulated time to quiescence *)
}

type outcome = {
  discovery : Discovery.t;
      (** converged per-node state; crashed nodes are reported with empty
          rows *)
  core_neighbors : int list array;
      (** per-node [N_alpha(u)] after incoming Remove notifications — the
          distributed materialization of [E-_alpha].  Meaningful only for
          [alpha <= 2pi/3]; at larger angles the Remove phase does not run
          and this equals the plain neighbor sets. *)
  removals : int;
      (** Remove notifications sent (0 when [alpha > 2pi/3]); retries are
          counted under [stats.retransmissions], not here *)
  alive : bool array;  (** liveness at quiescence, per node *)
  injected : Faults.Inject.stats;  (** faults that actually fired *)
  stats : stats;
  schedule_log : int array;
      (** the event queue's tie-break decision log (see
          {!Dsim.Eventq.log}): empty under the default [Fifo] policy,
          else one priority per scheduled event.  Re-running with
          [~policy:(Replay log)] reproduces the schedule exactly. *)
}

(** [run ?channel ?hello_repeats ?seed ?start_spread ?reliability ?faults
    config pathloss positions] executes the protocol to quiescence and,
    afterwards, the Remove phase.

    - [channel] (default reliable, unit delay) governs loss/duplication/
      delay.
    - [hello_repeats] (default 1) re-broadcasts each Hello blindly, even
      on a healthy step.
    - [start_spread] (default 0.) staggers node start times uniformly in
      [\[0, start_spread\]] — full asynchrony.
    - [reliability] (default {!legacy}) adds adaptive retries, settle
      rounds and acknowledged Removes.
    - [faults] (default {!Faults.Plan.empty}) is armed on the network
      before the first Hello.  Crash/recovery handling models the
      Section 4 failure detector abstractly: when a node crashes, every
      survivor forgets it and — if that reopened its cone — resumes
      power growth from the next scheduled step instead of stalling
      (the paper's "grow from p(rad-)" rule); nodes at maximum power
      become boundary nodes.  A recovered node restarts discovery from
      minimum power.  Messages already in flight from a node that then
      crashed are suppressed on receipt.

    - [policy] (default {!Dsim.Eventq.Fifo}) selects the simulator's
      same-timestamp tie-break rule.  [Fifo] is bit-identical to the
      historical engine; [Seeded _] explores a random permutation of
      every tie group and [Replay _] replays a recorded
      [outcome.schedule_log] — the machinery of {!Check.Explore}.
    - [mutant] (default [false]) arms a deliberately injected
      reordering bug for the harness's mutation smoke test: first-time
      Acks arriving out of ascending-src order are discarded.  Under
      [Fifo] and a reliable channel the discarded set is empty (each
      step's ack batch arrives ascending because broadcast audiences
      are sorted by id), so the mutant is invisible to every
      single-schedule test — only schedule exploration catches it.
      Never enable outside the harness.
    - [env] ({!Radio.Env}) switches the simulated radio to the
      per-link propagation environment: hello audiences and reception
      powers carry the realized excess loss, so nodes discover the
      {e env} link powers (reception-power estimation recovers exactly
      the realized link power, not the geometric one).  Trivial or
      omitted environments are bit-identical to the pure model.

    @raise Invalid_argument if [config.growth] is [Exact], if
    [hello_repeats < 1], if [start_spread < 0], or if [reliability] is
    malformed ([hello_attempts < 1], [settle_rounds < 0],
    [remove_attempts < 1], [backoff <= 0] or [backoff_factor < 1]). *)
val run :
  ?obs:Obs.Recorder.t ->
  ?channel:Dsim.Channel.t ->
  ?hello_repeats:int ->
  ?seed:int ->
  ?start_spread:float ->
  ?reliability:reliability ->
  ?faults:Faults.Plan.t ->
  ?policy:Dsim.Eventq.policy ->
  ?mutant:bool ->
  ?env:Radio.Env.t ->
  Config.t ->
  Radio.Pathloss.t ->
  Geom.Vec2.t array ->
  outcome

(** [result]-typed invariant adapters for the schedule-exploration
    harness live in {!Verify} ([Verify.check_guarantees],
    [Verify.check_oracle], [Verify.discovery_equal]). *)
