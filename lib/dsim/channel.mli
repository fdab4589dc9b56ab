(** Channel fault models.

    Section 4 of the paper relaxes the reliable synchronous channel to an
    asynchronous one where messages may be lost or duplicated.  A channel
    configuration describes per-delivery behaviour; {!deliver} turns one
    logical transmission into zero or more scheduled receive events.

    Two loss processes are supported:

    - {e Bernoulli}: every copy is dropped independently with a fixed
      probability — the memoryless model of the paper's Section 4.
    - {e Gilbert–Elliott}: a two-state Markov chain (Good/Bad) advanced
      once per transmitted copy, with a state-dependent drop probability.
      Real radio links lose packets in {e bursts} (fading, interference,
      multipath — see Sethu & Gerety, arXiv 0709.0961); the chain spends
      geometrically-distributed runs in each state, so losses cluster
      while the long-run mean loss stays analytically known
      ({!mean_loss}).  The chain state is kept {e per link} (keyed by the
      [(src, dst)] pair given to {!deliver}), because bursts on distinct
      links are independent; deliveries without an explicit link share
      one anonymous chain. *)

(** The per-copy loss process. *)
type loss_model =
  | Bernoulli of float  (** independent drop probability, in [0, 1) *)
  | Gilbert_elliott of {
      p_gb : float;  (** P(Good -> Bad) per transmission, in (0, 1] *)
      p_bg : float;  (** P(Bad -> Good) per transmission, in (0, 1] *)
      loss_good : float;  (** drop probability in Good, in [0, 1) *)
      loss_bad : float;  (** drop probability in Bad, in [0, 1] *)
    }

type t = {
  loss : loss_model;  (** per-copy loss process (see {!loss_model}) *)
  duplicate : float;  (** probability an extra copy is delivered *)
  min_delay : float;  (** lower bound on propagation + processing delay *)
  max_delay : float;  (** upper bound (uniform between the bounds) *)
  burst_state : (int * int, bool) Hashtbl.t;
      (** per-link Gilbert–Elliott chain state ([true] = Bad); empty and
          unused for [Bernoulli] channels.  Mutable: create a fresh
          channel per simulation for reproducible runs. *)
}

(** Lossless, duplicate-free, unit delay — the paper's synchronous model. *)
val reliable : t

(** [make ?loss ?duplicate ?min_delay ?max_delay ()] builds a Bernoulli
    channel, with defaults equal to {!reliable}.

    Parameter contract (checked in this order, each violation raising
    [Invalid_argument] with the message shown):
    - [loss] must lie in [0, 1) — a channel losing {e every} message can
      never deliver anything, so [1.] is rejected
      ("Channel.make: loss out of [0,1)");
    - [duplicate] must lie in [0, 1] — [1.] is allowed and means every
      transmission is duplicated ("Channel.make: duplicate out of [0,1]");
    - [min_delay] must be [>= 0.] and [max_delay >= min_delay] — equal
      bounds give a deterministic delay, as in {!reliable}
      ("Channel.make: bad delay range"). *)
val make :
  ?loss:float ->
  ?duplicate:float ->
  ?min_delay:float ->
  ?max_delay:float ->
  unit ->
  t

(** [gilbert_elliott ~p_gb ~p_bg ?loss_good ~loss_bad ?duplicate
    ?min_delay ?max_delay ()] builds a burst-loss channel.
    [loss_good] defaults to [0.].  Mean burst length in the Bad state is
    [1 /. p_bg] transmissions.

    @raise Invalid_argument unless [p_gb] and [p_bg] are in (0, 1],
    [loss_good] in [0, 1), [loss_bad] in [0, 1], and the duplicate/delay
    parameters satisfy the {!make} contract. *)
val gilbert_elliott :
  p_gb:float ->
  p_bg:float ->
  ?loss_good:float ->
  loss_bad:float ->
  ?duplicate:float ->
  ?min_delay:float ->
  ?max_delay:float ->
  unit ->
  t

(** [copy t] is a channel with [t]'s configuration and a {e fresh} burst
    state: every Gilbert–Elliott chain starts in Good, exactly as a
    channel newly built from the same parameters would.  Use one copy
    per trial whenever a loop (or a parallel sweep) would otherwise
    reuse a single channel — the chains' mutable state must not leak
    from one simulation into the next, and sharing one [burst_state]
    table across domains is a data race.  For [Bernoulli] channels the
    copy is behaviourally identical to the original. *)
val copy : t -> t

(** [mean_loss t] is the long-run per-copy drop probability: the Bernoulli
    parameter, or the Gilbert–Elliott loss weighted by the chain's
    stationary distribution
    [pi_bad = p_gb /. (p_gb +. p_bg)]. *)
val mean_loss : t -> float

(** [deliver t ?link sim prng f] schedules [f] for each surviving copy of
    one transmission: the primary copy survives the loss process; an
    extra duplicate is delivered with probability [duplicate] (also
    subject to loss).  For Gilbert–Elliott channels, [link] selects the
    chain advanced by this transmission (default: a single anonymous
    chain).  Returns the number of copies scheduled. *)
val deliver : t -> ?link:int * int -> Sim.t -> Prng.t -> (unit -> unit) -> int
