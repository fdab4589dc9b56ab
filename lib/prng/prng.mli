(** Deterministic pseudo-random numbers (splitmix64).

    Every experiment in this repository derives all randomness from a
    single integer seed through this module, so results are reproducible
    bit-for-bit across runs and OCaml versions (the stdlib [Random] gives
    no such cross-version guarantee).

    The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit state
    advanced by a Weyl sequence and finalized with an avalanching mixer.
    It is fast, has a full 2^64 period, and supports cheap independent
    substreams via {!split}. *)

type t

(** [create ~seed] is a fresh generator. *)
val create : seed:int -> t

(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream.  Used to give each
    simulated node or each experiment repetition its own stream. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [float t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)
val float : t -> float -> float

(** [uniform t ~lo ~hi] is uniform in [\[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)
val int : t -> int -> int

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** [gaussian t ~mu ~sigma] is normally distributed (Box–Muller). *)
val gaussian : t -> mu:float -> sigma:float -> float

(** [exponential t ~rate] is exponentially distributed with the given
    rate (mean [1/rate]). *)
val exponential : t -> rate:float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t arr] is a uniformly chosen element of [arr].
    @raise Invalid_argument on an empty array. *)
val choose : t -> 'a array -> 'a
