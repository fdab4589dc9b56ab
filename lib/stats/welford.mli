(** Online mean/variance accumulation (Welford's algorithm).

    Numerically stable single-pass accumulation, used to aggregate
    per-network metrics across the 100 random networks of the paper's
    evaluation without storing all samples. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

(** [mean t] is the running mean; [nan] when empty. *)
val mean : t -> float

(** [variance t] is the unbiased sample variance; [nan] when fewer than
    two samples. *)
val variance : t -> float

val stddev : t -> float

(** [min t] / [max t]; [nan] when empty. *)
val min : t -> float

val max : t -> float
