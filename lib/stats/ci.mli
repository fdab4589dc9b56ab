(** Confidence intervals for sample means (Student's t).

    Used by the benchmark harness to report Table 1 aggregates with 95%
    intervals instead of bare standard deviations. *)

type t = { mean : float; lo : float; hi : float; half_width : float }

(** [t95 ~df] is the two-sided 97.5% Student-t quantile for [df] degrees
    of freedom (exact table for small [df], normal approximation past
    120).
    @raise Invalid_argument for [df < 1]. *)
val t95 : df:int -> float

(** [of_welford acc] is the 95% confidence interval of the mean of the
    samples [acc] has seen.
    @raise Invalid_argument for fewer than 2 samples. *)
val of_welford : Welford.t -> t
