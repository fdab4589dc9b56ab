(** Angles on the unit circle, in radians.

    A {e direction} is an angle normalized to the half-open interval
    [\[0, 2pi)].  This module provides the circular arithmetic used by the
    CBTC gap and coverage tests. *)

val pi : float

val two_pi : float

(** The paper's tight connectivity threshold, 5pi/6. *)
val five_pi_six : float

(** The threshold below which asymmetric edge removal is sound, 2pi/3. *)
val two_pi_three : float

(** The pairwise-removal cone half-test threshold, pi/3. *)
val pi_three : float

(** [normalize a] maps [a] to the equivalent direction in [\[0, 2pi)]. *)
val normalize : float -> float

(** [diff a b] is the absolute circular difference between directions
    [a] and [b], in [\[0, pi\]]. *)
val diff : float -> float -> float

(** [ccw_delta a b] is the counterclockwise rotation taking direction [a]
    to direction [b], in [\[0, 2pi)]. *)
val ccw_delta : float -> float -> float

val to_degrees : float -> float

val pp : float Fmt.t
