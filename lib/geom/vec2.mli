(** Two-dimensional points and vectors.

    All coordinates are floats; the plane is the standard Euclidean plane
    with [x] to the right and [y] upward.  Node positions throughout the
    library are values of this type. *)

type t = { x : float; y : float }

val make : float -> float -> t

val zero : t

val add : t -> t -> t

val sub : t -> t -> t

(** [scale k v] is the vector [v] multiplied component-wise by [k]. *)
val scale : float -> t -> t

val dot : t -> t -> float

(** [cross a b] is the z-component of the 3-D cross product, i.e. the signed
    area of the parallelogram spanned by [a] and [b]. *)
val cross : t -> t -> float

val dist2 : t -> t -> float

(** [dist a b] is the Euclidean distance between [a] and [b]. *)
val dist : t -> t -> float

(** [angle_of v] is the angle of [v] in radians, normalized to [0, 2pi).
    [angle_of zero] is [0.]. *)
val angle_of : t -> float

(** [direction ~from ~toward] is the angle of the vector from [from] to
    [toward], normalized to [0, 2pi). *)
val direction : from:t -> toward:t -> float

(** [of_polar ~r ~theta] is the point at distance [r] from the origin in
    direction [theta]. *)
val of_polar : r:float -> theta:float -> t

(** [lerp a b t] is the point [(1-t)·a + t·b]. *)
val lerp : t -> t -> float -> t

(** [equal ?eps a b] holds when both coordinates differ by at most [eps]
    (default [1e-9]). *)
val equal : ?eps:float -> t -> t -> bool

val pp : t Fmt.t
