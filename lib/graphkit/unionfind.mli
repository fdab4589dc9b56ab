(** Disjoint-set forests with union by rank and path compression.

    Used by the connectivity-preservation checks (comparing the components
    of a control topology against those of the max-power graph [G_R]) and
    by Kruskal-style constructions. *)

type t

val create : int -> t

(** [union t x y] merges the sets of [x] and [y]; returns [true] when the
    sets were previously distinct. *)
val union : t -> int -> int -> bool

val same : t -> int -> int -> bool

(** [nb_sets t] is the current number of disjoint sets. *)
val nb_sets : t -> int

(** [labels t] is the component id of every element, ids numbered in
    order of each set's smallest member — the convention of
    {!Traversal.components}.  Two forests over the same elements hold the
    same partition iff their [labels] are equal. *)
val labels : t -> int array
