(** Direction-set oracles for the test suites: the paper's coverage
    operator and the full Bigarray gap rescan, which the library replaced
    with the gap walk of [Cbtc.Optimize] and the incremental gap count of
    [Cbtc.Geo]. *)

(** [cover ~alpha dirs] is the paper's coverage operator
    [cover_alpha(dirs)]: the set of directions within [alpha/2] of some
    member of [dirs]. *)
val cover : alpha:float -> float list -> Arcset.t

(** [covers_circle ?eps ~alpha dirs] holds when [cover ~alpha dirs] is the
    full circle; equivalent to [not (Geom.Dirset.has_gap ~alpha dirs)] for
    nonempty [dirs]. *)
val covers_circle : ?eps:float -> alpha:float -> float list -> bool

(** [max_gap_ba dirs len] is [Geom.Dirset.max_gap] over the prefix
    [dirs.(0 .. len-1)] of a float64 [Bigarray.Array1], which the caller
    guarantees is sorted increasing, duplicate-free and normalized.  It
    uses the float operations of [max_gap] (consecutive [b -. a] and the
    wrap gap), so results are bit-identical; [has_gap_ba ?eps ~alpha dirs
    len] is [Geom.Dirset.has_gap] over the same prefix. *)
val max_gap_ba :
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float

val has_gap_ba :
  ?eps:float ->
  alpha:float ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  bool
