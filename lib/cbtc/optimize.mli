(** The paper's three optimizations (Section 3), each proved there to
    preserve connectivity, over the rows of a {!Discovery.t}.
    {!Pipeline} composes them; their list-based statement
    ([shrink_back] and [pairwise] on neighbor lists / [Ugraph.t]) lives
    in [test/spec_optimize.ml] as the oracle these are property-tested
    against, bit for bit.

    - {!shrink_cut} (op1, Theorem 3.1): every node drops its
      highest-power-tagged discovered neighbors as long as its angular
      coverage [cover_alpha] is unchanged.  For boundary nodes this
      undoes the futile growth to maximum power; for overshooting growth
      schedules it also trims non-boundary nodes.
    - asymmetric edge removal (op2, Theorem 3.2, [alpha <= 2pi/3] only):
      use [E-_alpha] (edges discovered in {e both} directions) instead of
      the symmetric closure [E_alpha] — {!Discovery.topology} with
      [~both:true], as {!Discovery.core}.
    - {!pairwise} (op3, Theorem 3.6): remove {e redundant} edges — [(u,v)]
      such that some neighbor [w] of [u] has [angle(v,u,w) < pi/3] and a
      lexicographically smaller edge id [eid(u,w) < eid(u,v)], where
      [eid(u,v) = (d(u,v), max(ID_u, ID_v), min(ID_u, ID_v))].  The
      distance component is compared as the exact squared distance, so
      equidistant neighbors fall through to the strict ID tie-break and
      mutual removal of a pair is impossible; witnesses coincident with
      [u] (d = 0) never make an edge redundant, since the triangle
      inequality behind Theorem 3.6 is not strict there. *)

(** [shrink_neighbors ~alpha neighbors] is op1 for one node: the
    minimal power-tag prefix of [neighbors] whose [cover_alpha] equals
    that of the whole list, paired with the largest kept tag (the node's
    new sufficient power).  Returns [(\[\], None)] on an empty list.
    Used by the reconfiguration rules for join and aChange events
    (Section 4). *)
val shrink_neighbors :
  alpha:float -> Neighbor.t list -> Neighbor.t list * float option

(** [shrink_cut ?obs s] applies op1 to every row of [s]: node [u]
    keeps the prefix [off.(u) .. cut.(u)-1] of its row, the set
    {!shrink_neighbors} keeps, decided with the same [Geom.Arcset]
    calls in the same order.  Op1 keeps whole tag classes from the
    lowest, so its kept set is a prefix of a row in (tag, link power,
    id) order, and every row of [s] must be in that order: kernel rows
    ({!Geo.run_flat}) are.  When [obs] is given, runs inside a
    [shrink-back] span and counts [shrink.nodes_shrunk] /
    [shrink.neighbors_dropped].
    @raise Invalid_argument when a row is out of that order. *)
val shrink_cut : ?obs:Obs.Recorder.t -> Discovery.t -> int array

(** [by_tag d] is a copy of [d] with each row reordered into (tag, link
    power, id) order, the order {!shrink_cut} needs, by a stable
    insertion sort (a no-op pass on kernel rows).  {!Pipeline.of_discovery}
    runs it on discoveries whose rows may be out of that order, such as
    the distributed protocol's. *)
val by_tag : Discovery.t -> Discovery.t

(** Which redundant edges {!pairwise} removes. *)
type pairwise_mode =
  [ `All  (** every redundant edge (the full Theorem 3.6 reduction) *)
  | `Practical
    (** only redundant edges longer than the longest non-redundant edge
        at one of their endpoints — the paper's variant, which removes an
        edge only when doing so can reduce a node's transmission radius *)
  ]

(** [pairwise ?obs ?mode positions t] removes redundant edges from [t]
    (default mode [`Practical]).  Redundancy is evaluated with respect to
    [t] itself, simultaneously for all edges, as in the proof of
    Theorem 3.6; each slot's direction is computed once, with
    [Geom.Vec2.direction].  When [obs] is given, runs inside a
    [pairwise-removal] span and counts [pairwise.redundant_edges] /
    [pairwise.removed_edges]. *)
val pairwise :
  ?obs:Obs.Recorder.t ->
  ?mode:pairwise_mode ->
  Geom.Vec2.t array ->
  Discovery.topology ->
  Discovery.topology
