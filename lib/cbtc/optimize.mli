(** The paper's three optimizations (Section 3), each proved there to
    preserve connectivity.

    - {!shrink_back} (op1, Theorem 3.1): every node drops its
      highest-power-tagged discovered neighbors as long as its angular
      coverage [cover_alpha] is unchanged, and lowers its broadcast power
      accordingly.  For boundary nodes this undoes the futile growth to
      maximum power; for overshooting growth schedules it also trims
      non-boundary nodes.
    - asymmetric edge removal (op2, Theorem 3.2, [alpha <= 2pi/3] only):
      use [E-_alpha] (edges discovered in {e both} directions) instead of
      the symmetric closure [E_alpha] — see {!Discovery.core}.
    - {!pairwise} (op3, Theorem 3.6): remove {e redundant} edges — [(u,v)]
      such that some neighbor [w] of [u] has [angle(v,u,w) < pi/3] and a
      lexicographically smaller edge id [eid(u,w) < eid(u,v)], where
      [eid(u,v) = (d(u,v), max(ID_u, ID_v), min(ID_u, ID_v))].  The
      distance component is compared as the exact squared distance, so
      equidistant neighbors fall through to the strict ID tie-break and
      mutual removal of a pair is impossible; witnesses coincident with
      [u] (d = 0) never make an edge redundant, since the triangle
      inequality behind Theorem 3.6 is not strict there. *)

(** [shrink_back ?obs d] applies op1 to every node: keeps, per node, the
    minimal power-tag prefix of its discovered neighbors whose coverage
    equals the full discovered coverage, and lowers the node's power to
    the largest kept tag.  Idempotent; never increases any neighbor set
    or power.  When [obs] is given, runs inside a [shrink-back] span and
    counts [shrink.nodes_shrunk] / [shrink.neighbors_dropped]. *)
val shrink_back : ?obs:Obs.Recorder.t -> Discovery.t -> Discovery.t

(** [shrink_neighbors ~alpha neighbors] is the single-node core of
    {!shrink_back}: the minimal power-tag prefix of [neighbors] whose
    [cover_alpha] equals that of the whole list, paired with the largest
    kept tag (the node's new sufficient power).  Returns [(\[\], None)]
    on an empty list.  Also used by the reconfiguration rules for join
    and aChange events (Section 4). *)
val shrink_neighbors :
  alpha:float -> Neighbor.t list -> Neighbor.t list * float option

(** Which redundant edges {!pairwise} removes. *)
type pairwise_mode =
  [ `All  (** every redundant edge (the full Theorem 3.6 reduction) *)
  | `Practical
    (** only redundant edges longer than the longest non-redundant edge
        at one of their endpoints — the paper's variant, which removes an
        edge only when doing so can reduce a node's transmission radius *)
  ]

(** [pairwise ~positions ?obs ?mode g] removes redundant edges from [g]
    (default mode [`Practical]).  Redundancy is evaluated with respect to
    [g] itself, simultaneously for all edges, as in the proof of
    Theorem 3.6.  When [obs] is given, runs inside a [pairwise-removal]
    span and counts [pairwise.redundant_edges] /
    [pairwise.removed_edges]. *)
val pairwise :
  positions:Geom.Vec2.t array ->
  ?obs:Obs.Recorder.t ->
  ?mode:pairwise_mode ->
  Graphkit.Ugraph.t ->
  Graphkit.Ugraph.t
