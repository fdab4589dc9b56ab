(** Interference proxy.

    The paper's second motivation for topology control: "the greater the
    power with which a node transmits, the greater the likelihood of the
    transmission interfering with other transmissions".  The standard
    receiver-centric proxy is {e coverage}: how many other nodes fall
    inside a node's transmission disk, i.e. are disturbed whenever it
    transmits. *)

type t = {
  avg_coverage : float;  (** mean nodes-per-transmission-disk *)
  max_coverage : int;  (** most-disturbing node *)
  total_coverage : int;
}

(** [coverage ?pool positions ~radius] computes the proxy for
    per-node transmission radii (a node with radius [0.] — isolated —
    disturbs nobody).  Disk membership is resolved through a [Geom.Grid]
    spatial index sized to the largest radius, so the cost is
    proportional to the disks' actual occupancy rather than n² pairs;
    below [Geom.Grid.default_brute_cutoff] nodes and without a pool, a
    direct all-pairs scan is used instead (faster at small [n],
    identical counts; a pool always selects the grid).  With
    [?pool] the per-node counts are computed chunked over the pool and
    folded sequentially, so results are bit-identical for any pool
    size.
    @raise Invalid_argument on array length mismatch. *)
val coverage :
  ?pool:Parallel.Pool.t ->
  Geom.Vec2.t array -> radius:float array -> t
