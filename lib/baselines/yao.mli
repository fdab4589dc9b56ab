(** Yao graphs (theta-graphs), the sector-based sparsifiers of
    Hassin–Peleg and Keil–Gutwin that the paper cites as the closest
    relatives of the cone-based idea.

    Space around each node is cut into [k] equal sectors; the node keeps
    a directed edge to its nearest in-range neighbor in each sector, and
    the final graph is the symmetric closure.  Unlike CBTC this needs
    distances and a fixed global sector frame, but it makes a natural
    comparison point: CBTC's cone test is "some neighbor in every cone of
    degree alpha", Yao's is "the nearest neighbor in each of k fixed
    cones". *)

(** [yao ?pool pathloss positions ~k] builds the symmetric closure of
    the k-sector Yao graph restricted to [G_R] edges.  Below
    [Geom.Grid.default_brute_cutoff] nodes and without a pool, an
    all-pairs scan is used — it beats the grid at small [n] and yields
    the identical graph; a pool always selects the grid path.  With
    [?pool] the per-node sector selections run chunked over the pool
    (bit-identical output for any pool size).
    With [?env] ({!Radio.Env}) the graph is restricted to [G_R^env]
    edges instead (nearest-in-sector stays distance-ordered).
    @raise Invalid_argument when [k < 3], or when [env] was built over
    another pathloss. *)
val yao :
  ?pool:Parallel.Pool.t ->
  ?env:Radio.Env.t ->
  Radio.Pathloss.t -> Geom.Vec2.t array -> k:int -> Graphkit.Ugraph.t

(** [yao_out_degree_bound ~k] is the out-degree bound [k] (each sector
    contributes at most one selected edge) — exported for tests. *)
val yao_out_degree_bound : k:int -> int
