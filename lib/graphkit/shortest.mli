(** Single-source shortest paths (Dijkstra) with arbitrary non-negative
    edge costs.

    Used to measure power stretch and minimum-energy routes: the cost of
    a link [(u, v)] is supplied by the caller, e.g. [p(d(u,v)) + overhead]
    for energy metrics. *)

(** [dijkstra g ~cost ~src] is the array of least path costs from [src]
    over the undirected graph [g], with [infinity] for unreachable nodes.
    [cost u v] must be non-negative and symmetric.
    @raise Invalid_argument on a negative cost or out-of-range [src]. *)
val dijkstra : Ugraph.t -> cost:(int -> int -> float) -> src:int -> float array

(** [dijkstra_tree g ~cost ~src] additionally returns the shortest-path
    tree as a predecessor array ([-1] for the source and for unreachable
    nodes). *)
val dijkstra_tree :
  Ugraph.t -> cost:(int -> int -> float) -> src:int -> float array * int array

(** [path_to ~prev dst] reconstructs the path from the tree root to
    [dst] (inclusive) out of a predecessor array; [None] when [dst] was
    not reached (and [Some [dst]] when [dst] is the root itself). *)
val path_to : prev:int array -> src:int -> int -> int list option
