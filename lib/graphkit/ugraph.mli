(** Mutable undirected simple graphs over dense integer node ids.

    The topologies produced by CBTC and its optimizations ([G_alpha],
    [Gs_alpha], [G-_alpha], the pairwise-reduced graph) are values of
    this type.

    Each node's neighbours are one sorted [int array] row.
    {!add_edge} and {!remove_edge} cost O(deg): they replace the two
    rows they touch with fresh copies and never write a stored row, so
    {!copy} is a shallow O(n) copy of the row table and later edits of
    either graph never show in the other.  Bulk construction is
    {!build}, in O(n + m). *)

type t

val create : int -> t

val nb_nodes : t -> int

val nb_edges : t -> int

(** [add_edge g u v] adds the undirected edge [{u, v}]; idempotent.
    Self-loops are rejected with [Invalid_argument]. *)
val add_edge : t -> int -> int -> unit

val remove_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

(** [neighbors g u] in increasing id order. *)
val neighbors : t -> int -> int list

(** [iter_neighbors g u f] applies [f] to each neighbor of [u] in
    increasing id order — same enumeration as {!neighbors} without
    allocating the list.  Preferred on traversal hot paths. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [fold_neighbors g u ~init ~f] folds over the neighbors of [u] in
    increasing id order, allocation-free. *)
val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val degree : t -> int -> int

(** [edges g] lists each edge once as [(u, v)] with [u < v],
    lexicographically. *)
val edges : t -> (int * int) list

val iter_edges : (int -> int -> unit) -> t -> unit

(** [build n edges] is the graph on [n] nodes whose edges are the pairs
    [edges add] passes to [add], in O(n + m) with no per-edge
    allocation.  [edges] is called twice (a counting pass, then a
    filling pass) and must pass the same pairs both times.  Repeated
    pairs, in either orientation, merge, as {!add_edge} is idempotent.
    @raise Invalid_argument as {!add_edge} does, at the first
    self-loop or out-of-range id, and when the second pass passes
    other pairs than the first. *)
val build : int -> ((int -> int -> unit) -> unit) -> t

(** [of_edges n l] is [build] over the list [l]. *)
val of_edges : int -> (int * int) list -> t

val copy : t -> t

(** [is_subgraph a b] holds when every edge of [a] is an edge of [b]
    (node counts must agree). *)
val is_subgraph : t -> t -> bool

val equal : t -> t -> bool
