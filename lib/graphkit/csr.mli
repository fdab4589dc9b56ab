(** Immutable CSR (compressed-sparse-row) adjacency.

    A graph frozen into two flat [int array]s: [off] of length [n+1]
    and one [adj] array holding every adjacency row back to back, row
    [u] being [adj.(off.(u)) .. adj.(off.(u+1)-1)] in increasing id
    order.  Traversals stream over contiguous memory instead of walking
    the per-node balanced sets of {!Ugraph}/{!Digraph}, and
    {!iter_neighbors} allocates nothing — unlike [Ugraph.neighbors],
    which builds an [int list] per call.

    This is the read-optimized backend used by BFS/MST/verification on
    large graphs; the mutable set-based structures remain the build
    representation.  Conversions preserve the increasing-id enumeration
    order, so replacing [List.iter ... (Ugraph.neighbors g u)] with
    [Csr.iter_neighbors] is output-identical (property-tested in
    [test/test_csr.ml]). *)

type t

(** [of_ugraph g] freezes an undirected graph; row [u] lists every
    neighbor of [u] (each undirected edge appears in two rows). *)
val of_ugraph : Ugraph.t -> t

(** [of_digraph g] freezes a directed graph; row [u] lists [u]'s
    out-neighbors. *)
val of_digraph : Digraph.t -> t

(** [of_edges n edges] builds the undirected CSR directly from an edge
    list over nodes [0 .. n-1] in two counting passes, without an
    intermediate set-based graph.
    @raise Invalid_argument on out-of-range ids, self-loops, or an edge
    listed twice (in either orientation). *)
val of_edges : int -> (int * int) list -> t

val nb_nodes : t -> int

(** [nb_edges t] counts undirected edges for {!of_ugraph}/{!of_edges}
    and directed edges for {!of_digraph}. *)
val nb_edges : t -> int

val degree : t -> int -> int

(** [iter_neighbors t u f] applies [f] over row [u] in increasing id
    order; allocation-free. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [neighbors t u] is row [u] as a list — a convenience shim that
    allocates; prefer {!iter_neighbors} on hot paths. *)
val neighbors : t -> int -> int list

(** [mem_edge t u v] by binary search in row [u]: O(log degree). *)
val mem_edge : t -> int -> int -> bool
