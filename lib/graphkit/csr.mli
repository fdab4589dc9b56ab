(** Immutable CSR (compressed-sparse-row) adjacency.

    A graph frozen into two flat [int array]s: [off] of length [n+1]
    and one [adj] array holding every adjacency row back to back, row
    [u] being [adj.(off.(u)) .. adj.(off.(u+1)-1)] in increasing id
    order.  Traversals stream over contiguous memory instead of walking
    the per-node balanced sets of {!Ugraph}, and {!iter_neighbors}
    allocates nothing — unlike [Ugraph.neighbors], which builds an
    [int list] per call.

    This is the read-optimized backend used by BFS/MST/verification on
    large graphs; the mutable set-based {!Ugraph} remains the build
    representation.  The conversion preserves the increasing-id
    enumeration order, so replacing [List.iter ... (Ugraph.neighbors g u)] with
    [Csr.iter_neighbors] is output-identical (property-tested in
    [test/test_csr.ml]). *)

type t

(** [of_ugraph g] freezes an undirected graph; row [u] lists every
    neighbor of [u] (each undirected edge appears in two rows). *)
val of_ugraph : Ugraph.t -> t

val nb_nodes : t -> int

(** [nb_edges t] counts undirected edges. *)
val nb_edges : t -> int

val degree : t -> int -> int

(** [iter_neighbors t u f] applies [f] over row [u] in increasing id
    order; allocation-free. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [neighbors t u] is row [u] as a list — a convenience shim that
    allocates; prefer {!iter_neighbors} on hot paths. *)
val neighbors : t -> int -> int list
