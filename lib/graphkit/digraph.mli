(** Mutable directed graphs over dense integer node ids [0 .. n-1].

    Used to represent the asymmetric discovered-neighbor relation
    [N_alpha] of the paper: [(u, v)] is an edge when [v] is in [u]'s final
    discovered-neighbor set. *)

type t

(** [create n] is an edgeless graph on nodes [0 .. n-1]. *)
val create : int -> t

val nb_nodes : t -> int

val nb_edges : t -> int

(** [add_edge g u v] adds the directed edge [(u, v)]; idempotent.
    Self-loops are rejected with [Invalid_argument]. *)
val add_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

(** [succ g u] is [u]'s out-neighbors, in increasing id order. *)
val succ : t -> int -> int list

(** [iter_succ g u f] applies [f] to each out-neighbor of [u] in
    increasing id order, without allocating the {!succ} list. *)
val iter_succ : t -> int -> (int -> unit) -> unit

val out_degree : t -> int -> int

val iter_edges : (int -> int -> unit) -> t -> unit

val of_edges : int -> (int * int) list -> t

(** [symmetric_closure g] is the undirected graph whose edge set is the
    paper's [E_alpha]: [{u,v}] present iff [(u,v)] or [(v,u)] is in [g]. *)
val symmetric_closure : t -> Ugraph.t

(** [symmetric_core g] is the undirected graph whose edge set is the
    paper's [E-_alpha]: [{u,v}] present iff both [(u,v)] and [(v,u)] are
    in [g] (the largest symmetric subset). *)
val symmetric_core : t -> Ugraph.t
