(** Connectivity-preservation checks — the paper's core correctness
    criterion (Theorem 2.1): two nodes are connected in the control
    topology iff they are connected in the max-power graph [G_R]. *)

(** [preserves ~reference g] holds when [g] induces exactly the same
    connected-component partition as [reference]. *)
val preserves : reference:Graphkit.Ugraph.t -> Graphkit.Ugraph.t -> bool

val nb_components : Graphkit.Ugraph.t -> int
