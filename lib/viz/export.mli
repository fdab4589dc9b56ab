(** Topology interchange: Graphviz DOT and CSV.

    Exports let downstream tools (graphviz, pandas, gephi) consume the
    topologies this library produces. *)

(** [to_dot ?name positions g] is an undirected Graphviz document with
    node positions as [pos] attributes (inches, graphviz [neato -n]
    convention). *)
val to_dot : ?name:string -> Geom.Vec2.t array -> Graphkit.Ugraph.t -> string

(** [to_csv positions g] serializes as a two-section CSV:
    [node,id,x,y] lines followed by [edge,u,v] lines. *)
val to_csv : Geom.Vec2.t array -> Graphkit.Ugraph.t -> string

(** [write_dot path positions g] / [write_csv path positions g]. *)
val write_dot : string -> Geom.Vec2.t array -> Graphkit.Ugraph.t -> unit

val write_csv : string -> Geom.Vec2.t array -> Graphkit.Ugraph.t -> unit
