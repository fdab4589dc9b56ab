(** The minimum-energy subgraph of Li and Halpern ("Minimum Energy Mobile
    Wireless Networks Revisited", ICC 2001 — reference \[9\] of the
    paper, improving Rodoplu–Meng), as a position-based comparator.

    An edge [(u, v)] of [G_R] is kept unless some witness [w] makes the
    two-hop relay strictly cheaper under the energy model:
    [cost(u,w) + cost(w,v) < cost(u,v)] with
    [cost(a,b) = p(d(a,b)) + overhead].  The resulting subgraph contains
    a minimum-energy path between every connected pair (power stretch
    exactly 1 under the same energy model) — the property the paper
    contrasts with CBTC's per-node power minimization. *)

(** [smecn ?env energy positions] builds the minimum-energy subgraph of
    [G_R] — of [G_R^env] with [?env] ({!Radio.Env}); the
    relay-cost witness stays under the distance-based energy model. *)
val smecn :
  ?env:Radio.Env.t -> Radio.Energy.t -> Geom.Vec2.t array -> Graphkit.Ugraph.t
