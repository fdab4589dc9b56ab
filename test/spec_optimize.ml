(* The paper's optimizations stated on lists and sets, as the oracle the
   library's flat pipeline (Cbtc.Optimize over Discovery rows, composed
   by Cbtc.Pipeline) is tested against, bit for bit: op1 on per-node
   Neighbor.t lists, E_alpha and E-_alpha built edge by edge from those
   lists, op3 on a Set-backed Ugraph with each verdict recomputing its
   directions and edge ids.  [pipeline] is the whole of
   Pipeline.of_discovery in this form, with the same spans and
   counters. *)

open Cbtc

(* Op1, Theorem 3.1: every node keeps the minimal power-tag prefix of
   its neighbors with unchanged coverage and lowers its power to the
   largest kept tag. *)
let shrink_back ?(obs = Obs.Recorder.nil) (d : Discovery.t) =
  Obs.Recorder.span obs "shrink-back" @@ fun () ->
  let alpha = d.config.Config.alpha in
  let neighbors = Spec_geo.rows d in
  let power = Array.copy d.power in
  for u = 0 to Discovery.nb_nodes d - 1 do
    match Optimize.shrink_neighbors ~alpha neighbors.(u) with
    | kept, Some tag ->
        let dropped = List.length neighbors.(u) - List.length kept in
        if dropped > 0 then begin
          Obs.Recorder.incr obs "shrink.nodes_shrunk";
          Obs.Recorder.incr ~by:dropped obs "shrink.neighbors_dropped"
        end;
        neighbors.(u) <- kept;
        power.(u) <- Float.min power.(u) tag
    | _, None -> ()
  done;
  Spec_geo.with_rows { d with power } neighbors

(* E_alpha over per-node neighbor lists: {u,v} when either lists the
   other. *)
let closure rows =
  let g = Graphkit.Ugraph.create (Array.length rows) in
  Array.iteri
    (fun u row ->
      List.iter (fun (nb : Neighbor.t) -> Graphkit.Ugraph.add_edge g u nb.id) row)
    rows;
  g

(* E-_alpha over per-node neighbor lists: {u,v} when both list the
   other. *)
let core rows =
  let g = Graphkit.Ugraph.create (Array.length rows) in
  Array.iteri
    (fun u row ->
      List.iter
        (fun (nb : Neighbor.t) ->
          if List.exists (fun (w : Neighbor.t) -> w.id = u) rows.(nb.id) then
            Graphkit.Ugraph.add_edge g u nb.id)
        row)
    rows;
  g

(* eid(u,v) = (d(u,v), max ID, min ID), the distance as the exact
   squared distance, compared lexicographically. *)
let eid positions u v =
  (Geom.Vec2.dist2 positions.(u) positions.(v), Stdlib.max u v, Stdlib.min u v)

(* Definition 3.5: (u,v) is redundant from u when a neighbor w <> v of
   u, not coincident with u, lies at an angle under pi/3 (less the 1e-9
   margin) from v with a smaller eid. *)
let spec_redundant_from ~positions g u v =
  let dir w = Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(w) in
  List.exists
    (fun w ->
      w <> v
      && (let d2, _, _ = eid positions u w in
          d2 > 0.)
      && Geom.Angle.diff (dir v) (dir w) < Geom.Angle.pi_three -. 1e-9
      && compare (eid positions u w) (eid positions u v) < 0)
    (Graphkit.Ugraph.neighbors g u)

(* the redundant edges of g, each as (u, v) with u < v *)
let spec_redundant_edges ~positions g =
  List.filter
    (fun (u, v) ->
      spec_redundant_from ~positions g u v || spec_redundant_from ~positions g v u)
    (Graphkit.Ugraph.edges g)

(* Op3, Theorem 3.6, in one pass over the edges: a redundant edge keeps
   both verdicts for the practical filter (`All does not need the
   second); every other edge folds into its endpoints' longest
   non-redundant edge.  Returns a pruned copy of [g]. *)
let pairwise ~positions ?(obs = Obs.Recorder.nil) ?(mode = `Practical) g =
  Obs.Recorder.span obs "pairwise-removal" @@ fun () ->
  let longest_nr = Array.make (Graphkit.Ugraph.nb_nodes g) 0. in
  let redundant = ref [] in
  Graphkit.Ugraph.iter_edges
    (fun u v ->
      let ru = spec_redundant_from ~positions g u v in
      let rv =
        (mode = `Practical || not ru) && spec_redundant_from ~positions g v u
      in
      let d = Geom.Vec2.dist positions.(u) positions.(v) in
      if ru || rv then redundant := (u, v, ru, rv, d) :: !redundant
      else begin
        if d > longest_nr.(u) then longest_nr.(u) <- d;
        if d > longest_nr.(v) then longest_nr.(v) <- d
      end)
    g;
  let to_remove =
    match mode with
    | `All -> !redundant
    | `Practical ->
        (* an edge is removed only by a node from whose perspective it is
           redundant, and only when doing so can lower that node's radius *)
        List.filter
          (fun (u, v, ru, rv, d) ->
            (ru && d > longest_nr.(u)) || (rv && d > longest_nr.(v)))
          !redundant
  in
  Obs.Recorder.incr ~by:(List.length !redundant) obs "pairwise.redundant_edges";
  Obs.Recorder.incr ~by:(List.length to_remove) obs "pairwise.removed_edges";
  let g' = Graphkit.Ugraph.copy g in
  List.iter (fun (u, v, _, _, _) -> Graphkit.Ugraph.remove_edge g' u v) to_remove;
  g'

(* Pipeline.of_discovery stated on lists: op1, then E_alpha (or E-_alpha
   under op2), then op3, and the radius each node needs in the result.
   Returns the graph and the radii. *)
let pipeline ?(obs = Obs.Recorder.nil) (d : Discovery.t) (plan : Pipeline.plan) =
  let shrunk = if plan.shrink then shrink_back ~obs d else d in
  let base =
    if plan.asym then
      Obs.Recorder.span obs "asym-removal" (fun () ->
          core (Spec_geo.rows shrunk))
    else closure (Spec_geo.rows shrunk)
  in
  let graph =
    match plan.pairwise with
    | `None -> base
    | (`Practical | `All) as mode ->
        pairwise ~positions:d.positions ~obs ~mode base
  in
  (graph, Discovery.radius_in shrunk graph)
