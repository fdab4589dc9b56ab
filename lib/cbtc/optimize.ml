let shrink_neighbors ~alpha neighbors =
  match neighbors with
  | [] -> ([], None)
  | _ :: _ ->
      let full_cover =
        Geom.Dirset.cover ~alpha (Neighbor.directions neighbors)
      in
      (* Minimal tag prefix with unchanged coverage (Section 3.1: remove
         nodes tagged p_k, then p_{k-1}, ... while coverage persists).
         Walk the tag classes once from the lowest, extending the covered
         arcs by one class at a time, rather than rebuilding the whole
         prefix's coverage at every candidate tag. *)
      let by_tag = List.sort Neighbor.compare_by_tag neighbors in
      let half = alpha /. 2. in
      let add_arc cover (nb : Neighbor.t) =
        Geom.Arcset.add cover { Geom.Arcset.start = nb.dir -. half; len = alpha }
      in
      let rec first_sufficient cover = function
        | [] -> assert false
        | (nb : Neighbor.t) :: _ as nbs ->
            let tag = nb.tag in
            let cls, rest =
              List.partition (fun (nb : Neighbor.t) -> nb.tag <= tag) nbs
            in
            let cover = List.fold_left add_arc cover cls in
            if Geom.Arcset.equal cover full_cover then tag
            else first_sufficient cover rest
      in
      let tag = first_sufficient Geom.Arcset.empty by_tag in
      (List.filter (fun (nb : Neighbor.t) -> nb.tag <= tag) neighbors, Some tag)

let shrink_back ?(obs = Obs.Recorder.nil) (d : Discovery.t) =
  Obs.Recorder.span obs "shrink-back" @@ fun () ->
  let alpha = d.config.Config.alpha in
  let neighbors = Array.copy d.neighbors in
  let power = Array.copy d.power in
  for u = 0 to Discovery.nb_nodes d - 1 do
    match shrink_neighbors ~alpha neighbors.(u) with
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
  { d with neighbors; power }

type pairwise_mode = [ `All | `Practical ]

(* eid(u,v) = (d(u,v), max ID, min ID), compared lexicographically.
   The distance component is the exact squared distance: squares and
   their sum order edges the same way as d itself, but comparing after
   a sqrt can collapse distinct lengths onto the same rounded float and
   silently hand the decision to the ID tie-break.  Exact ties (the
   equidistant-neighbors case) fall through to (max ID, min ID), which
   is a strict total order, so a pair of edges can never each be
   smaller than the other — mutual removal is impossible. *)
let eid positions u v = (Geom.Vec2.dist2 positions.(u) positions.(v), Stdlib.max u v, Stdlib.min u v)

let eid_lt (d1, a1, b1) (d2, a2, b2) =
  d1 < d2 || (d1 = d2 && (a1 < a2 || (a1 = a2 && b1 < b2)))

(* Definition 3.5: (u,v) is redundant when some neighbor w of u satisfies
   angle(v,u,w) < pi/3 and eid(u,w) < eid(u,v).  The strict inequality is
   implemented with a small conservative margin: at exactly pi/3 (e.g. a
   perfect equilateral triangle, up to float rounding) the edge is kept,
   which is always safe. *)
let angle_margin = 1e-9

let redundant_from g positions u v =
  let dir_v = Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(v) in
  let id_uv = eid positions u v in
  List.exists
    (fun w ->
      w <> v
      &&
      let id_uw = eid positions u w in
      let d2_uw, _, _ = id_uw in
      (* a witness coincident with u has no direction, and the triangle
         argument behind Theorem 3.6 needs d(w,v) < d(u,v), which fails
         at d(u,w) = 0: both (u,v) and (w,v) would count the other's
         endpoint as cover and v could lose every edge *)
      d2_uw > 0.
      &&
      let dir_w = Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(w) in
      Geom.Angle.diff dir_v dir_w < Geom.Angle.pi_three -. angle_margin
      && eid_lt id_uw id_uv)
    (Graphkit.Ugraph.neighbors g u)

let redundant_edges ~positions g =
  List.filter
    (fun (u, v) ->
      redundant_from g positions u v || redundant_from g positions v u)
    (Graphkit.Ugraph.edges g)

let pairwise ~positions ?(obs = Obs.Recorder.nil) ?(mode = `Practical) g =
  Obs.Recorder.span obs "pairwise-removal" @@ fun () ->
  (* One pass evaluates each edge's two verdicts once.  A redundant edge
     is kept with both, for the practical filter (which needs the second
     verdict even when the first holds; `All does not); every other edge
     folds into its endpoints' longest non-redundant edge. *)
  let longest_nr = Array.make (Graphkit.Ugraph.nb_nodes g) 0. in
  let redundant = ref [] in
  Graphkit.Ugraph.iter_edges
    (fun u v ->
      let ru = redundant_from g positions u v in
      let rv = (mode = `Practical || not ru) && redundant_from g positions v u in
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
  List.iter
    (fun (u, v, _, _, _) -> Graphkit.Ugraph.remove_edge g' u v)
    to_remove;
  g'
