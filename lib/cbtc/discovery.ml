type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  positions : Geom.Vec2.t array;
  neighbors : Neighbor.t list array;
  power : float array;
  boundary : bool array;
}

let nb_nodes t = Array.length t.positions

let neighbor_ids t u =
  List.sort Int.compare
    (List.map (fun (n : Neighbor.t) -> n.id) t.neighbors.(u))

let closure t =
  let g = Graphkit.Ugraph.create (nb_nodes t) in
  Array.iteri
    (fun u ns ->
      List.iter (fun (n : Neighbor.t) -> Graphkit.Ugraph.add_edge g u n.id) ns)
    t.neighbors;
  g

(* One pass in increasing u.  [lower.(u)] collects every w <= u whose row
   lists u, pushed while row w was visited; when u's turn comes, [mark]
   holds u exactly at the ids of row u, so {w,u} is kept iff both rows
   list it.  A repeated id pushes or marks twice, which [add_edge]
   absorbs; a row listing its own node reaches [add_edge u u] and is
   rejected, as in [closure]. *)
let core t =
  let n = nb_nodes t in
  let g = Graphkit.Ugraph.create n in
  let mark = Array.make n (-1) in
  let lower = Array.make n [] in
  for u = 0 to n - 1 do
    List.iter
      (fun (nb : Neighbor.t) ->
        mark.(nb.id) <- u;
        if nb.id >= u then lower.(nb.id) <- u :: lower.(nb.id))
      t.neighbors.(u);
    List.iter
      (fun w -> if mark.(w) = u then Graphkit.Ugraph.add_edge g w u)
      lower.(u);
    lower.(u) <- []
  done;
  g

let radius_in t g =
  Array.mapi
    (fun u pos_u ->
      Graphkit.Ugraph.fold_neighbors g u ~init:0. ~f:(fun acc v ->
          Float.max acc (Geom.Vec2.dist pos_u t.positions.(v))))
    t.positions

let reach_power_in t g =
  Array.map
    (fun r -> if r = 0. then 0. else Radio.Pathloss.power_for_distance t.pathloss r)
    (radius_in t g)

let out_radius t =
  Array.mapi
    (fun u pos_u ->
      List.fold_left
        (fun acc (n : Neighbor.t) ->
          Float.max acc (Geom.Vec2.dist pos_u t.positions.(n.id)))
        0. t.neighbors.(u))
    t.positions

let has_gap t u =
  Geom.Dirset.has_gap ~alpha:t.config.Config.alpha
    (Neighbor.directions t.neighbors.(u))

let check_invariants t =
  let n = nb_nodes t in
  let max_power = Radio.Pathloss.max_power t.pathloss in
  let fail fmt = Fmt.kstr failwith fmt in
  if Array.length t.neighbors <> n || Array.length t.power <> n
     || Array.length t.boundary <> n
  then fail "Discovery: array length mismatch";
  for u = 0 to n - 1 do
    let rec sorted = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) ->
          Neighbor.compare_by_link_power a b <= 0 && sorted rest
    in
    if not (sorted t.neighbors.(u)) then fail "Discovery: node %d unsorted" u;
    List.iter
      (fun (nb : Neighbor.t) ->
        if nb.id = u then fail "Discovery: node %d lists itself" u;
        if nb.id < 0 || nb.id >= n then fail "Discovery: node %d bad id" u)
      t.neighbors.(u);
    if t.power.(u) <= 0. || t.power.(u) > max_power *. (1. +. 1e-9) then
      fail "Discovery: node %d power %g out of range" u t.power.(u);
    if t.boundary.(u) then begin
      if t.power.(u) < max_power *. (1. -. 1e-9) then
        fail "Discovery: boundary node %d below max power" u
    end
    else if has_gap t u then fail "Discovery: non-boundary node %d has a gap" u
  done
