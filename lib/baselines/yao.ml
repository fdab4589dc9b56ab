let yao_out_degree_bound ~k = k

(* Per-sector selection for one node over a candidate id list.  Ties on
   distance keep the lowest-id node: candidates are examined in
   increasing id on both the all-pairs and the grid path. *)
let select_sectors env lane positions u ~k ~sector_width best candidates =
  List.iter
    (fun v ->
      if v <> u then begin
        if
          Radio.Env.link_into env ~u ~v ~pu:positions.(u) ~pv:positions.(v)
            lane 0
        then begin
          let dist = Geom.Vec2.dist positions.(u) positions.(v) in
          let dir =
            Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(v)
          in
          let sector =
            Stdlib.min (k - 1) (Stdlib.int_of_float (dir /. sector_width))
          in
          match best.(sector) with
          | Some (d, _) when d <= dist -> ()
          | Some _ | None -> best.(sector) <- Some (dist, v)
        end
      end)
    candidates

let build ?pool env positions ~k ~candidates_of =
  if k < 3 then invalid_arg "Yao.yao: k < 3";
  let n = Array.length positions in
  let sector_width = Geom.Angle.two_pi /. Stdlib.float_of_int k in
  (* selections are per-node-independent: each chunk writes only its own
     slots, and the final merge into set-based adjacency is
     order-insensitive, so the graph is the same for any pool size *)
  let selected = Array.make n [] in
  let body lo hi =
    (* [link_into]'s one-slot lane: the stored link power is unused *)
    let lane = Radio.Env.lane_create 1 in
    for u = lo to hi - 1 do
      let best = Array.make k None in
      select_sectors env lane positions u ~k ~sector_width best
        (candidates_of u);
      selected.(u) <-
        Array.fold_left
          (fun acc -> function Some (_, v) -> v :: acc | None -> acc)
          [] best
    done
  in
  (match pool with
  | Some pool -> Parallel.Pool.iter_chunks pool n body
  | None -> body 0 n);
  let g = Graphkit.Ugraph.create n in
  Array.iteri
    (fun u vs -> List.iter (fun v -> Graphkit.Ugraph.add_edge g u v) vs)
    selected;
  g

let yao ?pool ?env pathloss positions ~k =
  let env = Radio.Env.resolve ?env pathloss in
  let n = Array.length positions in
  let inline = match pool with None -> true | Some _ -> false in
  if n < Geom.Grid.default_brute_cutoff && inline then
    let all = List.init n Fun.id in
    build env positions ~k ~candidates_of:(fun _ -> all)
  else begin
    let grid =
      Geom.Grid.create ~range:(Radio.Pathloss.max_range pathloss) positions
    in
    let reach = Radio.Env.max_reach env in
    build ?pool env positions ~k ~candidates_of:(fun u ->
        List.sort Int.compare
          (Geom.Grid.fold_in_range grid positions.(u) ~dist:reach ~init:[]
             ~f:(fun acc v -> if v = u then acc else v :: acc)))
  end
