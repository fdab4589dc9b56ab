let in_range pathloss positions u v =
  Radio.Pathloss.in_range pathloss
    ~dist:(Geom.Vec2.dist positions.(u) positions.(v))

(* Non-trivial environments swap the membership predicate (env link
   power against the max-power cap) and inflate the grid probe radius
   to the env's sigma-aware [max_reach]; a trivial/absent env
   ([Radio.Env.effective] gives [None]) keeps the pre-env spellings bit
   for bit. *)
let env_in_range env positions u v =
  let pu = positions.(u) and pv = positions.(v) in
  Radio.Env.in_range env ~u ~v ~pu ~pv ~dist:(Geom.Vec2.dist pu pv)

let make_grid pathloss positions =
  Geom.Grid.create ~range:(Radio.Pathloss.max_range pathloss) positions

let max_reach pathloss =
  Radio.Pathloss.reach_distance pathloss
    ~power:(Radio.Pathloss.max_power pathloss)

(* Chunked parallel-for over node indices (inline without a pool).  Every
   builder below computes a per-node list into its own slot of a
   preallocated array, then merges sequentially — adjacency sets make
   edge-insertion order irrelevant, so the merge is deterministic for
   any pool size. *)
let for_nodes ?pool n body =
  match pool with
  | Some pool -> Parallel.Pool.iter_chunks pool n body
  | None -> body 0 n

(* [G_R] edges via the spatial index: probe each node's neighborhood and
   keep [v > u] so every pair is examined once, as the brute-force
   triangular loop does. *)
let filter_gr ?pool ?grid ?env pathloss positions ~keep =
  let env = Radio.Env.effective env in
  let n = Array.length positions in
  let grid =
    match grid with Some g -> g | None -> make_grid pathloss positions
  in
  let reach =
    match env with
    | Some env -> Radio.Env.max_reach env
    | None -> max_reach pathloss
  in
  let member u v =
    match env with
    | Some env -> env_in_range env positions u v
    | None -> in_range pathloss positions u v
  in
  let nbrs = Array.make n [] in
  for_nodes ?pool n (fun lo hi ->
      for u = lo to hi - 1 do
        nbrs.(u) <-
          Geom.Grid.fold_in_range grid positions.(u) ~dist:reach ~init:[]
            ~f:(fun acc v ->
              if v > u && member u v && keep u v then v :: acc else acc)
      done);
  let g = Graphkit.Ugraph.create n in
  Array.iteri
    (fun u vs -> List.iter (fun v -> Graphkit.Ugraph.add_edge g u v) vs)
    nbrs;
  g

let brute_max_power pathloss positions =
  let n = Array.length positions in
  let g = Graphkit.Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if in_range pathloss positions u v then Graphkit.Ugraph.add_edge g u v
    done
  done;
  g

let max_power ?pool ?(cutoff = Geom.Grid.default_brute_cutoff) ?env pathloss
    positions =
  match (Radio.Env.effective env, pool) with
  | None, None when Array.length positions < cutoff ->
      brute_max_power pathloss positions
  | env, pool -> filter_gr ?pool ?env pathloss positions ~keep:(fun _ _ -> true)

let rng ?pool ?env pathloss positions =
  let grid = make_grid pathloss positions in
  let dist u v = Geom.Vec2.dist positions.(u) positions.(v) in
  (* a lune witness w has max(d(u,w), d(v,w)) < d(u,v), so it lies within
     d(u,v) of u: probe only that disk *)
  let keep u v =
    let duv = dist u v in
    not
      (Geom.Grid.exists_in_range grid positions.(u) ~dist:duv (fun w ->
           w <> u && w <> v && Float.max (dist u w) (dist v w) < duv))
  in
  filter_gr ?pool ~grid ?env pathloss positions ~keep

let gabriel ?pool ?env pathloss positions =
  let grid = make_grid pathloss positions in
  let dist2 u v = Geom.Vec2.dist2 positions.(u) positions.(v) in
  (* w inside the circle with diameter uv satisfies d(u,w) < d(u,v) *)
  let keep u v =
    let d2uv = dist2 u v in
    not
      (Geom.Grid.exists_in_range grid positions.(u)
         ~dist:(Float.sqrt d2uv)
         (fun w -> w <> u && w <> v && dist2 u w +. dist2 v w < d2uv))
  in
  filter_gr ?pool ~grid ?env pathloss positions ~keep

let euclidean_mst ?env pathloss positions =
  let gr = max_power ?env pathloss positions in
  Graphkit.Mst.forest_graph gr ~weight:(fun u v ->
      Geom.Vec2.dist positions.(u) positions.(v))

let knn ?pool ?env pathloss positions ~k =
  if k <= 0 then invalid_arg "Proximity.knn: non-positive k";
  let env = Radio.Env.effective env in
  let n = Array.length positions in
  let grid = make_grid pathloss positions in
  let reach =
    match env with
    | Some env -> Radio.Env.max_reach env
    | None -> max_reach pathloss
  in
  let member u v =
    match env with
    | Some env -> env_in_range env positions u v
    | None -> in_range pathloss positions u v
  in
  let chosen = Array.make n [] in
  for_nodes ?pool n (fun lo hi ->
      for u = lo to hi - 1 do
        let in_reach =
          Geom.Grid.fold_in_range grid positions.(u) ~dist:reach ~init:[]
            ~f:(fun acc v ->
              if v <> u && member u v then
                (Geom.Vec2.dist positions.(u) positions.(v), v) :: acc
              else acc)
        in
        let sorted = List.sort Stdlib.compare in_reach in
        chosen.(u) <-
          List.filteri (fun i _ -> i < k) sorted |> List.map snd
      done);
  let g = Graphkit.Ugraph.create n in
  Array.iteri
    (fun u vs -> List.iter (fun v -> Graphkit.Ugraph.add_edge g u v) vs)
    chosen;
  g

let radius_of ?(full_power = false) pathloss positions g =
  if full_power then
    Array.make (Array.length positions) (Radio.Pathloss.max_range pathloss)
  else
    Array.mapi
      (fun u pos_u ->
        List.fold_left
          (fun acc v -> Float.max acc (Geom.Vec2.dist pos_u positions.(v)))
          0.
          (Graphkit.Ugraph.neighbors g u))
      positions

module Brute = struct
  let filter_gr pathloss positions ~keep =
    let n = Array.length positions in
    let g = Graphkit.Ugraph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if in_range pathloss positions u v && keep u v then
          Graphkit.Ugraph.add_edge g u v
      done
    done;
    g

  let max_power = brute_max_power

  let rng pathloss positions =
    let n = Array.length positions in
    let dist u v = Geom.Vec2.dist positions.(u) positions.(v) in
    let keep u v =
      let duv = dist u v in
      let blocked = ref false in
      for w = 0 to n - 1 do
        if (not !blocked) && w <> u && w <> v
           && Float.max (dist u w) (dist v w) < duv
        then blocked := true
      done;
      not !blocked
    in
    filter_gr pathloss positions ~keep

  let gabriel pathloss positions =
    let n = Array.length positions in
    let dist2 u v = Geom.Vec2.dist2 positions.(u) positions.(v) in
    let keep u v =
      let d2uv = dist2 u v in
      let blocked = ref false in
      for w = 0 to n - 1 do
        if (not !blocked) && w <> u && w <> v
           && dist2 u w +. dist2 v w < d2uv
        then blocked := true
      done;
      not !blocked
    in
    filter_gr pathloss positions ~keep

  let knn pathloss positions ~k =
    if k <= 0 then invalid_arg "Proximity.knn: non-positive k";
    let n = Array.length positions in
    let g = Graphkit.Ugraph.create n in
    for u = 0 to n - 1 do
      let in_reach = ref [] in
      for v = 0 to n - 1 do
        if v <> u && in_range pathloss positions u v then
          in_reach :=
            (Geom.Vec2.dist positions.(u) positions.(v), v) :: !in_reach
      done;
      let sorted = List.sort Stdlib.compare !in_reach in
      List.iteri
        (fun i (_, v) -> if i < k then Graphkit.Ugraph.add_edge g u v)
        sorted
    done;
    g
end
