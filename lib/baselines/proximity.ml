(* The one G_R link test: [u -- v] is an edge of [G_R^env] when the env
   link power fits the maximum power.  Every builder below resolves its
   [?env] once ([Radio.Env.resolve]); without one it runs under the
   trivial env, whose link power is the pathloss's bit for bit.  The
   test is the kernel's allocation-free [Radio.Env.link_into]; the
   link power it stores in the one-slot [lane] is not needed here, so
   each loop (each pool chunk) owns one lane and overwrites it.  It is
   guarded as [Geo.consider] guards it: no pair farther apart than
   [Env.max_reach] links, so past that radius, padded by the grid's
   probe slack ([guard2 env] is its square), a pair is rejected
   without the sqrt and pow of the exact test. *)
let guard2 env =
  let pre = Geom.Grid.padded (Radio.Env.max_reach env) in
  pre *. pre

let in_range env ~pre2 lane positions u v =
  let pu : Geom.Vec2.t = positions.(u) and pv : Geom.Vec2.t = positions.(v) in
  let dx = pv.x -. pu.x and dy = pv.y -. pu.y in
  (dx *. dx) +. (dy *. dy) <= pre2
  && Radio.Env.link_into env ~u ~v ~pu ~pv lane 0

let make_grid pathloss positions =
  Geom.Grid.create ~range:(Radio.Pathloss.max_range pathloss) positions

(* Chunked parallel-for over node indices (inline without a pool).  Every
   builder below writes each node's row into its own slot of a
   preallocated array, then builds the graph from the rows in one pass
   ([Ugraph.build] sorts them), so the graph is the same for any pool
   size. *)
let for_nodes ?pool n body =
  match pool with
  | Some pool -> Parallel.Pool.iter_chunks pool n body
  | None -> body 0 n

let graph_of_rows rows =
  Graphkit.Ugraph.build (Array.length rows) (fun add ->
      Array.iteri (fun u row -> Array.iter (add u) row) rows)

(* A loop's scratch row: [push] appends, [take] copies the row out and
   empties the scratch. *)
type row = { mutable buf : int array; mutable len : int }

let row_create () = { buf = Array.make 16 0; len = 0 }

let push r v =
  if r.len = Array.length r.buf then begin
    let b = Array.make (2 * r.len) 0 in
    Array.blit r.buf 0 b 0 r.len;
    r.buf <- b
  end;
  r.buf.(r.len) <- v;
  r.len <- r.len + 1

let take r =
  let a = Array.sub r.buf 0 r.len in
  r.len <- 0;
  a

(* [G_R] edges via the spatial index: probe each node's neighborhood
   (the env's probe radius bounds the support of [in_range]) and keep
   [v > u] so every pair is examined once, as the triangular scan of
   [scan_gr] does. *)
let filter_gr ?pool ?grid env positions ~keep =
  let n = Array.length positions in
  let grid =
    match grid with
    | Some g -> g
    | None -> make_grid (Radio.Env.pathloss env) positions
  in
  let reach = Radio.Env.max_reach env and pre2 = guard2 env in
  let rows = Array.make n [||] in
  for_nodes ?pool n (fun lo hi ->
      let lane = Radio.Env.lane_create 1 and row = row_create () in
      for u = lo to hi - 1 do
        Geom.Grid.iter_in_range grid positions.(u) ~dist:reach (fun v ->
            if v > u && in_range env ~pre2 lane positions u v && keep u v then
              push row v);
        rows.(u) <- take row
      done);
  graph_of_rows rows

(* The small-n counterpart of [filter_gr]: the triangular pair scan. *)
let scan_gr env positions ~keep =
  let n = Array.length positions in
  let pre2 = guard2 env in
  let lane = Radio.Env.lane_create 1 and row = row_create () in
  graph_of_rows
    (Array.init n (fun u ->
         for v = u + 1 to n - 1 do
           if in_range env ~pre2 lane positions u v && keep u v then push row v
         done;
         take row))

let all _ _ = true

let max_power ?pool ?env pathloss positions =
  let env = Radio.Env.resolve ?env pathloss in
  match pool with
  | None when Array.length positions < Geom.Grid.default_brute_cutoff ->
      scan_gr env positions ~keep:all
  | pool -> filter_gr ?pool env positions ~keep:all

let max_power_partition ?env ~alive pathloss positions =
  let env = Radio.Env.resolve ?env pathloss in
  let n = Array.length positions in
  if Array.length alive <> n then
    invalid_arg
      "Proximity.max_power_partition: alive/positions length mismatch";
  let grid = make_grid pathloss positions in
  let reach = Radio.Env.max_reach env and pre2 = guard2 env in
  let uf = Graphkit.Unionfind.create n in
  let lane = Radio.Env.lane_create 1 in
  for u = 0 to n - 1 do
    if alive.(u) then
      Geom.Grid.iter_in_range grid positions.(u) ~dist:reach (fun v ->
          if v > u && alive.(v) && in_range env ~pre2 lane positions u v then
            ignore (Graphkit.Unionfind.union uf u v : bool))
  done;
  Graphkit.Unionfind.labels uf

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
  filter_gr ?pool ~grid (Radio.Env.resolve ?env pathloss) positions ~keep

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
  filter_gr ?pool ~grid (Radio.Env.resolve ?env pathloss) positions ~keep

let euclidean_mst ?env pathloss positions =
  let gr = max_power ?env pathloss positions in
  Graphkit.Mst.forest_graph gr ~weight:(fun u v ->
      Geom.Vec2.dist positions.(u) positions.(v))

let knn ?pool ?env pathloss positions ~k =
  if k <= 0 then invalid_arg "Proximity.knn: non-positive k";
  let env = Radio.Env.resolve ?env pathloss in
  let n = Array.length positions in
  let grid = make_grid pathloss positions in
  let reach = Radio.Env.max_reach env and pre2 = guard2 env in
  let chosen = Array.make n [||] in
  for_nodes ?pool n (fun lo hi ->
      let lane = Radio.Env.lane_create 1 in
      for u = lo to hi - 1 do
        let in_reach =
          Geom.Grid.fold_in_range grid positions.(u) ~dist:reach ~init:[]
            ~f:(fun acc v ->
              if v <> u && in_range env ~pre2 lane positions u v then
                (Geom.Vec2.dist positions.(u) positions.(v), v) :: acc
              else acc)
        in
        let sorted = List.sort Stdlib.compare in_reach in
        chosen.(u) <-
          Array.of_list (List.filteri (fun i _ -> i < k) sorted |> List.map snd)
      done);
  graph_of_rows chosen

let radius_of ?(full_power = false) pathloss positions g =
  if full_power then
    Array.make (Array.length positions) (Radio.Pathloss.max_range pathloss)
  else
    Array.mapi
      (fun u pos_u ->
        Graphkit.Ugraph.fold_neighbors g u ~init:0. ~f:(fun acc v ->
            Float.max acc (Geom.Vec2.dist pos_u positions.(v))))
      positions
