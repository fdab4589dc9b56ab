(* The CBTC discovery rule stated directly, as the oracle the library's
   flat kernel (Cbtc.Geo.grow_into / run_flat) is tested against.

   Each node's candidates are its G_R neighbors as a Neighbor.t list
   sorted by (link power, id); the power walk moves the candidates a
   step reaches from [remaining] to [discovered] and stops at the first
   step whose discovered directions leave no alpha-gap, or at the last
   step (maximum power, boundary node).  Nothing here is tuned: every
   float goes through the Vec2 / Pathloss / Radio.Env functions the
   kernel inlines, so the differential properties compare the kernel's
   hand-inlined arithmetic against the plain spelling, float for float.
   A private library (test/dune): the suites link it as their oracle and
   bench/main.exe perf times it as the O(n²) baseline column. *)

open Cbtc

(* Shared candidate test: [consider u v acc] conses v's Neighbor.t onto
   [acc] when v is a distinct node physically within range of u.  Both
   the brute-force scans and the grid probes funnel through this, so the
   two paths examine different pair sets but accept identical ones. *)
let consider pathloss positions u v acc =
  if v = u then acc
  else begin
    let dist = Geom.Vec2.dist positions.(u) positions.(v) in
    if Radio.Pathloss.in_range pathloss ~dist then begin
      let link_power = Radio.Pathloss.power_for_distance pathloss dist in
      let dir = Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(v) in
      Neighbor.make ~id:v ~dir ~link_power ~tag:link_power :: acc
    end
    else acc
  end

(* Env counterpart of [consider]: membership and link power come from
   the environment's per-pair excess.  Only reached for a non-trivial
   env, so the sigma = 0 spec never leaves [consider] above. *)
let consider_env env positions u v acc =
  if v = u then acc
  else begin
    let pu = positions.(u) and pv = positions.(v) in
    let dist = Geom.Vec2.dist pu pv in
    let link_power = Radio.Env.link_power env ~u ~v ~pu ~pv ~dist in
    if link_power <= Radio.Env.max_link_cap env then begin
      let dir = Geom.Vec2.direction ~from:pu ~toward:pv in
      Neighbor.make ~id:v ~dir ~link_power ~tag:link_power :: acc
    end
    else acc
  end

let max_reach pathloss =
  Radio.Pathloss.reach_distance pathloss
    ~power:(Radio.Pathloss.max_power pathloss)

(* [candidates ?grid ?alive ?env pathloss positions u] lists the nodes
   within range of [u] (its G_R or G_R^env neighbors) with true link
   powers and directions, sorted by increasing link power; tags are set
   to the link power.  With [grid] (an index built over exactly
   [positions]) only nearby cells are probed, otherwise all positions
   are scanned; [alive] filters the candidate set. *)
let candidates ?grid ?(alive = fun _ -> true) ?env pathloss positions u =
  if u < 0 || u >= Array.length positions then
    invalid_arg "Spec_geo.candidates: node out of range";
  let acc =
    match env with
    | Some env when not (Radio.Env.is_trivial env) -> begin
        (* the grid probe inflates the radius to the env's headroom
           (shadowing may admit pairs beyond the pathloss reach); the
           exact env predicate decides membership *)
        match grid with
        | Some grid ->
            Geom.Grid.fold_in_range grid positions.(u)
              ~dist:(Radio.Env.max_reach env) ~init:[]
              ~f:(fun acc v ->
                if alive v then consider_env env positions u v acc else acc)
        | None ->
            let acc = ref [] in
            for v = 0 to Array.length positions - 1 do
              if alive v then acc := consider_env env positions u v !acc
            done;
            !acc
      end
    | Some _ | None -> (
        match grid with
        | Some grid ->
            Geom.Grid.fold_in_range grid positions.(u)
              ~dist:(max_reach pathloss) ~init:[]
              ~f:(fun acc v ->
                if alive v then consider pathloss positions u v acc else acc)
        | None ->
            let acc = ref [] in
            for v = 0 to Array.length positions - 1 do
              if alive v then acc := consider pathloss positions u v !acc
            done;
            !acc)
  in
  List.sort Neighbor.compare_by_link_power acc

(* Walk the power schedule for one node: at each step, move the candidates
   now reachable from [remaining] to [discovered] (tagging them with the
   step power), and stop at the first gap-free step.  The last step always
   absorbs all remaining candidates (it is >= P up to rounding).
   Accumulation is by prepending — one final sort instead of a quadratic
   append per step. *)
let grow_node ~alpha ~max_power cands steps =
  let rec walk discovered dirs remaining = function
    | [] -> assert false
    | step :: rest ->
        let is_last = rest = [] in
        let reachable (nb : Neighbor.t) = is_last || nb.link_power <= step in
        let newly, remaining = List.partition reachable remaining in
        let discovered =
          List.fold_left
            (fun acc (nb : Neighbor.t) -> { nb with tag = step } :: acc)
            discovered newly
        in
        let dirs =
          List.fold_left (fun acc (nb : Neighbor.t) -> nb.dir :: acc) dirs newly
        in
        if not (Geom.Dirset.has_gap ~alpha dirs) then (discovered, step, false)
        else if is_last then (discovered, max_power, true)
        else walk discovered dirs remaining rest
  in
  let discovered, power, boundary = walk [] [] cands steps in
  (List.sort Neighbor.compare_by_link_power discovered, power, boundary)

(* [grow_one ?grid ?alive ?env config pathloss positions u] is [u]'s
   converged state — (discovered neighbors sorted by link power, final
   power, boundary flag) — against the candidates passing [alive]. *)
let grow_one ?grid ?alive ?env config pathloss positions u =
  let cands = candidates ?grid ?alive ?env pathloss positions u in
  let link_powers = List.map (fun (nb : Neighbor.t) -> nb.link_power) cands in
  let steps = Config.power_steps config ~pathloss ~link_powers in
  grow_node ~alpha:config.Config.alpha
    ~max_power:(Radio.Pathloss.max_power pathloss)
    cands steps

(* Every node's [grow_one] over a full scan of the positions. *)
let run ?env config pathloss positions =
  let n = Array.length positions in
  let neighbors = Array.make n [] in
  let power = Array.make n (Radio.Pathloss.max_power pathloss) in
  let boundary = Array.make n false in
  for u = 0 to n - 1 do
    let nbrs, p, b = grow_one ?env config pathloss positions u in
    neighbors.(u) <- nbrs;
    power.(u) <- p;
    boundary.(u) <- b
  done;
  Discovery.pack ~config ~pathloss ~positions:(Array.copy positions) ~power
    ~boundary neighbors

(* [rows d] expands [d]'s rows into one Neighbor.t list per node, in row
   order: the list form the oracles here and in test/spec_optimize.ml
   state the rules on.  [Discovery.pack] packs them back. *)
let rows (d : Discovery.t) =
  Array.init (Discovery.nb_nodes d) (fun u ->
      let acc = ref [] in
      Discovery.iter_neighbors d u (fun ~id ~dir ~link_power ~tag ->
          acc := { Neighbor.id; dir; link_power; tag } :: !acc);
      List.rev !acc)

(* [with_rows d rows] is [d] with its rows replaced by [rows]. *)
let with_rows (d : Discovery.t) rows =
  Discovery.pack ~config:d.config ~pathloss:d.pathloss ~positions:d.positions
    ~power:d.power ~boundary:d.boundary rows

(* Float-exact equality of two discoveries' rows, powers and flags. *)
let equal (a : Discovery.t) (b : Discovery.t) =
  a.off = b.off && a.ids = b.ids && a.dirs = b.dirs && a.links = b.links
  && a.tags = b.tags && a.power = b.power && a.boundary = b.boundary

(* ---------- G_R, its partition and the baselines, pure Pathloss ---------- *)

(* The library builds G_R, its survivor partition and every baseline
   through Radio.Env — the trivial env when none is given — and through
   the grid from n = Geom.Grid.default_brute_cutoff or with a pool.
   These triangular scans keep the paper's own test [p(d) <= P], never
   touch Radio.Env and never probe a grid, so the sigma = 0 properties
   in test/test_env.ml compare both the env path and the forced grid
   path against a spelling independent of them. *)

let in_range pathloss positions u v =
  Radio.Pathloss.in_range pathloss
    ~dist:(Geom.Vec2.dist positions.(u) positions.(v))

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

let max_power_graph pathloss positions =
  filter_gr pathloss positions ~keep:(fun _ _ -> true)

(* Components of G_R restricted to [alive], numbered by smallest
   member: the [Unionfind.labels] convention. *)
let max_power_partition ~alive pathloss positions =
  let uf = Graphkit.Unionfind.create (Array.length positions) in
  Graphkit.Ugraph.iter_edges
    (fun u v ->
      if alive.(u) && alive.(v) then
        ignore (Graphkit.Unionfind.union uf u v : bool))
    (max_power_graph pathloss positions);
  Graphkit.Unionfind.labels uf

(* [u -- v] survives unless some third node [w] is a [witness]. *)
let unwitnessed positions u v ~witness =
  let blocked = ref false in
  for w = 0 to Array.length positions - 1 do
    if w <> u && w <> v && witness w then blocked := true
  done;
  not !blocked

let rng pathloss positions =
  let dist u v = Geom.Vec2.dist positions.(u) positions.(v) in
  filter_gr pathloss positions ~keep:(fun u v ->
      unwitnessed positions u v ~witness:(fun w ->
          Float.max (dist u w) (dist v w) < dist u v))

let gabriel pathloss positions =
  let dist2 u v = Geom.Vec2.dist2 positions.(u) positions.(v) in
  filter_gr pathloss positions ~keep:(fun u v ->
      unwitnessed positions u v ~witness:(fun w ->
          dist2 u w +. dist2 v w < dist2 u v))

let euclidean_mst pathloss positions =
  Graphkit.Mst.forest_graph (max_power_graph pathloss positions)
    ~weight:(fun u v -> Geom.Vec2.dist positions.(u) positions.(v))

let knn pathloss positions ~k =
  let n = Array.length positions in
  let g = Graphkit.Ugraph.create n in
  for u = 0 to n - 1 do
    List.init n Fun.id
    |> List.filter (fun v -> v <> u && in_range pathloss positions u v)
    |> List.map (fun v -> (Geom.Vec2.dist positions.(u) positions.(v), v))
    |> List.sort Stdlib.compare
    |> List.iteri (fun i (_, v) -> if i < k then Graphkit.Ugraph.add_edge g u v)
  done;
  g

(* Nearest in-range node per sector of width 2pi/k, the lowest id
   winning distance ties. *)
let yao pathloss positions ~k =
  let n = Array.length positions in
  let width = Geom.Angle.two_pi /. Stdlib.float_of_int k in
  let g = Graphkit.Ugraph.create n in
  for u = 0 to n - 1 do
    let best = Array.make k None in
    for v = 0 to n - 1 do
      if v <> u && in_range pathloss positions u v then begin
        let dist = Geom.Vec2.dist positions.(u) positions.(v) in
        let dir =
          Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(v)
        in
        let s = Stdlib.min (k - 1) (Stdlib.int_of_float (dir /. width)) in
        match best.(s) with
        | Some (d, _) when d <= dist -> ()
        | Some _ | None -> best.(s) <- Some (dist, v)
      end
    done;
    Array.iter
      (function Some (_, v) -> Graphkit.Ugraph.add_edge g u v | None -> ())
      best
  done;
  g

let smecn (energy : Radio.Energy.t) positions =
  let cost u v =
    Radio.Energy.link_cost energy (Geom.Vec2.dist positions.(u) positions.(v))
  in
  filter_gr energy.Radio.Energy.pathloss positions ~keep:(fun u v ->
      unwitnessed positions u v ~witness:(fun w ->
          cost u w +. cost w v < cost u v))

(* ---------- interference coverage ---------- *)

(* [coverage positions ~radius] is (max, total) over the nodes of how
   many other nodes lie inside each node's closed transmission disk:
   Metrics.Interference.coverage's counts, by the all-pairs scan. *)
let coverage positions ~radius =
  let n = Array.length positions in
  let covered = Array.make n 0 in
  for u = 0 to n - 1 do
    if radius.(u) > 0. then
      for v = 0 to n - 1 do
        if v <> u && Geom.Vec2.dist positions.(u) positions.(v) <= radius.(u)
        then covered.(u) <- covered.(u) + 1
      done
  done;
  (Array.fold_left Stdlib.max 0 covered, Array.fold_left ( + ) 0 covered)
