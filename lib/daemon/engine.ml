(* Incrementally maintained CBTC state.

   Per-node discovery is a pure function of the live positions within
   radio range of the node, so an event can only change the cones of
   nodes within range R of a position it touches.  [apply] marks exactly
   those nodes dirty (grid probe + exact in-range predicate — a provable
   superset of the affected set, symmetric in the two endpoints) and
   [commit] regrows them; the equivalence of this incremental
   maintenance with a from-scratch recompute is the daemon's central
   invariant, checked by [check_full_equivalence] and swept across
   seeded schedules in [Check.Daemon_sweep.sweep].

   The engine is built for sustained streams over n = 10⁵–10⁶ nodes:

   - Regrowth runs through the flat SoA kernel ([Cbtc.Geo.grow_into])
     with a reusable scratch per worker — no Neighbor.t lists, no
     per-step list rebuilding.
   - Cone state is flat: powers in a float64 Bigarray, each node's
     neighbors as one int row plus one float row of (link, dir, tag)
     triples.  Positions stay in the kernel's [Vec2.t array] layout —
     one authoritative copy shared with the spatial index and the
     kernel, no mirror to keep in sync.
   - Commits are sharded spatially: the dirty set is sorted by grid
     cell, so each pool chunk regrows a compact region (its grid probes
     hit the cells its siblings just warmed).  Every node writes only
     its own slots and the shard layout depends only on the dirty set,
     never on the pool size, so results are bit-identical at every -j.

   The engine owns a [Geom.Grid] kept current by [Geom.Grid.move] (an
   in-place CSR cell edit); the full-equivalence check rebuilds a fresh
   grid, so it also cross-checks the index's mobility path. *)

type stats = {
  mutable events : int;
  mutable moves : int;
  mutable leaves : int;
  mutable joins : int;
  mutable commits : int;  (* commit calls with at least one dirty node *)
  mutable regrown : int;  (* nodes regrown, incremental + full *)
  mutable full_recomputes : int;  (* watchdog trips *)
}

type fbuf = Radio.Env.lane

let fget : fbuf -> int -> float = Bigarray.Array1.unsafe_get
let fset : fbuf -> int -> float -> unit = Bigarray.Array1.unsafe_set

(* Regrowing a dirty node costs the same per-node work as the full pass
   spends on that node — identical kernel, identical grid; the only
   incremental-path extras are the dirty-set sort and bookkeeping,
   which are negligible against the kernel (measured on the n=10k
   benchmark stream: wall time per regrown node agrees within a few
   percent between storm epochs, ~100% dirty, and full recomputes).
   A full recompute is therefore never cheaper than k < live regrowths;
   at k = live the two are the same target set, and the full pass
   additionally squashes any drift.  Hence 1.0: the watchdog trips
   exactly when the entire live population is dirty and the "fallback"
   is free. *)
let default_watchdog_frac = 1.0

type t = {
  config : Cbtc.Config.t;
  pathloss : Radio.Pathloss.t;
  (* propagation environment, resolved once at [create] (the trivial
     one without [?env], bit-identical to the pure pathloss model) *)
  env : Radio.Env.t;
  schedule : Cbtc.Geo.schedule;
  positions : Geom.Vec2.t array;
  alive : bool array;
  (* per-node cone rows: ids.(u) sorted by (link power, id), and
     data.(u).(3r .. 3r+2) = that neighbor's (link power, dir, tag) *)
  nbr_ids : int array array;
  nbr_data : float array array;
  power : fbuf;
  boundary : bool array;
  grid : Geom.Grid.t;
  reach : float;  (* conservative probe radius for range R *)
  reach_cap : float;  (* candidate admission cap at max power *)
  final_step : float;  (* stepped schedules' drain step; inf for Exact *)
  watchdog_frac : float;
  scratch : Cbtc.Geo.scratch;  (* serial-path scratch, reused *)
  lane : fbuf;  (* [mark_around]'s one-slot link-power lane *)
  dirty : bool array;
  mutable dirty_list : int list;
  mutable live : int;
  stats : stats;
}

let nb_nodes t = Array.length t.positions

let live t = t.live

let stats t = t.stats

let alive t u = t.alive.(u)

let position t u = t.positions.(u)

let power t u = fget t.power u

let grid_health t = Geom.Grid.health t.grid

(* Regrow [u] through the scratch kernel and copy the discovered rows
   out.  Writes only u's slots, so concurrent calls on distinct nodes
   (the sharded commit) are race-free and order-independent. *)
let grow_node t s u =
  let alive_fn v = t.alive.(v) in
  let k, p, b =
    Cbtc.Geo.grow_into ~grid:t.grid ~alive:alive_fn ~env:t.env
      ~schedule:t.schedule s t.config t.pathloss t.positions u
  in
  let ids = Array.make k 0 in
  let data = if k = 0 then [||] else Array.make (3 * k) 0. in
  for r = 0 to k - 1 do
    ids.(r) <- Cbtc.Geo.row_id s r;
    data.(3 * r) <- Cbtc.Geo.row_link s r;
    data.((3 * r) + 1) <- Cbtc.Geo.row_dir s r;
    data.((3 * r) + 2) <- Cbtc.Geo.row_tag s r
  done;
  t.nbr_ids.(u) <- ids;
  t.nbr_data.(u) <- data;
  fset t.power u p;
  t.boundary.(u) <- b

(* Sort target nodes by grid cell (row-major), ties by id: each
   contiguous chunk of the sorted array is a compact spatial shard.
   The order is a pure function of positions and the target set.  The
   cell keys are computed once per target into int arrays, and the
   targets sorted through a permutation of their indices, so a
   comparison allocates nothing. *)
let spatial_sort ~cell positions targets =
  let k = Array.length targets in
  let kx = Array.make k 0 and ky = Array.make k 0 in
  Array.iteri
    (fun i u ->
      let p : Geom.Vec2.t = positions.(u) in
      kx.(i) <- int_of_float (Float.floor (p.x /. cell));
      ky.(i) <- int_of_float (Float.floor (p.y /. cell)))
    targets;
  let perm = Array.init k Fun.id in
  Array.sort
    (fun i j ->
      if kx.(i) <> kx.(j) then Int.compare kx.(i) kx.(j)
      else if ky.(i) <> ky.(j) then Int.compare ky.(i) ky.(j)
      else Int.compare targets.(i) targets.(j))
    perm;
  let sorted = Array.map (fun i -> targets.(i)) perm in
  Array.blit sorted 0 targets 0 k

let regrow ?pool t targets =
  let ntargets = Array.length targets in
  (match pool with
  | None ->
      for i = 0 to ntargets - 1 do
        grow_node t t.scratch targets.(i)
      done
  | Some pool ->
      spatial_sort ~cell:(Geom.Grid.cell_size t.grid) t.positions targets;
      (* disjoint slot writes: bit-identical for every pool size *)
      Parallel.Pool.iter_chunks pool ntargets (fun lo hi ->
          let s = Cbtc.Geo.scratch_create () in
          for i = lo to hi - 1 do
            grow_node t s targets.(i)
          done));
  t.stats.regrown <- t.stats.regrown + ntargets

let live_targets t =
  let acc = ref [] in
  for u = nb_nodes t - 1 downto 0 do
    if t.alive.(u) then acc := u :: !acc
  done;
  Array.of_list !acc

let create ?pool ?alive ?env ~watchdog_frac config pathloss positions =
  if not (watchdog_frac >= 0.) then
    invalid_arg "Daemon.Engine.create: watchdog_frac must be >= 0";
  let env = Radio.Env.resolve ?env pathloss in
  let n = Array.length positions in
  let alive =
    match alive with
    | None -> Array.make n true
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Daemon.Engine.create: alive/positions length mismatch";
        Array.copy a
  in
  let power =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  in
  Bigarray.Array1.fill power 0.;
  let t =
    {
      config;
      pathloss;
      env;
      schedule = Cbtc.Geo.schedule_of config pathloss;
      positions = Array.copy positions;
      alive;
      nbr_ids = Array.make n [||];
      nbr_data = Array.make n [||];
      power;
      boundary = Array.make n false;
      grid = Geom.Grid.create ~range:(Radio.Pathloss.max_range pathloss) positions;
      (* the env's probe radius bounds the support of G_R^env *)
      reach = Radio.Env.max_reach env;
      reach_cap = Radio.Env.max_link_cap env;
      final_step = Cbtc.Geo.schedule_final (Cbtc.Geo.schedule_of config pathloss);
      watchdog_frac;
      scratch = Cbtc.Geo.scratch_create ();
      lane = Radio.Env.lane_create 1;
      dirty = Array.make n false;
      dirty_list = [];
      live = Array.fold_left (fun k b -> if b then k + 1 else k) 0 alive;
      stats =
        {
          events = 0;
          moves = 0;
          leaves = 0;
          joins = 0;
          commits = 0;
          regrown = 0;
          full_recomputes = 0;
        };
    }
  in
  regrow ?pool t (live_targets t);
  t

let mark t u =
  if t.alive.(u) && not t.dirty.(u) then begin
    t.dirty.(u) <- true;
    t.dirty_list <- u :: t.dirty_list
  end

(* Mark every live node whose cone a change at [p] can affect.  The
   grid probe over-approximates with the max-power R-ball; the exact
   cut below is what makes dense streams incremental.

   A clean node [v]'s tracked state equals its converged state over the
   current intermediate world (inductively: every event so far left it
   unchanged).  The power walk absorbs a candidate iff its link power
   is <= v's stopping power [p_v], and schedule steps above [p_v] are
   never examined, so a candidate appearing at / disappearing from /
   changing link power at [link > p_v] on both sides of an event
   changes nothing about v's walk — v stays clean.  Therefore marking
   [link <= p_v] nodes covers every node the event can affect.  Two
   classes absorb beyond their stopping power and fall back to the
   candidate-admission cap (the full R-ball): boundary nodes (they
   drain every candidate at max power) and nodes converged exactly at a
   stepped schedule's final step (its drain may absorb links above the
   step value, see [Geo.schedule_final]).

   [u] is the disturbed node and [p] the position of its disturbance
   (old or new).  The link goes through the kernel's own entry,
   [Radio.Env.link_into] (as in [Geo.grow_into]; its excess is symmetric
   in the pair), so the cut is exact, not tolerance-based: marked =
   possibly affected, unmarked = provably identical — the equivalence
   sweeps check this float-exactly.  A pair [link_into] rejects has
   [link > reach_cap >= cut] and stays unmarked; an admitted one leaves
   its link power in [t.lane] for the cut.

   Already-dirty nodes skip the test (their tracked power may be stale,
   but the dirty set is monotone within an epoch, so the induction
   above only ever consults clean nodes' powers). *)
let mark_around t u p =
  let px = p.Geom.Vec2.x and py = p.Geom.Vec2.y in
  (* [Geo.grow_into]'s guard: past [t.reach] (plus the grid's probe slack)
     the link power exceeds [t.reach_cap] >= every cut, so the corners
     of the probed cells skip the link power *)
  let pre = (t.reach *. (1. +. 1e-9)) +. 1e-9 in
  let pre2 = pre *. pre in
  Geom.Grid.iter_in_range t.grid p ~dist:t.reach (fun v ->
      if t.alive.(v) && not t.dirty.(v) then begin
        let pv = t.positions.(v) in
        let dx = px -. pv.Geom.Vec2.x and dy = py -. pv.Geom.Vec2.y in
        let d2 = (dx *. dx) +. (dy *. dy) in
        if d2 <= pre2 && Radio.Env.link_into t.env ~u ~v ~pu:p ~pv t.lane 0
        then begin
          let pw = fget t.power v in
          let cut =
            if t.boundary.(v) || pw >= t.final_step then t.reach_cap else pw
          in
          if fget t.lane 0 <= cut then mark t v
        end
      end)

let clear_node t u =
  t.nbr_ids.(u) <- [||];
  t.nbr_data.(u) <- [||];
  fset t.power u 0.;
  t.boundary.(u) <- false

let set_position t u p =
  t.positions.(u) <- p;
  Geom.Grid.move t.grid u p

let apply t (e : Event.t) =
  let u = e.node in
  if u < 0 || u >= nb_nodes t then
    invalid_arg "Daemon.Engine.apply: node out of range";
  t.stats.events <- t.stats.events + 1;
  match e.kind with
  | Event.Move p ->
      t.stats.moves <- t.stats.moves + 1;
      if t.alive.(u) then begin
        mark_around t u t.positions.(u);
        set_position t u p;
        mark_around t u p;
        mark t u
      end
      else
        (* dead nodes are tracked silently: nobody's cone sees them,
           but a later recovery must join at the right place *)
        set_position t u p
  | Event.Leave ->
      t.stats.leaves <- t.stats.leaves + 1;
      if t.alive.(u) then begin
        t.alive.(u) <- false;
        t.live <- t.live - 1;
        clear_node t u;
        mark_around t u t.positions.(u)
      end
  | Event.Join p ->
      t.stats.joins <- t.stats.joins + 1;
      if t.alive.(u) then begin
        (* duplicate join = a move *)
        mark_around t u t.positions.(u);
        set_position t u p;
        mark_around t u p;
        mark t u
      end
      else begin
        set_position t u p;
        t.alive.(u) <- true;
        t.live <- t.live + 1;
        mark_around t u p;
        mark t u
      end

let commit ?pool t =
  let ds = List.sort_uniq Int.compare t.dirty_list in
  List.iter (fun u -> t.dirty.(u) <- false) ds;
  t.dirty_list <- [];
  let ds = List.filter (fun u -> t.alive.(u)) ds in
  let k = List.length ds in
  if k = 0 then `Clean
  else begin
    t.stats.commits <- t.stats.commits + 1;
    let threshold =
      int_of_float (Float.ceil (t.watchdog_frac *. float_of_int t.live))
    in
    if t.live > 0 && k >= Stdlib.max 1 threshold then begin
      (* watchdog: the dirty set covers (nearly) the whole live
         population — recompute it in one shot and squash any drift *)
      t.stats.full_recomputes <- t.stats.full_recomputes + 1;
      let targets = live_targets t in
      regrow ?pool t targets;
      `Full (Array.length targets)
    end
    else begin
      regrow ?pool t (Array.of_list ds);
      `Incremental k
    end
  end

(* Pack the engine's per-node rows into one discovery's CSR slots; row
   u's triples are (link power, dir, tag). *)
let discovery t =
  let n = nb_nodes t in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length t.nbr_ids.(u)
  done;
  let ids = Array.make off.(n) 0 in
  let dirs = Array.make off.(n) 0. in
  let links = Array.make off.(n) 0. in
  let tags = Array.make off.(n) 0. in
  for u = 0 to n - 1 do
    let row = t.nbr_ids.(u) and data = t.nbr_data.(u) in
    Array.blit row 0 ids off.(u) (Array.length row);
    for r = 0 to Array.length row - 1 do
      links.(off.(u) + r) <- data.(3 * r);
      dirs.(off.(u) + r) <- data.((3 * r) + 1);
      tags.(off.(u) + r) <- data.((3 * r) + 2)
    done
  done;
  {
    Cbtc.Discovery.config = t.config;
    pathloss = t.pathloss;
    positions = Array.copy t.positions;
    off;
    ids;
    dirs;
    links;
    tags;
    power = Array.init n (fun u -> fget t.power u);
    boundary = Array.copy t.boundary;
  }

let topology t = Cbtc.Discovery.closure (discovery t)

(* Components of the symmetric closure straight from the flat rows:
   uniting u with every v in u's row covers both directions of each
   closure edge, so the closure itself is never built. *)
let partition ~alive t =
  let n = nb_nodes t in
  if Array.length alive <> n then
    invalid_arg "Daemon.Engine.partition: alive mask length mismatch";
  let uf = Graphkit.Unionfind.create n in
  for u = 0 to n - 1 do
    if alive.(u) then
      Array.iter
        (fun v -> if alive.(v) then ignore (Graphkit.Unionfind.union uf u v : bool))
        t.nbr_ids.(u)
  done;
  Graphkit.Unionfind.labels uf

let digest t =
  let b = Buffer.create (64 * nb_nodes t) in
  let f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  for u = 0 to nb_nodes t - 1 do
    Buffer.add_uint8 b (if t.alive.(u) then 1 else 0);
    f t.positions.(u).Geom.Vec2.x;
    f t.positions.(u).Geom.Vec2.y;
    f (fget t.power u);
    Buffer.add_uint8 b (if t.boundary.(u) then 1 else 0);
    let ids = t.nbr_ids.(u) and data = t.nbr_data.(u) in
    for r = 0 to Array.length ids - 1 do
      Buffer.add_int64_le b (Int64.of_int ids.(r));
      f data.(3 * r);
      f data.((3 * r) + 1);
      f data.((3 * r) + 2)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The central invariant: tracked state == from-scratch recompute over
   the tracked world.  The reference pass regrows every live node with
   the kernel ([Cbtc.Geo.grow_into]) against a *fresh* grid, a fresh
   schedule and a fresh scratch, so it cross-checks the incremental
   index and the dirty-propagation cut against a clean build; the
   kernel itself is checked against the list-based spec in the test
   suite.  Float-exact comparison is intentional — both sides run the
   identical per-node float computation on identical inputs. *)
let check_full_equivalence ?pool t =
  let grid = Geom.Grid.create ~range:(Radio.Pathloss.max_range t.pathloss) t.positions in
  let schedule = Cbtc.Geo.schedule_of t.config t.pathloss in
  let alive_fn v = t.alive.(v) in
  let n = nb_nodes t in
  let bad = Array.make n None in
  let check s u =
    if t.alive.(u) then begin
      let k, p, b =
        Cbtc.Geo.grow_into ~grid ~alive:alive_fn ~env:t.env ~schedule s
          t.config t.pathloss t.positions u
      in
      let ids = t.nbr_ids.(u) and data = t.nbr_data.(u) in
      let row_eq r =
        Cbtc.Geo.row_id s r = ids.(r)
        && Cbtc.Geo.row_link s r = data.(3 * r)
        && Cbtc.Geo.row_dir s r = data.((3 * r) + 1)
        && Cbtc.Geo.row_tag s r = data.((3 * r) + 2)
      in
      let rec rows_eq r = r = k || (row_eq r && rows_eq (r + 1)) in
      if p <> fget t.power u then
        bad.(u) <- Some (Printf.sprintf "node %d: power %.17g, full recompute %.17g" u (fget t.power u) p)
      else if b <> t.boundary.(u) then
        bad.(u) <- Some (Printf.sprintf "node %d: boundary %b, full recompute %b" u t.boundary.(u) b)
      else if k <> Array.length ids || not (rows_eq 0) then
        bad.(u) <- Some (Printf.sprintf "node %d: neighbor sets differ" u)
    end
    else if
      t.nbr_ids.(u) <> [||] || fget t.power u <> 0. || t.boundary.(u)
    then bad.(u) <- Some (Printf.sprintf "node %d: dead but has residual state" u)
  in
  let check_range lo hi =
    let s = Cbtc.Geo.scratch_create () in
    for u = lo to hi - 1 do
      check s u
    done
  in
  (match pool with
  | None -> check_range 0 n
  | Some pool -> Parallel.Pool.iter_chunks pool n check_range);
  match Array.find_map (fun x -> x) bad with
  | None -> Ok ()
  | Some m -> Error m
