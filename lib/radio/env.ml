(* Per-link propagation environment: the required link power between u
   and v is [p(dist) * 10^(X_uv / 10)] where [X_uv] collects log-normal
   shadowing plus deterministic attenuation terms (obstacle crossings,
   height differences).  [X] is a pure function of the unordered pair
   and the environment — no hidden PRNG state — so discovery stays a
   pure function of (positions, env) and the incremental daemon engine
   remains provably equivalent to a full recompute. *)

type obstacle = {
  center : Geom.Vec2.t;
  radius : float;
  loss_db : float;
}

type t = {
  pathloss : Pathloss.t;
  sigma_db : float;
  shadow_seed : int;
  clamp_db : float;
  obstacles : obstacle array;
  heights : float array;
  height_loss_db : float;
  (* hoisted for the hot membership test: the largest env link power an
     edge of G_R^env may have *)
  max_link_cap : float;
  (* [X_uv = 0] for every pair: the link functions skip the excess and
     its [10 ** 0.] gain, which is exactly [1.], so the shortcut is
     bit-identical to the general spelling *)
  trivial : bool;
  (* local-to-original id translation installed by [relabel]; [||] is
     the identity.  Shadowing and heights are keyed by node id, so a
     caller running discovery over a renumbered subset (e.g. the
     survivors of a lifetime run) must translate ids or every epoch
     would redraw the fading of the same physical link. *)
  labels : int array;
}

let obstacle ~center ~radius ~loss_db =
  if not (Float.is_finite radius) || radius <= 0. then
    invalid_arg "Env.obstacle: non-positive radius";
  if not (Float.is_finite loss_db) || loss_db < 0. then
    invalid_arg "Env.obstacle: negative loss";
  { center; radius; loss_db }

let make ?(sigma_db = 0.) ?(shadow_seed = 0) ?clamp_db ?(obstacles = [||])
    ?(heights = [||]) ?(height_loss_db = 0.) pathloss =
  if not (Float.is_finite sigma_db) || sigma_db < 0. then
    invalid_arg "Env.make: negative sigma";
  let clamp_db = match clamp_db with Some c -> c | None -> 3. *. sigma_db in
  if not (Float.is_finite clamp_db) || clamp_db < 0. then
    invalid_arg "Env.make: negative clamp";
  if not (Float.is_finite height_loss_db) || height_loss_db < 0. then
    invalid_arg "Env.make: negative height loss";
  Array.iter
    (fun o ->
      if not (Float.is_finite o.radius) || o.radius <= 0. then
        invalid_arg "Env.make: obstacle with non-positive radius";
      if not (Float.is_finite o.loss_db) || o.loss_db < 0. then
        invalid_arg "Env.make: obstacle with negative loss")
    obstacles;
  Array.iter
    (fun h ->
      if not (Float.is_finite h) then invalid_arg "Env.make: non-finite height")
    heights;
  {
    pathloss;
    sigma_db;
    shadow_seed;
    clamp_db;
    obstacles;
    heights;
    height_loss_db;
    max_link_cap = Pathloss.reach_cap ~power:(Pathloss.max_power pathloss);
    trivial =
      sigma_db = 0.
      && Array.length obstacles = 0
      && (height_loss_db = 0. || Array.length heights = 0);
    labels = [||];
  }

let trivial pathloss = make pathloss

let node_id t i =
  if Array.length t.labels = 0 then i
  else if i < 0 || i >= Array.length t.labels then
    invalid_arg "Env.relabel: node id outside the label table"
  else t.labels.(i)

let relabel ~labels t =
  Array.iter
    (fun l -> if l < 0 then invalid_arg "Env.relabel: negative label") labels;
  (* compose with any translation already installed, so relabeling a
     relabeled env still resolves to original ids *)
  { t with labels = Array.map (fun l -> node_id t l) labels }

let is_trivial t = t.trivial

let resolve ?env pathloss =
  match env with
  | None -> trivial pathloss
  | Some t ->
      if t.pathloss <> pathloss then
        invalid_arg "Env.resolve: environment built over another pathloss";
      t

let pathloss t = t.pathloss
let sigma_db t = t.sigma_db
let clamp_db t = t.clamp_db
let shadow_seed t = t.shadow_seed
let max_link_cap t = t.max_link_cap

(* Shadowing: a splitmix64-style hash of (seed, min u v, max u v) feeds
   a Box-Muller draw, mirroring Prng's [mix] / [unit_float] / [gaussian]
   spellings exactly.  Symmetric by construction (the pair is sorted)
   and deterministic per (seed, pair); the clamp to +/- clamp_db keeps
   the probe radius finite. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let unit_of bits =
  Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1p-53

let shadow_db t ~u ~v =
  if t.sigma_db <= 0. then 0.
  else begin
    let u = node_id t u and v = node_id t v in
    let lo, hi = if u <= v then (u, v) else (v, u) in
    let open Int64 in
    let z = mix (of_int t.shadow_seed) in
    let z = mix (add z (mul golden_gamma (of_int (lo + 1)))) in
    let b1 = mix (add z (mul golden_gamma (of_int (hi + 1)))) in
    let b2 = mix (add b1 golden_gamma) in
    let u1 = Float.max 1e-300 (unit_of b1) in
    let u2 = unit_of b2 in
    let r = sqrt (-2. *. log u1) in
    let x = t.sigma_db *. r *. cos (2. *. Float.pi *. u2) in
    Float.max (-.t.clamp_db) (Float.min t.clamp_db x)
  end

(* Squared distance from [c] to the segment [a, b]. *)
let seg_dist2 c a b =
  let open Geom.Vec2 in
  let dx = b.x -. a.x and dy = b.y -. a.y in
  let l2 = (dx *. dx) +. (dy *. dy) in
  if l2 <= 0. then dist2 c a
  else begin
    let s = (((c.x -. a.x) *. dx) +. ((c.y -. a.y) *. dy)) /. l2 in
    let s = Float.max 0. (Float.min 1. s) in
    let px = a.x +. (s *. dx) and py = a.y +. (s *. dy) in
    let ex = c.x -. px and ey = c.y -. py in
    (ex *. ex) +. (ey *. ey)
  end

let obstacle_db t ~pu ~pv =
  let acc = ref 0. in
  for i = 0 to Array.length t.obstacles - 1 do
    let o = t.obstacles.(i) in
    if seg_dist2 o.center pu pv <= o.radius *. o.radius then
      acc := !acc +. o.loss_db
  done;
  !acc

let height_db t ~u ~v =
  if t.height_loss_db = 0. || Array.length t.heights = 0 then 0.
  else begin
    (* total in the node id: ids beyond the heights array (e.g. probe
       nodes a caller appended after building the env) sit at height 0 *)
    let len = Array.length t.heights in
    let h i = if i < len then t.heights.(i) else 0. in
    t.height_loss_db *. Float.abs (h (node_id t u) -. h (node_id t v))
  end

let excess_db t ~u ~v ~pu ~pv =
  let x = shadow_db t ~u ~v in
  let x =
    if Array.length t.obstacles = 0 then x
    else begin
      (* canonicalize the segment direction by node id (the original id
         under a [relabel]): seg_dist2 is only symmetric up to rounding,
         and gain must be float-exactly symmetric in (u, v) for both
         discovery directions to agree *)
      let pa, pb =
        if node_id t u <= node_id t v then (pu, pv) else (pv, pu)
      in
      x +. obstacle_db t ~pu:pa ~pv:pb
    end
  in
  x +. height_db t ~u ~v

let link_power t ~u ~v ~pu ~pv ~dist =
  let p = Pathloss.power_for_distance t.pathloss dist in
  if t.trivial then p else p *. (10. ** (excess_db t ~u ~v ~pu ~pv /. 10.))

let reaches t ~power ~u ~v ~pu ~pv ~dist =
  link_power t ~u ~v ~pu ~pv ~dist <= Pathloss.reach_cap ~power

let in_range t ~u ~v ~pu ~pv ~dist =
  link_power t ~u ~v ~pu ~pv ~dist <= t.max_link_cap

let rx_power t ~tx_power ~u ~v ~pu ~pv ~dist =
  let rx = Pathloss.rx_power t.pathloss ~tx_power ~dist in
  if t.trivial then rx else rx /. (10. ** (excess_db t ~u ~v ~pu ~pv /. 10.))

(* Shadowing can lower the required link power by at most clamp_db (all
   the other terms only add loss), so every pair [reaches] accepts at
   [power] sits within this radius — the sigma-aware inflation the grid
   prefilters probe.  Without shadowing nothing lowers it: the factor
   is exactly [1.], so the probe radius is the pathloss reach bit for
   bit whatever [clamp_db] says. *)
let headroom t = if t.sigma_db = 0. then 1. else 10. ** (t.clamp_db /. 10.)

let probe_radius t ~power =
  Pathloss.distance_for_power t.pathloss
    (Pathloss.reach_cap ~power *. headroom t)

let max_reach t = probe_radius t ~power:(Pathloss.max_power t.pathloss)

let pp ppf t =
  Fmt.pf ppf "env(%a, sigma=%gdB, clamp=%gdB, seed=%d, obstacles=%d%s)"
    Pathloss.pp t.pathloss t.sigma_db t.clamp_db t.shadow_seed
    (Array.length t.obstacles)
    (if t.height_loss_db > 0. && Array.length t.heights > 0 then ", 3d"
     else "")
