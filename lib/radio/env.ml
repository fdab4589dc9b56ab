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

(* The link kernel's float parameters.  An all-float record is stored
   flat, so its fields read as unboxed floats; a float field of the
   mixed record [t] is a pointer to a boxed float, and a [Float.min] /
   [Float.max] that may return such a pointer boxes its other operand. *)
type params = {
  sigma_db : float;
  clamp_db : float;
  (* the pathloss's [p(d) = coeff * d^exponent], hoisted: reading
     [Pathloss.coeff] across the module boundary boxes its result *)
  coeff : float;
  exponent : float;
  (* the largest env link power an edge of G_R^env may have *)
  max_link_cap : float;
}

type t = {
  pathloss : Pathloss.t;
  params : params;
  shadow_seed : int;
  obstacles : obstacle array;
  heights : float array;
  height_loss_db : float;
  (* [mix (Int64.of_int shadow_seed)]: the pair hash's first round,
     which depends on the seed alone *)
  seed_key : int64;
  (* [link_into]'s fast reject, per pair of bins of the two Box-Muller
     uniforms (see [reject_table]); [||] without shadowing *)
  reject_d2 : float array;
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

type lane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let lane_create n : lane =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let obstacle ~center ~radius ~loss_db =
  if not (Float.is_finite radius) || radius <= 0. then
    invalid_arg "Env.obstacle: non-positive radius";
  if not (Float.is_finite loss_db) || loss_db < 0. then
    invalid_arg "Env.obstacle: negative loss";
  { center; radius; loss_db }

(* Shadowing: a splitmix64-style hash of (seed, min u v, max u v) feeds
   a Box-Muller draw, mirroring Prng's [mix] / [unit_float] / [gaussian]
   spellings exactly.  Symmetric by construction (the pair is sorted)
   and deterministic per (seed, pair); the clamp to +/- clamp_db keeps
   the probe radius finite.  The helpers are [@inline] so the Int64
   arithmetic stays unboxed inside [link_into]: out of line, every
   Int64 and float crossing a call is a heap block. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] unit_of bits =
  Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1p-53

(* Fast rejection (docs/RADIO.md).  A pair's shadowing draw is
   [x = sigma * r * cos (2 pi u2)] with [r = sqrt (-2 ln u1)], clamped
   to [+/- clamp], where [u1 = unit_of b1] and [u2 = unit_of b2] read
   the pair's two draw words.  The top [u1_bits] bits of [b1] are the
   bin [k] with [u1] in [k/K, (k+1)/K), and the top [u2_bits] bits of
   [b2] the bin [j] with [u2] in [j/J, (j+1)/J).  Over bin [j],
   [cos (2 pi u2)] is monotone (each bin lies on one side of 1/2, a bin
   edge), so it is at least [c_j], the smaller of its values at the two
   edges.  Over bin [k], [r] lies in [[r_(k+1), r_k]] with
   [r_k = sqrt (-2 ln (k/K))] ([r_0] unbounded, [r_K = 0]).  So
   [x >= x_kj], the clamped [sigma * r * c_j] at [r_(k+1)] when
   [c_j >= 0] and at [r_k] otherwise.  Obstacle and height losses are
   [>= 0], so [p_env >= coeff * d^n * 10^(x_kj/10)], and a pair whose
   squared distance exceeds [((cap / coeff) * 10^(-x_kj/10))^(2/n)] has
   a link power above [cap].  The 1e-6 relative margin dwarfs the libm
   and rounding error of both sides (~1e-15), so a rejected pair always
   fails the exact test too: the reject only skips work. *)
let u1_bits = 7
let u2_bits = 7

let[@inline] reject_index b1 b2 =
  (Int64.to_int (Int64.shift_right_logical b1 (64 - u1_bits)) lsl u2_bits)
  lor Int64.to_int (Int64.shift_right_logical b2 (64 - u2_bits))

let reject_table ~sigma_db ~clamp_db ~coeff ~exponent ~cap =
  if sigma_db = 0. then [||]
  else begin
    let kbins = 1 lsl u1_bits and jbins = 1 lsl u2_bits in
    let r_at k =
      if k = 0 then infinity
      else sqrt (-2. *. log (float_of_int k /. float_of_int kbins))
    in
    let cos_at j =
      cos (2. *. Float.pi *. (float_of_int j /. float_of_int jbins))
    in
    let c = Array.init jbins (fun j -> Float.min (cos_at j) (cos_at (j + 1))) in
    let r = Array.init (kbins + 1) r_at in
    (* the distance bound [(cap / coeff)^(1/n)] at [x = 0], squared, and
       the rate at which [-x] dB widens it: [d2 = base * e^(-x * g)] *)
    let base = (cap /. coeff) ** (2. /. exponent) in
    let g = log 10. /. (5. *. exponent) in
    Array.init (kbins * jbins) (fun i ->
        let k = i lsr u2_bits and j = i land (jbins - 1) in
        let c_j = c.(j) in
        let x = sigma_db *. (if c_j >= 0. then r.(k + 1) else r.(k)) *. c_j in
        let x = Float.max (-.clamp_db) (Float.min clamp_db x) in
        base *. exp (-.x *. g) *. (1. +. 1e-6))
  end

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
  let coeff = Pathloss.coeff pathloss
  and exponent = Pathloss.exponent pathloss in
  let max_link_cap = Pathloss.reach_cap ~power:(Pathloss.max_power pathloss) in
  {
    pathloss;
    params = { sigma_db; clamp_db; coeff; exponent; max_link_cap };
    shadow_seed;
    obstacles;
    heights;
    height_loss_db;
    seed_key = mix (Int64.of_int shadow_seed);
    reject_d2 =
      reject_table ~sigma_db ~clamp_db ~coeff ~exponent ~cap:max_link_cap;
    trivial =
      sigma_db = 0.
      && Array.length obstacles = 0
      && (height_loss_db = 0. || Array.length heights = 0);
    labels = [||];
  }

let trivial pathloss = make pathloss

let[@inline] node_id t i =
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
let sigma_db t = t.params.sigma_db
let clamp_db t = t.params.clamp_db
let shadow_seed t = t.shadow_seed
let max_link_cap t = t.params.max_link_cap

(* The first draw word of the pair: the one place the hash is spelled.
   [second_word] derives the other; [shadow_of_bits] turns the two into
   the clamped draw, and [link_into] also reads their reject bins. *)
let[@inline] pair_bits t ~u ~v =
  let u = node_id t u and v = node_id t v in
  let lo = if u <= v then u else v and hi = if u <= v then v else u in
  let open Int64 in
  let z = mix (add t.seed_key (mul golden_gamma (of_int (lo + 1)))) in
  mix (add z (mul golden_gamma (of_int (hi + 1))))

let[@inline] second_word b1 = mix (Int64.add b1 golden_gamma)

let[@inline] shadow_of_bits t b1 b2 =
  let u1 = Float.max 1e-300 (unit_of b1) in
  let u2 = unit_of b2 in
  let r = sqrt (-2. *. log u1) in
  let x = t.params.sigma_db *. r *. cos (2. *. Float.pi *. u2) in
  Float.max (-.t.params.clamp_db) (Float.min t.params.clamp_db x)

let[@inline] shadow_db t ~u ~v =
  if t.params.sigma_db <= 0. then 0.
  else begin
    let b1 = pair_bits t ~u ~v in
    shadow_of_bits t b1 (second_word b1)
  end

(* Squared distance from [c] to the segment [a, b].  Inlined into the
   link path with [obstacle_db], so the degenerate case spells out
   [Vec2.dist2 c a] rather than call it (a boxed float per call). *)
let[@inline] seg_dist2 c a b =
  let open Geom.Vec2 in
  let dx = b.x -. a.x and dy = b.y -. a.y in
  let l2 = (dx *. dx) +. (dy *. dy) in
  if l2 <= 0. then begin
    let ex = a.x -. c.x and ey = a.y -. c.y in
    (ex *. ex) +. (ey *. ey)
  end
  else begin
    let s = (((c.x -. a.x) *. dx) +. ((c.y -. a.y) *. dy)) /. l2 in
    let s = Float.max 0. (Float.min 1. s) in
    let px = a.x +. (s *. dx) and py = a.y +. (s *. dy) in
    let ex = c.x -. px and ey = c.y -. py in
    (ex *. ex) +. (ey *. ey)
  end

let[@inline] obstacle_db t ~pu ~pv =
  let acc = ref 0. in
  for i = 0 to Array.length t.obstacles - 1 do
    let o = t.obstacles.(i) in
    if seg_dist2 o.center pu pv <= o.radius *. o.radius then
      acc := !acc +. o.loss_db
  done;
  !acc

(* total in the node id: ids beyond the heights array (e.g. probe nodes
   a caller appended after building the env) sit at height 0 *)
let[@inline] height_of t i =
  if i < Array.length t.heights then t.heights.(i) else 0.

let[@inline] height_db t ~u ~v =
  if t.height_loss_db = 0. || Array.length t.heights = 0 then 0.
  else
    t.height_loss_db
    *. Float.abs (height_of t (node_id t u) -. height_of t (node_id t v))

(* [X_uv] from its shadowing term [x]: the one spelling of the sum *)
let[@inline] excess_of t ~u ~v ~pu ~pv x =
  let x =
    if Array.length t.obstacles = 0 then x
    else if
      (* canonicalize the segment direction by node id (the original id
         under a [relabel]): seg_dist2 is only symmetric up to rounding,
         and gain must be float-exactly symmetric in (u, v) for both
         discovery directions to agree *)
      node_id t u <= node_id t v
    then x +. obstacle_db t ~pu ~pv
    else x +. obstacle_db t ~pu:pv ~pv:pu
  in
  x +. height_db t ~u ~v

let excess_db t ~u ~v ~pu ~pv = excess_of t ~u ~v ~pu ~pv (shadow_db t ~u ~v)

(* [p_env] from the pair's shadowing term: the one spelling of the
   link power ([Pathloss.power_for_distance] with its fields hoisted,
   times the gain) *)
let[@inline] link_of t ~u ~v ~pu ~pv ~dist x =
  let p = t.params.coeff *. (dist ** t.params.exponent) in
  if t.trivial then p else p *. (10. ** (excess_of t ~u ~v ~pu ~pv x /. 10.))

let link_power t ~u ~v ~pu ~pv ~dist =
  if dist < 0. then invalid_arg "Env.link_power: negative distance";
  link_of t ~u ~v ~pu ~pv ~dist (shadow_db t ~u ~v)

let reaches t ~power ~u ~v ~pu ~pv ~dist =
  link_power t ~u ~v ~pu ~pv ~dist <= Pathloss.reach_cap ~power

let in_range t ~u ~v ~pu ~pv ~dist =
  link_power t ~u ~v ~pu ~pv ~dist <= t.params.max_link_cap

let[@inline] store t (lane : lane) i link =
  link <= t.params.max_link_cap
  && begin
       Bigarray.Array1.unsafe_set lane i link;
       true
     end

(* The fast reject's verdict on a pair at squared distance [d2] with
   draw words [b1], [b2]: [false] proves [p_env > cap]. *)
let[@inline] passes t b1 b2 d2 =
  d2 <= Array.unsafe_get t.reject_d2 (reject_index b1 b2)

let link_into t ~u ~v ~pu ~pv lane i =
  let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
  and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
  let d2 = (dx *. dx) +. (dy *. dy) in
  if t.params.sigma_db <= 0. then
    store t lane i (link_of t ~u ~v ~pu ~pv ~dist:(sqrt d2) 0.)
  else begin
    let b1 = pair_bits t ~u ~v in
    let b2 = second_word b1 in
    passes t b1 b2 d2
    && store t lane i
         (link_of t ~u ~v ~pu ~pv ~dist:(sqrt d2) (shadow_of_bits t b1 b2))
  end

let reject_passes t ~u ~v ~pu ~pv =
  t.params.sigma_db <= 0.
  || begin
       let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
       and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
       let b1 = pair_bits t ~u ~v in
       passes t b1 (second_word b1) ((dx *. dx) +. (dy *. dy))
     end

let rx_power t ~tx_power ~u ~v ~pu ~pv ~dist =
  let rx = Pathloss.rx_power t.pathloss ~tx_power ~dist in
  if t.trivial then rx else rx /. (10. ** (excess_db t ~u ~v ~pu ~pv /. 10.))

(* Shadowing can lower the required link power by at most clamp_db (all
   the other terms only add loss), so every pair [reaches] accepts at
   [power] sits within this radius — the sigma-aware inflation the grid
   prefilters probe.  Without shadowing nothing lowers it: the factor
   is exactly [1.], so the probe radius is the pathloss reach bit for
   bit whatever [clamp_db] says. *)
let headroom t =
  if t.params.sigma_db = 0. then 1. else 10. ** (t.params.clamp_db /. 10.)

let probe_radius t ~power =
  Pathloss.distance_for_power t.pathloss
    (Pathloss.reach_cap ~power *. headroom t)

let max_reach t = probe_radius t ~power:(Pathloss.max_power t.pathloss)
