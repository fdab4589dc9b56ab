let check_node positions u =
  if u < 0 || u >= Array.length positions then
    invalid_arg "Geo.grow_into: node out of range"

(* G_R and its survivor partition have one implementation, shared with
   the max-power baseline. *)
let max_power_graph = Baselines.Proximity.max_power
let max_power_partition = Baselines.Proximity.max_power_partition

(* ------------------------------------------------------------------ *)
(* Struct-of-arrays discovery kernel: the only implementation of the   *)
(* CBTC growth rule in the library.                                     *)
(*                                                                     *)
(* A node's candidates sit in parallel int/float arrays and are heaped *)
(* once by (link power, id) in O(m); the power walk pops them in that  *)
(* order only as far as it goes, and the gap test keeps a sorted-unique *)
(* direction array with a count of its wide gaps, updated on each      *)
(* insertion, instead of re-sorting a list per step.  [run_flat] fills *)
(* the candidates from one pair-once sweep over the nodes in cell      *)
(* order (below); the daemon's [grow_into] probes its mobile grid.     *)
(* Nothing is allocated per node beyond amortized scratch growth.  The *)
(* list-based statement of the same rule (a Neighbor.t list per node,  *)
(* rebuilt at every power step) lives in test/spec_geo.ml as the       *)
(* oracle: the differential properties pin this kernel to it bit for   *)
(* bit — same discovered sets in the same order, same powers, tags and *)
(* boundary flags.                                                     *)
(* ------------------------------------------------------------------ *)

(* Float scratch lives in float64 Bigarrays: flat 8-byte lanes with no
   header in the OCaml heap, accessed through [unsafe_get]/[unsafe_set]
   (capacity is checked once per candidate where candidates are added,
   so the kernel loops skip the per-element bound checks boxed
   [float array] access would re-pay), and invisible to the GC scan. *)
type fbuf = Radio.Env.lane

let fbuf_create = Radio.Env.lane_create

let fget : fbuf -> int -> float = Bigarray.Array1.unsafe_get
let fset : fbuf -> int -> float -> unit = Bigarray.Array1.unsafe_set

let two_pi = 2. *. Float.pi

(* The environment a fresh scratch's probe state names until its first
   [grow_into]: never probed with, only compared by identity. *)
let no_env = Radio.Env.trivial (Radio.Pathloss.make ~max_range:1. ())

type scratch = {
  mutable cap : int;
  mutable cand : int array;  (* candidate ids, arrival order *)
  mutable link : fbuf;  (* link power per candidate *)
  mutable dir : fbuf;  (* normalized direction per candidate *)
  mutable m : int;  (* candidate count: cand.(0 .. m-1) *)
  mutable heap : int array;
      (* candidates not yet absorbed: a min-heap by (link, id) in
         heap.(0 .. hn-1) *)
  mutable hn : int;
  mutable perm : int array;  (* absorbed candidates in (link, id) order *)
  mutable k : int;  (* absorbed count: perm.(0 .. k-1) *)
  mutable tag : fbuf;  (* discovery-step power per sorted rank *)
  mutable sdirs : fbuf;  (* sorted-unique discovered directions *)
  mutable ndirs : int;  (* their count *)
  mutable nwide : int;
      (* consecutive gaps sdirs.(i+1) - sdirs.(i) >= alpha - 1e-9; the
         wrap gap is read when tested *)
  mutable nsteps : int;  (* power steps the last walk used *)
  mutable boundary : bool;  (* the last walk ended gapped at max power *)
  par : fbuf;
      (* 0: the gap threshold alpha - 1e-9; 1: the current step; 2: the
         walk's final power; 3: the grid probe's squared guard radius
         for [p_env] — float state in a lane, so the helpers below take
         and return no boxed float *)
  (* [grow_into]'s grid probe: the node it grows and what [consider]
     reads, set per call, so one closure serves every call *)
  mutable p_u : int;
  mutable p_pu : Geom.Vec2.t;
  mutable p_positions : Geom.Vec2.t array;
  mutable p_alive : (int -> bool) option;
  mutable p_env : Radio.Env.t;  (* the env [p_reach] and par.(3) are for *)
  mutable p_reach : float;
  mutable consider : int -> unit;
}

let scratch_grow s needed =
  let cap = Stdlib.max 16 (Stdlib.max needed (2 * s.cap)) in
  let grow_int a = let b = Array.make cap 0 in Array.blit a 0 b 0 s.cap; b in
  let grow_f (a : fbuf) =
    let b = fbuf_create cap in
    for i = 0 to s.cap - 1 do
      fset b i (fget a i)
    done;
    b
  in
  s.cand <- grow_int s.cand;
  s.link <- grow_f s.link;
  s.dir <- grow_f s.dir;
  s.heap <- grow_int s.heap;
  s.perm <- grow_int s.perm;
  s.tag <- grow_f s.tag;
  s.sdirs <- grow_f s.sdirs;
  s.cap <- cap

(* One grid-probed candidate [v] of [grow_into]'s node.  This is the
   daemon's innermost loop, so without flambda it cannot afford the
   boxed intermediate records of the [Vec2.dist] / [Vec2.direction]
   calls the spec makes, nor a boxed float per candidate.  The link
   test is [Env.link_into]: the spec's [Env.in_range] at
   [dist = sqrt (dx*dx + dy*dy)] (exactly as [Vec2.dist] computes it),
   writing an admitted candidate's link power straight into the
   scratch's link lane, so results stay bit-identical to the spec's
   candidates (pinned by the differential properties in
   test/test_csr.ml and test/test_env.ml).  The guard against par.(3)
   skips the link test for the ~2/3 of probed candidates outside range:
   [Env.max_reach] bounds the support of [in_range] from above (the
   grid probe already relies on that), and the same relative+absolute
   slack as [Grid.probe_slack] absorbs its last-ulp rounding, so the
   guard only ever admits extra candidates for the exact test to
   reject.  It is squared so the reject path (most probed candidates)
   skips the sqrt: an in-range [dist] is within a ~1e-15 relative error
   of [reach], so its square sits far inside the guard's 1e-9 relative
   slack.  Directions are NOT computed here: most candidates are never
   absorbed (growth stops at the first gap-free power), so
   [grow_scratch] computes each direction on absorption via [set_dir]. *)
let consider s v =
  if v <> s.p_u && (match s.p_alive with None -> true | Some a -> a v)
  then begin
    let pu = s.p_pu and pv = s.p_positions.(v) in
    let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
    and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
    if (dx *. dx) +. (dy *. dy) <= fget s.par 3 then begin
      let i = s.m in
      if i >= s.cap then scratch_grow s (i + 1);
      if Radio.Env.link_into s.p_env ~u:s.p_u ~v ~pu ~pv s.link i then begin
        s.cand.(i) <- v;
        s.m <- i + 1
      end
    end
  end

let scratch_create () =
  let s =
    {
      cap = 0;
      cand = [||];
      link = fbuf_create 0;
      dir = fbuf_create 0;
      m = 0;
      heap = [||];
      hn = 0;
      perm = [||];
      k = 0;
      tag = fbuf_create 0;
      sdirs = fbuf_create 0;
      ndirs = 0;
      nwide = 0;
      nsteps = 0;
      boundary = false;
      par = fbuf_create 4;
      p_u = 0;
      p_pu = Geom.Vec2.make 0. 0.;
      p_positions = [||];
      p_alive = None;
      p_env = no_env;
      p_reach = 0.;
      consider = ignore;
    }
  in
  s.consider <- consider s;
  s

(* The probe radius and its squared guard, recomputed only when the
   scratch meets another environment: [max_reach] returns a boxed
   float. *)
let probe_env s env =
  if s.p_env != env then begin
    let reach = Radio.Env.max_reach env in
    let pre = Geom.Grid.padded reach in
    s.p_env <- env;
    s.p_reach <- reach;
    fset s.par 3 (pre *. pre)
  end

(* Is candidate [i] before candidate [j] in (link power, id) order, the
   [Neighbor.compare_by_link_power] order?  Ids are distinct within a
   node's candidates, so the order is total and the heap below pops
   exactly the sorted sequence. *)
let before s i j =
  let li = fget s.link i and lj = fget s.link j in
  li < lj || (li = lj && s.cand.(i) < s.cand.(j))

let rec sift_down s root =
  let h = s.heap in
  let child = (2 * root) + 1 in
  if child < s.hn then begin
    let child =
      if child + 1 < s.hn && before s h.(child + 1) h.(child) then child + 1
      else child
    in
    let i = h.(root) and j = h.(child) in
    if before s j i then begin
      h.(root) <- j;
      h.(child) <- i;
      sift_down s child
    end
  end

(* Heap the [m] candidates in O(m); the walk pops only as many as it
   absorbs instead of sorting all of them. *)
let heap_build s m =
  for i = 0 to m - 1 do
    s.heap.(i) <- i
  done;
  s.hn <- m;
  for i = (m / 2) - 1 downto 0 do
    sift_down s i
  done

let heap_pop s =
  let h = s.heap in
  let top = h.(0) in
  s.hn <- s.hn - 1;
  h.(0) <- h.(s.hn);
  sift_down s 0;
  top

(* [Vec2.direction] then [Angle.normalize] into [dir.(i)], with the
   float operations of both in their order (the [2. *. Float.pi]
   constant is [angle_of]'s own spelling), so the result is
   bit-identical to the spec's [Angle.normalize (Vec2.direction ...)].
   [normalize]'s [Float.rem] is left out: on atan2's [0, 2pi] output it
   is the identity, and 2pi maps to 0 either way. *)
let set_dir s (pu : Geom.Vec2.t) (pv : Geom.Vec2.t) i =
  let dx = pv.x -. pu.x and dy = pv.y -. pu.y in
  let d =
    if dx = 0. && dy = 0. then 0.
    else begin
      let a = Float.atan2 dy dx in
      if a < 0. then a +. (2. *. Float.pi) else a
    end
  in
  fset s.dir i (if d >= two_pi then 0. else d)

(* Empty the direction set; the gap threshold is [Dirset.has_gap]'s,
   alpha less its default 1e-9. *)
let reset_dirs s ~alpha =
  s.ndirs <- 0;
  s.nwide <- 0;
  fset s.par 0 (alpha -. 1e-9)

(* Insert [dir.(i)] into the sorted-unique prefix [sdirs.(0..ndirs-1)]
   (nothing when already present), keeping [nwide]: the gap the new
   direction splits leaves the count, the two it makes join it. *)
let insert_dir s i =
  let d = fget s.dir i and thr = fget s.par 0 in
  let len = s.ndirs in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fget s.sdirs mid < d then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  if not (pos < len && fget s.sdirs pos = d) then begin
    if pos > 0 && pos < len && fget s.sdirs pos -. fget s.sdirs (pos - 1) >= thr
    then s.nwide <- s.nwide - 1;
    if pos > 0 && d -. fget s.sdirs (pos - 1) >= thr then s.nwide <- s.nwide + 1;
    if pos < len && fget s.sdirs pos -. d >= thr then s.nwide <- s.nwide + 1;
    for j = len - 1 downto pos do
      fset s.sdirs (j + 1) (fget s.sdirs j)
    done;
    fset s.sdirs pos d;
    s.ndirs <- len + 1
  end

(* The alpha-gap test of [Dirset.has_gap] over the sorted-unique
   directions: the widest circular gap, consecutive [b -. a] or the
   wrap-around one, is >= alpha - 1e-9.  The widest gap reaches the
   threshold exactly when one gap does, so [nwide] stands for the
   consecutive gaps and only the wrap gap is read here: O(1), and the
   decision of the full rescan bit for bit.  The wrap gap is
   [Dirset.wrap_gap]'s, [Angle.ccw_delta last first] read as [two_pi]
   when it rounds to 0; [first -. last] lies in (-2pi, 0), where
   [normalize]'s [Float.rem] is the identity. *)
let has_gap s =
  let thr = fget s.par 0 and len = s.ndirs in
  if len <= 1 then two_pi >= thr
  else
    s.nwide > 0
    ||
    let x = fget s.sdirs 0 -. fget s.sdirs (len - 1) in
    let r = if x < 0. then x +. two_pi else x in
    let r = if r >= two_pi then 0. else r in
    (if r = 0. then two_pi else r) >= thr

(* Absorb the candidates the step in [par.(1)] reaches (all that are
   left when [drain]), in (link power, id) order, each tagged with the
   step and its direction inserted into the gap count. *)
let absorb s (positions : Geom.Vec2.t array) pu ~drain =
  let step = fget s.par 1 in
  while s.hn > 0 && (drain || fget s.link s.heap.(0) <= step) do
    let i = heap_pop s in
    s.perm.(s.k) <- i;
    fset s.tag s.k step;
    set_dir s pu positions.(s.cand.(i)) i;
    insert_dir s i;
    s.k <- s.k + 1
  done

(* The power walk along the power schedule.  [stepped] is the
   precomputed schedule for Double/Mult growth; [None] means Exact
   growth, whose steps are the distinct candidate link powers in
   increasing order.  Leaves the discovered set in perm.(0..k-1) with
   tags in tag.(0..k-1) and directions filled into dir on absorption,
   the final power in par.(2), the boundary flag and the steps used. *)
let grow_scratch s ~positions ~u ~alpha ~max_power ~stepped m =
  heap_build s m;
  reset_dirs s ~alpha;
  s.k <- 0;
  s.nsteps <- 0;
  s.boundary <- true;
  fset s.par 2 max_power;
  let pu = positions.(u) in
  match stepped with
  | Some steps ->
      let rest = ref steps and stop = ref false in
      while not !stop do
        match !rest with
        | [] -> assert false
        | step :: tl ->
            rest := tl;
            let is_last = match tl with [] -> true | _ :: _ -> false in
            s.nsteps <- s.nsteps + 1;
            fset s.par 1 step;
            (* the last step is >= P up to rounding: absorb everything *)
            absorb s positions pu ~drain:is_last;
            if not (has_gap s) then begin
              fset s.par 2 step;
              s.boundary <- false;
              stop := true
            end
            else if is_last then stop := true
      done
  | None ->
      (* Config.power_steps gives [max_power] for no candidates: one
         step, still gapped, boundary *)
      if m = 0 then s.nsteps <- 1
      else begin
        let stop = ref false in
        while not !stop do
          let step = fget s.link s.heap.(0) in
          s.nsteps <- s.nsteps + 1;
          fset s.par 1 step;
          absorb s positions pu ~drain:false;
          if not (has_gap s) then begin
            fset s.par 2 step;
            s.boundary <- false;
            stop := true
          end
          else if s.hn = 0 then stop := true
        done
      end

let gap_trace ~alpha dirs =
  let s = scratch_create () in
  let n = Array.length dirs in
  if n > 0 then scratch_grow s n;
  reset_dirs s ~alpha;
  Array.mapi
    (fun i d ->
      fset s.dir i d;
      insert_dir s i;
      has_gap s)
    dirs

(* The precomputed part of the power schedule: [None] for Exact growth
   (whose steps are each node's own candidate link powers), [Some steps]
   for the stepped Double/Mult schedules, which ignore link powers and
   so can be shared across every node of a run. *)
type schedule = float list option

let schedule_of config pathloss =
  match config.Config.growth with
  | Config.Exact -> None
  | Config.Double _ | Config.Mult _ ->
      Some (Config.power_steps config ~pathloss ~link_powers:[])

let schedule_final = function
  | None -> Float.infinity
  | Some steps -> List.fold_left (fun _ s -> s) Float.infinity steps

(* One node's discovery: probe + heap + power walk entirely in the
   scratch.  The discovered rows stay resident in the scratch for the
   caller to read through [row_id] & co, so an incremental engine can
   re-grow one node with zero list allocation; the probe itself
   allocates nothing (one [consider] closure per scratch, the probe
   radius cached per environment). *)
let grow_into ?grid ?alive ?env ~schedule s config pathloss positions u =
  check_node positions u;
  probe_env s (Radio.Env.resolve ?env pathloss);
  s.m <- 0;
  s.p_u <- u;
  s.p_pu <- positions.(u);
  s.p_positions <- positions;
  s.p_alive <- alive;
  (match grid with
  | Some grid ->
      Geom.Grid.iter_in_range grid positions.(u) ~dist:s.p_reach s.consider
  | None ->
      for v = 0 to Array.length positions - 1 do
        consider s v
      done);
  grow_scratch s ~positions ~u ~alpha:config.Config.alpha
    ~max_power:(Radio.Pathloss.max_power pathloss)
    ~stepped:schedule s.m;
  (s.k, fget s.par 2, s.boundary)

let row_id s r = s.cand.(s.perm.(r))
let row_link s r = fget s.link s.perm.(r)
let row_dir s r = fget s.dir s.perm.(r)
let row_tag s r = fget s.tag r

(* ------------------------------------------------------------------ *)
(* The pair-once sweep behind [run_flat].                              *)
(*                                                                     *)
(* The nodes are sorted by grid cell (cell side R, the cells of        *)
(* [Geom.Grid]) into slots, column by column, with their coordinates   *)
(* in two float lanes in slot order.  Slot [a] tests only the slots    *)
(* [b > a] its probe square covers: the rest of its own column from    *)
(* [a + 1], then whole row ranges of the columns to its right, each a  *)
(* contiguous slot range.  Every [G_R^env] pair is therefore tested    *)
(* once, by its lower slot, and its result goes to both ends: to the   *)
(* tester's candidates at once, and onto the partner's pending chain,  *)
(* which the partner drains when the sweep reaches it.  The link test  *)
(* is bit-symmetric in (u, v) — the pair hash sorts the ids, the       *)
(* squared distance of negated differences is identical, obstacle      *)
(* segments are canonicalized by id and the height loss is            *)
(* [|h_u - h_v|] — so each end receives the link power its own test   *)
(* would compute, and the power walk orders candidates by (link, id),  *)
(* a total order, so their arrival order does not matter.             *)
(*                                                                     *)
(* A pool splits the columns into bands of about n / jobs slots, one   *)
(* band per job.  A band sweeps its own slots and, before them, a halo *)
(* of the columns to its left whose probe squares reach it, pushing    *)
(* their pairs into its own slots' chains only: a pair that crosses a  *)
(* band boundary is tested by both bands (with the same arguments), so *)
(* the output does not depend on the pool size.                        *)
(* ------------------------------------------------------------------ *)

(* Dense cell windows hold at most this many cells; a placement spread
   wider sweeps coarser cells (side R times a power of two), which
   changes which pairs are tested but not which pass. *)
let max_cells n = Stdlib.max 4096 (8 * n)

type sweep = {
  env : Radio.Env.t;
  positions : Geom.Vec2.t array;
  side : float;  (* cell side: R, unless the window had to coarsen *)
  fx0 : float;  (* floor (min x / side), the window's first column *)
  fy0 : float;
  nx : int;
  ny : int;
  start : int array;
      (* length nx * ny + 1: cell c = cx * ny + cy owns slots
         [start.(c), start.(c + 1)) *)
  slot_id : int array;  (* slot -> node id *)
  xs : float array;  (* slot -> x *)
  ys : float array;
  r : float;  (* probe half-width: [Grid]'s padded [Env.max_reach] *)
  pre2 : float;  (* squared guard radius, as in [consider] *)
  halo : int;  (* columns left of a band whose probes can reach it *)
}

let sort_cells env positions ~range =
  let n = Array.length positions in
  let r = Geom.Grid.padded (Radio.Env.max_reach env) in
  let minx = ref infinity and maxx = ref neg_infinity in
  let miny = ref infinity and maxy = ref neg_infinity in
  Array.iter
    (fun (p : Geom.Vec2.t) ->
      (* an infinite extent would coarsen the window forever *)
      if not (Float.is_finite p.x && Float.is_finite p.y) then
        invalid_arg "Geo.run_flat: non-finite position";
      if p.x < !minx then minx := p.x;
      if p.x > !maxx then maxx := p.x;
      if p.y < !miny then miny := p.y;
      if p.y > !maxy then maxy := p.y)
    positions;
  (* the window's extent in cells, counted in floats: the int product
     can overflow *)
  let rec fit side =
    let fx0 = Float.floor (!minx /. side)
    and fy0 = Float.floor (!miny /. side) in
    let w = Float.floor (!maxx /. side) -. fx0 +. 1.
    and h = Float.floor (!maxy /. side) -. fy0 +. 1. in
    if w *. h > Stdlib.float_of_int (max_cells n) then fit (2. *. side)
    else (side, fx0, fy0, int_of_float w, int_of_float h)
  in
  let side, fx0, fy0, nx, ny =
    if n = 0 then (range, 0., 0., 0, 0) else fit range
  in
  let ncells = nx * ny in
  let cell_of (p : Geom.Vec2.t) =
    (int_of_float (Float.floor (p.x /. side) -. fx0) * ny)
    + int_of_float (Float.floor (p.y /. side) -. fy0)
  in
  (* counting sort in [start] alone: counts, then each cell's first
     slot, advanced past each node placed there, then shifted back *)
  let start = Array.make (ncells + 1) 0 in
  Array.iter
    (fun p ->
      let c = cell_of p in
      start.(c) <- start.(c) + 1)
    positions;
  let sum = ref 0 in
  for c = 0 to ncells do
    let k = start.(c) in
    start.(c) <- !sum;
    sum := !sum + k
  done;
  let slot_id = Array.make n 0 in
  let xs = Array.make n 0. and ys = Array.make n 0. in
  Array.iteri
    (fun u (p : Geom.Vec2.t) ->
      let c = cell_of p in
      let a = start.(c) in
      start.(c) <- a + 1;
      slot_id.(a) <- u;
      xs.(a) <- p.x;
      ys.(a) <- p.y)
    positions;
  for c = ncells downto 1 do
    start.(c) <- start.(c - 1)
  done;
  start.(0) <- 0;
  {
    env;
    positions;
    side;
    fx0;
    fy0;
    nx;
    ny;
    start;
    slot_id;
    xs;
    ys;
    r;
    pre2 = r *. r;
    halo = int_of_float (Float.ceil (r /. side)) + 2;
  }

(* The sizes of the occupied R-cells, sorted descending: the multiset
   [Geom.Grid.occupancy] reports for the same positions. *)
let occupancy w ~range =
  let counts =
    if w.side = range then begin
      let acc = ref [] in
      for c = 0 to (w.nx * w.ny) - 1 do
        let k = w.start.(c + 1) - w.start.(c) in
        if k > 0 then acc := k :: !acc
      done;
      !acc
    end
    else begin
      let h = Hashtbl.create 64 in
      Array.iter
        (fun (p : Geom.Vec2.t) ->
          let key =
            ( int_of_float (Float.floor (p.x /. range)),
              int_of_float (Float.floor (p.y /. range)) )
          in
          Hashtbl.replace h key
            (1 + Option.value ~default:0 (Hashtbl.find_opt h key)))
        w.positions;
      Hashtbl.fold (fun _ k acc -> k :: acc) h []
    end
  in
  List.sort (fun a b -> Int.compare b a) counts

(* Per-band output rows, appended to blocks in slot order.  Block sizes
   double from 64 slots up to [block_slots]; unlike a doubling buffer,
   nothing is copied or dropped while the rows grow, so at large n the
   blocks come to about one copy of the output.  A node's rows never
   straddle two blocks. *)
let block_slots = 16_384

type block = {
  mutable len : int;
  b_ids : int array;
  b_dirs : float array;
  b_links : float array;
  b_tags : float array;
}

let block_create cap =
  {
    len = 0;
    b_ids = Array.make cap 0;
    b_dirs = Array.make cap 0.;
    b_links = Array.make cap 0.;
    b_tags = Array.make cap 0.;
  }

(* One band's sweep state.  The pending chains live in a free-listed
   arena: an entry is a partner id and the pair's link power, threaded
   through [pe_next]; a drained chain's entries go back on the free
   list, so the arena holds only the pairs whose higher slot the sweep
   has not reached yet. *)
type band = {
  s : scratch;
  own_lo : int;  (* the band's slots: [own_lo, own_hi) *)
  own_hi : int;
  heads : int array;  (* chain head per own slot, -1 when empty *)
  mutable pe_id : int array;
  mutable pe_link : fbuf;
  mutable pe_next : int array;
  mutable free : int;  (* free-list head, -1 when empty *)
  mutable top : int;  (* arena entries ever used *)
  mutable blocks : block list;  (* full blocks, newest first *)
  mutable cur : block;
}

let band_create ~own_lo ~own_hi =
  {
    s = scratch_create ();
    own_lo;
    own_hi;
    heads = Array.make (own_hi - own_lo) (-1);
    pe_id = Array.make 256 0;
    pe_link = fbuf_create 256;
    pe_next = Array.make 256 0;
    free = -1;
    top = 0;
    blocks = [];
    cur = block_create 0;
  }

let arena_grow bd =
  let cap = 2 * Array.length bd.pe_id in
  let grow a = let b = Array.make cap 0 in Array.blit a 0 b 0 bd.top; b in
  let link = fbuf_create cap in
  for e = 0 to bd.top - 1 do
    fset link e (fget bd.pe_link e)
  done;
  bd.pe_id <- grow bd.pe_id;
  bd.pe_next <- grow bd.pe_next;
  bd.pe_link <- link

(* Put (id, lane.(i)) on own slot [slot]'s chain; the link power is read
   from the lane so no float crosses the call. *)
let push bd ~slot ~id (lane : fbuf) i =
  let e =
    if bd.free >= 0 then begin
      let e = bd.free in
      bd.free <- bd.pe_next.(e);
      e
    end
    else begin
      if bd.top = Array.length bd.pe_id then arena_grow bd;
      let e = bd.top in
      bd.top <- e + 1;
      e
    end
  in
  bd.pe_id.(e) <- id;
  fset bd.pe_link e (fget lane i);
  bd.pe_next.(e) <- bd.heads.(slot);
  bd.heads.(slot) <- e

(* Move own slot [slot]'s chain into the scratch's candidates. *)
let drain bd ~slot =
  let s = bd.s in
  let e = ref bd.heads.(slot) in
  while !e >= 0 do
    let i = s.m in
    if i >= s.cap then scratch_grow s (i + 1);
    s.cand.(i) <- bd.pe_id.(!e);
    fset s.link i (fget bd.pe_link !e);
    s.m <- i + 1;
    let next = bd.pe_next.(!e) in
    bd.pe_next.(!e) <- bd.free;
    bd.free <- !e;
    e := next
  done;
  bd.heads.(slot) <- -1

(* Test slot [a] against the slots [lo, hi), all above [a].  An accepted
   pair joins [a]'s candidates when [own] (a halo slot only pushes) and
   the partner's chain when the partner is one of the band's slots. *)
let test_slots w bd a ~lo ~hi ~own =
  let s = bd.s and xs = w.xs and ys = w.ys and ids = w.slot_id in
  let xa = Array.unsafe_get xs a and ya = Array.unsafe_get ys a in
  let pre2 = w.pre2 in
  let u = ids.(a) in
  let pu = w.positions.(u) in
  for b = lo to hi - 1 do
    let dx = Array.unsafe_get xs b -. xa and dy = Array.unsafe_get ys b -. ya in
    if (dx *. dx) +. (dy *. dy) <= pre2 then begin
      let v = Array.unsafe_get ids b in
      let i = s.m in
      if i >= s.cap then scratch_grow s (i + 1);
      if
        Radio.Env.link_into w.env ~u ~v ~pu ~pv:(Array.unsafe_get w.positions v)
          s.link i
      then begin
        if own then begin
          s.cand.(i) <- v;
          s.m <- i + 1
        end;
        if b < bd.own_hi then push bd ~slot:(b - bd.own_lo) ~id:u s.link i
      end
    end
  done

(* The column and row index [floor (z / side)] of coordinate [z], in
   window units and clamped to [0, n - 1]. *)
let[@inline] cell_at z ~side ~z0 ~n =
  let k = Float.floor (z /. side) -. z0 in
  if k < 0. then 0
  else if k >= Stdlib.float_of_int (n - 1) then n - 1
  else int_of_float k

(* Test slot [a], in column [cx], against the slots of columns
   [c_from, c_to] its probe square covers; in its own column only the
   slots above it. *)
let test_columns w bd a ~cx ~c_from ~c_to ~own =
  let x = w.xs.(a) and y = w.ys.(a) in
  let hi_x = cell_at (x +. w.r) ~side:w.side ~z0:w.fx0 ~n:w.nx in
  let lo_y = cell_at (y -. w.r) ~side:w.side ~z0:w.fy0 ~n:w.ny in
  let hi_y = cell_at (y +. w.r) ~side:w.side ~z0:w.fy0 ~n:w.ny in
  let ny = w.ny in
  for c = c_from to Stdlib.min c_to hi_x do
    let lo = if c = cx then a + 1 else w.start.((c * ny) + lo_y) in
    test_slots w bd a ~lo ~hi:w.start.((c * ny) + hi_y + 1) ~own
  done

type outputs = {
  off : int array;  (* degree of node u in off.(u + 1) until prefixed *)
  power : float array;
  boundary : bool array;
  steps_used : int array;  (* [||] unless recording *)
  cand_count : int array;
}

let append_rows bd =
  let s = bd.s and k = bd.s.k in
  if bd.cur.len + k > Array.length bd.cur.b_ids then begin
    let cap = Array.length bd.cur.b_ids in
    if bd.cur.len > 0 then bd.blocks <- bd.cur :: bd.blocks;
    bd.cur <-
      block_create
        (Stdlib.max k (Stdlib.max 64 (Stdlib.min block_slots (2 * cap))))
  end;
  let c = bd.cur in
  for r = 0 to k - 1 do
    let i = s.perm.(r) in
    c.b_ids.(c.len + r) <- s.cand.(i);
    c.b_dirs.(c.len + r) <- fget s.dir i;
    c.b_links.(c.len + r) <- fget s.link i;
    c.b_tags.(c.len + r) <- fget s.tag r
  done;
  c.len <- c.len + k

(* Sweep the band owning columns [c0, c1): its halo first, then its own
   slots, each drained, tested, grown and written out. *)
let sweep_band w bd ~c0 ~c1 ~alpha ~max_power ~schedule out =
  let ny = w.ny and s = bd.s in
  for cx = Stdlib.max 0 (c0 - w.halo) to c0 - 1 do
    for a = w.start.(cx * ny) to w.start.((cx + 1) * ny) - 1 do
      s.m <- 0;
      test_columns w bd a ~cx ~c_from:c0 ~c_to:(c1 - 1) ~own:false
    done
  done;
  for cx = c0 to c1 - 1 do
    for a = w.start.(cx * ny) to w.start.((cx + 1) * ny) - 1 do
      let u = w.slot_id.(a) in
      s.m <- 0;
      drain bd ~slot:(a - bd.own_lo);
      test_columns w bd a ~cx ~c_from:cx ~c_to:(w.nx - 1) ~own:true;
      grow_scratch s ~positions:w.positions ~u ~alpha ~max_power
        ~stepped:schedule s.m;
      out.off.(u + 1) <- s.k;
      out.power.(u) <- fget s.par 2;
      out.boundary.(u) <- s.boundary;
      if Array.length out.steps_used > 0 then begin
        out.steps_used.(u) <- s.nsteps;
        out.cand_count.(u) <- s.m
      end;
      append_rows bd
    done
  done

(* Copy a band's rows from its blocks to their id-order place in the
   CSR arrays: the band's slots in order read its blocks in order. *)
let copy_band w bd (off : int array) ids dirs links tags =
  let blocks = ref (List.rev (bd.cur :: bd.blocks)) and pos = ref 0 in
  for a = bd.own_lo to bd.own_hi - 1 do
    let u = w.slot_id.(a) in
    let o = off.(u) in
    let k = off.(u + 1) - o in
    if k > 0 then begin
      while !pos + k > (List.hd !blocks).len do
        blocks := List.tl !blocks;
        pos := 0
      done;
      let c = List.hd !blocks in
      Array.blit c.b_ids !pos ids o k;
      Array.blit c.b_dirs !pos dirs o k;
      Array.blit c.b_links !pos links o k;
      Array.blit c.b_tags !pos tags o k;
      pos := !pos + k
    end
  done

(* Column boundaries of [nbands] bands of about n / nbands slots each:
   band i owns columns [cols.(i), cols.(i + 1)), possibly none. *)
let band_columns w nbands =
  let n = Array.length w.slot_id in
  let cols = Array.make (nbands + 1) w.nx in
  cols.(0) <- 0;
  let cx = ref 0 in
  for i = 1 to nbands - 1 do
    while !cx < w.nx && w.start.(!cx * w.ny) < i * n / nbands do
      incr cx
    done;
    cols.(i) <- !cx
  done;
  cols

let run_bands ?pool nbands body =
  match pool with
  | Some pool -> Parallel.Pool.iter_chunks pool ~chunk:1 nbands (fun lo hi ->
        for i = lo to hi - 1 do body i done)
  | None -> for i = 0 to nbands - 1 do body i done

let run_flat ?pool ?(obs = Obs.Recorder.nil) ?(phase = ignore) ?env config
    pathloss positions =
  let env = Radio.Env.resolve ?env pathloss in
  let n = Array.length positions in
  let range = Radio.Pathloss.max_range pathloss in
  phase "sort";
  let w = sort_cells env positions ~range in
  if Obs.Recorder.enabled obs then
    List.iter
      (fun occ ->
        Obs.Recorder.observe obs "grid.cell_occupancy"
          (Stdlib.float_of_int occ))
      (occupancy w ~range);
  Obs.Recorder.span obs "discovery" @@ fun () ->
  phase "sweep";
  let alpha = config.Config.alpha in
  let max_power = Radio.Pathloss.max_power pathloss in
  let schedule = schedule_of config pathloss in
  let recording = Obs.Recorder.enabled obs in
  let out =
    {
      off = Array.make (n + 1) 0;
      power = Array.make n max_power;
      boundary = Array.make n false;
      steps_used = (if recording then Array.make n 0 else [||]);
      cand_count = (if recording then Array.make n 0 else [||]);
    }
  in
  let nbands = match pool with None -> 1 | Some p -> Parallel.Pool.jobs p in
  let cols = band_columns w nbands in
  let ny = w.ny in
  let bands =
    Array.init nbands (fun i ->
        band_create ~own_lo:w.start.(cols.(i) * ny)
          ~own_hi:w.start.(cols.(i + 1) * ny))
  in
  run_bands ?pool nbands (fun i ->
      sweep_band w bands.(i) ~c0:cols.(i) ~c1:cols.(i + 1) ~alpha ~max_power
        ~schedule out);
  phase "copy";
  let off = out.off in
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let total = off.(n) in
  let ids = Array.make total 0 in
  let dirs = Array.make total 0. in
  let links = Array.make total 0. in
  let tags = Array.make total 0. in
  run_bands ?pool nbands (fun i -> copy_band w bands.(i) off ids dirs links tags);
  phase "end";
  if recording then begin
    Obs.Recorder.incr ~by:n obs "discovery.nodes";
    for u = 0 to n - 1 do
      Obs.Recorder.incr ~by:out.steps_used.(u) obs "discovery.power_steps";
      if out.boundary.(u) then Obs.Recorder.incr obs "discovery.boundary_nodes";
      Obs.Recorder.observe obs "discovery.candidates"
        (Stdlib.float_of_int out.cand_count.(u));
      Obs.Recorder.observe obs "discovery.degree"
        (Stdlib.float_of_int (off.(u + 1) - off.(u)))
    done
  end;
  {
    Discovery.config;
    pathloss;
    positions = Array.copy positions;
    off;
    ids;
    dirs;
    links;
    tags;
    power = out.power;
    boundary = out.boundary;
  }
