let check_node positions u =
  if u < 0 || u >= Array.length positions then
    invalid_arg "Geo.grow_into: node out of range"

let make_grid pathloss positions =
  Geom.Grid.create ~range:(Radio.Pathloss.max_range pathloss) positions

(* Run [body lo hi] over [0, n) — chunked over the pool's domains when
   one is given (ranges at most [chunk] long), one inline call
   otherwise; never called when [n = 0].  Bodies write only to slots of
   preallocated arrays inside their own range, so the merge is the
   arrays themselves and the result is independent of scheduling. *)
let for_nodes ?pool ?chunk n body =
  match pool with
  | Some pool -> Parallel.Pool.iter_chunks pool ?chunk n body
  | None -> if n > 0 then body 0 n

(* G_R and its survivor partition have one implementation, shared with
   the max-power baseline. *)
let max_power_graph = Baselines.Proximity.max_power
let max_power_partition = Baselines.Proximity.max_power_partition

(* ------------------------------------------------------------------ *)
(* Struct-of-arrays discovery kernel: the only implementation of the   *)
(* CBTC growth rule in the library.                                     *)
(*                                                                     *)
(* Candidates are collected into parallel int/float arrays and heaped  *)
(* once by (link power, id) in O(m); the power walk pops them in that  *)
(* order only as far as it goes, and the gap test keeps a sorted-unique *)
(* direction array with a count of its wide gaps, updated on each      *)
(* insertion, instead of re-sorting a list per step.  Nothing is       *)
(* allocated per node beyond amortized scratch growth.  The list-based *)
(* statement of the same rule (a Neighbor.t list per node, rebuilt at  *)
(* every power step) lives in test/spec_geo.ml as the oracle: the      *)
(* differential properties pin this kernel to it bit for bit — same    *)
(* discovered sets in the same order, same powers, tags and boundary   *)
(* flags.                                                              *)
(* ------------------------------------------------------------------ *)

(* Float scratch lives in float64 Bigarrays: flat 8-byte lanes with no
   header in the OCaml heap, accessed through [unsafe_get]/[unsafe_set]
   (capacity is checked once per candidate in [collect], so the kernel
   loops skip the per-element bound checks boxed [float array] access
   would re-pay), and invisible to the GC scan. *)
type fbuf = Radio.Env.lane

let fbuf_create = Radio.Env.lane_create

let fget : fbuf -> int -> float = Bigarray.Array1.unsafe_get
let fset : fbuf -> int -> float -> unit = Bigarray.Array1.unsafe_set

let two_pi = 2. *. Float.pi

type scratch = {
  mutable cap : int;
  mutable cand : int array;  (* candidate ids, probe order *)
  mutable link : fbuf;  (* link power per candidate *)
  mutable dir : fbuf;  (* normalized direction per candidate *)
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
         walk's final power — float state in a lane, so the helpers
         below take and return no boxed float *)
}

let scratch_create () =
  {
    cap = 0;
    cand = [||];
    link = fbuf_create 0;
    dir = fbuf_create 0;
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
    par = fbuf_create 3;
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

(* [collect u] fills the scratch with u's G_R^env candidates and
   returns their count, unsorted.

   This is the innermost loop of the whole pipeline (every grid-probed
   pair passes through it), so without flambda it cannot afford the
   boxed intermediate records of the [Vec2.dist] / [Vec2.direction]
   calls the spec makes, nor a boxed float per candidate.  The link
   test is [Env.link_into]: the spec's [Env.in_range] at
   [dist = sqrt (dx*dx + dy*dy)] (exactly as [Vec2.dist] computes it),
   writing an admitted candidate's link power straight into the
   scratch's link lane, so results stay bit-identical to the spec's
   candidates (pinned by the differential properties in
   test/test_csr.ml and test/test_env.ml) and nothing is allocated per
   candidate.  The [dist <= pre] guard skips the link test for
   the ~2/3 of probed candidates outside range: [Env.max_reach] bounds
   the support of [in_range] from above (the grid probe already relies
   on that), and the same relative+absolute slack as [Grid.probe_slack]
   absorbs its last-ulp rounding, so the guard only ever admits extra
   candidates for the exact test to reject.  Directions are NOT
   computed here: most candidates are never absorbed (growth stops at
   the first gap-free power), so [grow_scratch] computes each direction
   on absorption via [set_dir]. *)
let collect ?grid ?alive env positions s u =
  check_node positions u;
  let reach = Radio.Env.max_reach env in
  let pre = (reach *. (1. +. 1e-9)) +. 1e-9 in
  (* squared so the reject path (most probed candidates) skips the sqrt;
     an in-range [dist] is within a ~1e-15 relative error of [reach], so
     its square sits far inside [pre]'s 1e-9 relative slack *)
  let pre2 = pre *. pre in
  let pu = positions.(u) in
  let m = ref 0 in
  let consider v =
    if v <> u && (match alive with None -> true | Some a -> a v) then begin
      let pv = positions.(v) in
      let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
      and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 <= pre2 then begin
        let i = !m in
        if i >= s.cap then scratch_grow s (i + 1);
        if Radio.Env.link_into env ~u ~v ~pu ~pv s.link i then begin
          s.cand.(i) <- v;
          m := i + 1
        end
      end
    end
  in
  (match grid with
  | Some grid ->
      Geom.Grid.iter_in_range grid positions.(u) ~dist:reach consider
  | None ->
      for v = 0 to Array.length positions - 1 do
        consider v
      done);
  !m

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

(* One node's discovery: collect + heap + power walk entirely in the
   scratch.  The discovered rows stay resident in the scratch for the
   caller to read through [row_id] & co, so an incremental engine can
   re-grow one node with zero list allocation. *)
let grow_into ?grid ?alive ?env ~schedule s config pathloss positions u =
  let m =
    collect ?grid ?alive (Radio.Env.resolve ?env pathloss) positions s u
  in
  grow_scratch s ~positions ~u ~alpha:config.Config.alpha
    ~max_power:(Radio.Pathloss.max_power pathloss)
    ~stepped:schedule m;
  (s.k, fget s.par 2, s.boundary)

let row_id s r = s.cand.(s.perm.(r))
let row_link s r = fget s.link s.perm.(r)
let row_dir s r = fget s.dir s.perm.(r)
let row_tag s r = fget s.tag r

(* Per-chunk output rows, appended to blocks and concatenated in chunk
   order into the final CSR arrays.  Block sizes double from 64 slots
   up to [block_slots]; unlike a doubling buffer, nothing is copied or
   dropped while the rows grow, so at large n the blocks come to about
   one copy of the output.  Each worker writes only its own buffer. *)
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

type rowbuf = { mutable full : block list;  (* newest first *) mutable cur : block }

let rowbuf_create () = { full = []; cur = block_create 0 }

let rowbuf_append b s k =
  if b.cur.len + k > Array.length b.cur.b_ids then begin
    let cap = Array.length b.cur.b_ids in
    if b.cur.len > 0 then b.full <- b.cur :: b.full;
    b.cur <-
      block_create
        (Stdlib.max k (Stdlib.max 64 (Stdlib.min block_slots (2 * cap))))
  end;
  let c = b.cur in
  for r = 0 to k - 1 do
    let i = s.perm.(r) in
    c.b_ids.(c.len + r) <- s.cand.(i);
    c.b_dirs.(c.len + r) <- fget s.dir i;
    c.b_links.(c.len + r) <- fget s.link i;
    c.b_tags.(c.len + r) <- fget s.tag r
  done;
  c.len <- c.len + k

let rowbuf_blocks b = List.rev (b.cur :: b.full)

let run_flat ?pool ?(obs = Obs.Recorder.nil) ?env config pathloss positions =
  let env = Radio.Env.resolve ?env pathloss in
  let n = Array.length positions in
  let grid = make_grid pathloss positions in
  if Obs.Recorder.enabled obs then
    List.iter
      (fun occ ->
        Obs.Recorder.observe obs "grid.cell_occupancy"
          (Stdlib.float_of_int occ))
      (Geom.Grid.occupancy grid);
  Obs.Recorder.span obs "discovery" @@ fun () ->
  let alpha = config.Config.alpha in
  let max_power = Radio.Pathloss.max_power pathloss in
  let schedule = schedule_of config pathloss in
  let power = Array.make n max_power in
  let boundary = Array.make n false in
  let off = Array.make (n + 1) 0 in
  let recording = Obs.Recorder.enabled obs in
  let steps_used = if recording then Array.make n 0 else [||] in
  let cand_count = if recording then Array.make n 0 else [||] in
  (* fixed chunk size so a chunk's buffer index is lo / chunk; each
     chunk appends its rows to its own buffer and writes per-node slots
     only in its own range, so the merge below is scheduling-independent.
     With no pool the single chunk is [0, n) into bufs.(0). *)
  let chunk =
    match pool with
    | None -> Stdlib.max 1 n
    | Some pool ->
        let ways = 4 * Parallel.Pool.jobs pool in
        Stdlib.max 1 ((n + ways - 1) / ways)
  in
  let nchunks = if n = 0 then 0 else ((n + chunk - 1) / chunk) in
  let bufs = Array.init nchunks (fun _ -> rowbuf_create ()) in
  for_nodes ?pool ~chunk n (fun lo hi ->
      let s = scratch_create () in
      let b = bufs.(lo / chunk) in
      for u = lo to hi - 1 do
        let m = collect ~grid env positions s u in
        grow_scratch s ~positions ~u ~alpha ~max_power ~stepped:schedule m;
        off.(u + 1) <- s.k;
        power.(u) <- fget s.par 2;
        boundary.(u) <- s.boundary;
        if recording then begin
          steps_used.(u) <- s.nsteps;
          cand_count.(u) <- m
        end;
        rowbuf_append b s s.k
      done);
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let total = off.(n) in
  let ids = Array.make total 0 in
  let dirs = Array.make total 0. in
  let links = Array.make total 0. in
  let tags = Array.make total 0. in
  let at = ref 0 in
  Array.iter
    (fun b ->
      List.iter
        (fun c ->
          Array.blit c.b_ids 0 ids !at c.len;
          Array.blit c.b_dirs 0 dirs !at c.len;
          Array.blit c.b_links 0 links !at c.len;
          Array.blit c.b_tags 0 tags !at c.len;
          at := !at + c.len)
        (rowbuf_blocks b))
    bufs;
  if recording then begin
    Obs.Recorder.incr ~by:n obs "discovery.nodes";
    for u = 0 to n - 1 do
      Obs.Recorder.incr ~by:steps_used.(u) obs "discovery.power_steps";
      if boundary.(u) then Obs.Recorder.incr obs "discovery.boundary_nodes";
      Obs.Recorder.observe obs "discovery.candidates"
        (Stdlib.float_of_int cand_count.(u));
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
    power;
    boundary;
  }
