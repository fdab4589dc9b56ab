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
(* Candidates are collected into parallel int/float arrays, a          *)
(* permutation is sorted once by (link power, id), the power walk is a *)
(* pointer sweep over that permutation, and the gap test maintains a   *)
(* sorted-unique direction array incrementally instead of re-sorting a *)
(* list per step.  Nothing is allocated per node beyond amortized      *)
(* scratch growth.  The list-based statement of the same rule (a       *)
(* Neighbor.t list per node, rebuilt at every power step) lives in     *)
(* test/spec_geo.ml as the oracle: the differential properties pin     *)
(* this kernel to it bit for bit — same discovered sets in the same    *)
(* order, same powers, tags and boundary flags.                        *)
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

type scratch = {
  mutable cap : int;
  mutable cand : int array;  (* candidate ids, probe order *)
  mutable link : fbuf;  (* link power per candidate *)
  mutable dir : fbuf;  (* normalized direction per candidate *)
  mutable perm : int array;  (* candidate indices sorted by (link, id) *)
  mutable tag : fbuf;  (* discovery-step power per sorted rank *)
  mutable sdirs : fbuf;  (* sorted-unique discovered directions *)
}

let scratch_create () =
  {
    cap = 0;
    cand = [||];
    link = fbuf_create 0;
    dir = fbuf_create 0;
    perm = [||];
    tag = fbuf_create 0;
    sdirs = fbuf_create 0;
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
   on absorption via [norm_dir_between]. *)
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

(* In-place heapsort of [perm.(0..m-1)] by (link power, id) — the
   [Neighbor.compare_by_link_power] order.  No per-node allocation. *)
let sort_perm s m =
  let a = s.perm in
  let link = s.link and cand = s.cand in
  for i = 0 to m - 1 do
    a.(i) <- i
  done;
  (* comparisons are inlined (not an [lt] closure) so the float loads
     stay unboxed and each of the ~m log m probes is branch + compare,
     not an indirect call *)
  let rec sift root count =
    let child = (2 * root) + 1 in
    if child < count then begin
      let child =
        if child + 1 < count then begin
          let i = a.(child) and j = a.(child + 1) in
          let li = fget link i and lj = fget link j in
          if li < lj || (li = lj && cand.(i) < cand.(j)) then child + 1
          else child
        end
        else child
      in
      let i = a.(root) and j = a.(child) in
      let li = fget link i and lj = fget link j in
      if li < lj || (li = lj && cand.(i) < cand.(j)) then begin
        a.(root) <- j;
        a.(child) <- i;
        sift child count
      end
    end
  in
  for i = (m / 2) - 1 downto 0 do
    sift i m
  done;
  for i = m - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(i);
    a.(i) <- tmp;
    sift 0 i
  done

(* Insert [d] into the sorted-unique prefix [sdirs.(0..len-1)],
   returning the new length (unchanged when already present) — the
   incremental counterpart of Dirset's sort_uniq. *)
let insert_dir s len d =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fget s.sdirs mid < d then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  if pos < len && fget s.sdirs pos = d then len
  else begin
    for i = len - 1 downto pos do
      fset s.sdirs (i + 1) (fget s.sdirs i)
    done;
    fset s.sdirs pos d;
    len + 1
  end

(* [Vec2.direction] then [Angle.normalize], with identical float
   operations in identical order (the [2. *. Float.pi] constant is
   [angle_of]'s own spelling), so the result is bit-identical to the
   spec's [Angle.normalize (Vec2.direction ...)]. *)
let norm_dir_between pu pv =
  let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
  and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
  let d =
    if dx = 0. && dy = 0. then 0.
    else begin
      let a = Float.atan2 dy dx in
      if a < 0. then a +. (2. *. Float.pi) else a
    end
  in
  let r = Float.rem d Geom.Angle.two_pi in
  let r = if r < 0. then r +. Geom.Angle.two_pi else r in
  if r >= Geom.Angle.two_pi then 0. else r

(* The power walk: sweep the (link, id)-sorted permutation along the
   power schedule.  [stepped] is the precomputed schedule for
   Double/Mult growth; [None] means Exact growth, whose steps are the
   distinct candidate link powers in increasing order.
   Returns (discovered count, final power, boundary, steps used); the
   discovered set is perm.(0..k-1) with tags in tag.(0..k-1) and
   directions filled into dir on absorption. *)
let grow_scratch s ~positions ~u ~alpha ~max_power ~stepped m =
  sort_perm s m;
  let pu = positions.(u) in
  let ptr = ref 0 and ndirs = ref 0 and nsteps = ref 0 in
  let absorb step ~drain =
    while !ptr < m && (drain || fget s.link s.perm.(!ptr) <= step) do
      let i = s.perm.(!ptr) in
      fset s.tag !ptr step;
      let d = norm_dir_between pu positions.(s.cand.(i)) in
      fset s.dir i d;
      ndirs := insert_dir s !ndirs d;
      incr ptr
    done
  in
  let result = ref (max_power, true) in
  (match stepped with
  | Some steps ->
      let rec walk = function
        | [] -> assert false
        | step :: rest ->
            let is_last = rest = [] in
            incr nsteps;
            (* the last step is >= P up to rounding: absorb everything *)
            absorb step ~drain:is_last;
            if not (Geom.Dirset.has_gap_ba ~alpha s.sdirs !ndirs) then
              result := (step, false)
            else if is_last then result := (max_power, true)
            else walk rest
      in
      walk steps
  | None ->
      if m = 0 then
        (* Config.power_steps gives [max_power] for no candidates: one
           step, still gapped, boundary *)
        nsteps := 1
      else begin
        let stop = ref false in
        while not !stop do
          let step = fget s.link s.perm.(!ptr) in
          incr nsteps;
          absorb step ~drain:false;
          if not (Geom.Dirset.has_gap_ba ~alpha s.sdirs !ndirs) then begin
            result := (step, false);
            stop := true
          end
          else if !ptr = m then begin
            result := (max_power, true);
            stop := true
          end
        done
      end);
  let power, boundary = !result in
  (!ptr, power, boundary, !nsteps)

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

(* One node's discovery: collect + sort + power walk entirely in the
   scratch.  The discovered rows stay resident in the scratch for the
   caller to read through [row_id] & co, so an incremental engine can
   re-grow one node with zero list allocation. *)
let grow_into ?grid ?alive ?env ~schedule s config pathloss positions u =
  let m =
    collect ?grid ?alive (Radio.Env.resolve ?env pathloss) positions s u
  in
  let k, power, boundary, _nsteps =
    grow_scratch s ~positions ~u ~alpha:config.Config.alpha
      ~max_power:(Radio.Pathloss.max_power pathloss)
      ~stepped:schedule m
  in
  (k, power, boundary)

let row_id s r = s.cand.(s.perm.(r))
let row_link s r = fget s.link s.perm.(r)
let row_dir s r = fget s.dir s.perm.(r)
let row_tag s r = fget s.tag r

(* Growable per-chunk output rows, concatenated in chunk order into the
   final CSR arrays.  Each worker writes only its own buffer. *)
type rowbuf = {
  mutable len : int;
  mutable r_ids : int array;
  mutable r_dirs : float array;
  mutable r_links : float array;
  mutable r_tags : float array;
}

let rowbuf_create () =
  { len = 0; r_ids = [||]; r_dirs = [||]; r_links = [||]; r_tags = [||] }

let rowbuf_reserve b extra =
  let cap = Array.length b.r_ids in
  if b.len + extra > cap then begin
    let cap = Stdlib.max 64 (Stdlib.max (b.len + extra) (2 * cap)) in
    let grow_int a = let c = Array.make cap 0 in Array.blit a 0 c 0 b.len; c in
    let grow_f a = let c = Array.make cap 0. in Array.blit a 0 c 0 b.len; c in
    b.r_ids <- grow_int b.r_ids;
    b.r_dirs <- grow_f b.r_dirs;
    b.r_links <- grow_f b.r_links;
    b.r_tags <- grow_f b.r_tags
  end

let rowbuf_append b s k =
  rowbuf_reserve b k;
  for r = 0 to k - 1 do
    let i = s.perm.(r) in
    b.r_ids.(b.len + r) <- s.cand.(i);
    b.r_dirs.(b.len + r) <- fget s.dir i;
    b.r_links.(b.len + r) <- fget s.link i;
    b.r_tags.(b.len + r) <- fget s.tag r
  done;
  b.len <- b.len + k

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
        let k, pw, bd, ns =
          grow_scratch s ~positions ~u ~alpha ~max_power ~stepped:schedule m
        in
        off.(u + 1) <- k;
        power.(u) <- pw;
        boundary.(u) <- bd;
        if recording then begin
          steps_used.(u) <- ns;
          cand_count.(u) <- m
        end;
        rowbuf_append b s k
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
      Array.blit b.r_ids 0 ids !at b.len;
      Array.blit b.r_dirs 0 dirs !at b.len;
      Array.blit b.r_links 0 links !at b.len;
      Array.blit b.r_tags 0 tags !at b.len;
      at := !at + b.len)
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
    Soa.config;
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

let run ?pool ?obs ?env config pathloss positions =
  Soa.to_discovery (run_flat ?pool ?obs ?env config pathloss positions)
