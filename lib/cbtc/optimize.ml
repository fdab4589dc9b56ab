(* Op1 (Section 3.1) keeps the lowest tag prefix D' of a row D whose
   coverage cover_alpha(D') equals cover_alpha(D).  For D' ⊆ D that
   holds exactly when no direction of D lies strictly inside a wide gap
   of D', a gap between circularly consecutive directions of D' wider
   than alpha: a direction inside a gap of width <= alpha adds nothing,
   since the arcs on either side already meet, while one inside a wide
   gap covers part of its uncovered middle.

   The boundary rule is the 1e-9 tolerance of the arc sets op1 was
   first written with (now the test suite's [Arcset]), decided on the
   arcs' own endpoints in their float operations.  Each direction d
   gives the arc [s, s + alpha], s = normalize (d - alpha/2), cut at
   the 0/2pi seam into at most two pieces.  Walked in order of start,
   a piece starting more than 1e-9 past the furthest end so far opens a
   new run: that is a wide gap.  The cover is the whole circle when its
   pieces form one run starting within 1e-9 of 0 and ending within 1e-9
   of 2pi.  Then cover(D') = cover(D) exactly when
   - D covers the circle, and so does D'; or
   - D leaves a wide gap (a boundary row), and each run of D holds
     exactly one run of D' (no direction of D strictly inside a wide
     gap of D') that starts at most 1e-9 after it and ends at most 1e-9
     before it (the strict-inside margin at the run's ends).
   The test is monotone in D', so the cut is found by bisection over
   the tag classes, each probe one pass over the row's sorted pieces. *)

let merge_eps = 1e-9

let two_pi = 2. *. Float.pi

(* Scratch for the walk over rows of at most [k] slots: a row's arc
   pieces sorted by start, and the end of each of its tag classes. *)
type walk = {
  alpha : float;
  starts : float array;
  ends : float array;
  slots : int array;  (* the row slot each piece comes from *)
  class_end : int array;
}

let walk_create alpha k =
  {
    alpha;
    starts = Array.make (2 * k) 0.;
    ends = Array.make (2 * k) 0.;
    slots = Array.make (2 * k) 0;
    class_end = Array.make k 0;
  }

(* Sort the first [np] pieces by start (insertion: rows are short). *)
let sort_pieces w np =
  for p = 1 to np - 1 do
    let st = w.starts.(p) and en = w.ends.(p) and r = w.slots.(p) in
    let q = ref p in
    while !q > 0 && w.starts.(!q - 1) > st do
      w.starts.(!q) <- w.starts.(!q - 1);
      w.ends.(!q) <- w.ends.(!q - 1);
      w.slots.(!q) <- w.slots.(!q - 1);
      decr q
    done;
    w.starts.(!q) <- st;
    w.ends.(!q) <- en;
    w.slots.(!q) <- r
  done

(* Does the cover of the pieces from slots below [j] equal that of all
   [np] sorted pieces?  [full]: all of them cover the circle, and the
   kept ones must too (with [j = np], this tells whether they do).  One
   pass tracks the current run of all pieces and the runs of kept
   pieces, counted per run of all pieces unless [full]; [p = np] closes
   the last run. *)
let covers w np j ~full =
  let ok = ref true in
  let run_start = ref 0. and run_end = ref 0. in
  let kept_runs = ref 0 and kept_start = ref 0. and kept_end = ref 0. in
  for p = 0 to np do
    let opens = p = np || (p > 0 && w.starts.(p) > !run_end +. merge_eps) in
    if
      opens
      && not
           (!kept_runs = 1
           && !kept_start -. merge_eps <= !run_start
           && !run_end <= !kept_end +. merge_eps)
    then ok := false;
    if p < np then begin
      let st = w.starts.(p) and en = w.ends.(p) in
      if p = 0 || opens then begin
        run_start := st;
        run_end := en;
        if not full then kept_runs := 0
      end
      else if en > !run_end then run_end := en;
      if w.slots.(p) < j then
        if !kept_runs = 0 || st > !kept_end +. merge_eps then begin
          incr kept_runs;
          kept_start := st;
          kept_end := en
        end
        else if en > !kept_end then kept_end := en
    end
  done;
  if full then
    !kept_runs = 1
    && !kept_start <= merge_eps
    && !kept_end >= two_pi -. merge_eps
  else !ok

(* The op1 cut over the [k >= 1] slots [lo, lo + k) of [dirs]/[tags],
   listed in (tag, link power, id) order, [w] holding rows of [k]
   slots: the end, relative to [lo], of the lowest tag prefix with the
   whole row's coverage. *)
let row_cut w (dirs : float array) (tags : float array) lo k =
  (* the tag classes: runs of tags <= the run's first *)
  let nc = ref 0 and i = ref 0 in
  while !i < k do
    let t = tags.(lo + !i) in
    let j = ref (!i + 1) in
    while !j < k && tags.(lo + !j) <= t do
      incr j
    done;
    w.class_end.(!nc) <- !j;
    incr nc;
    i := !j
  done;
  let alpha = w.alpha in
  (* an arc of width 2pi covers the circle alone *)
  if alpha >= two_pi then w.class_end.(0)
  else begin
    let half = alpha /. 2. in
    let np = ref 0 in
    for r = 0 to k - 1 do
      (* Angle.normalize (d -. half), whose Float.rem is the identity
         on (-2pi, 2pi) *)
      let x = dirs.(lo + r) -. half in
      let x = if Float.abs x < two_pi then x else Float.rem x two_pi in
      let x = if x < 0. then x +. two_pi else x in
      let st = if x >= two_pi then 0. else x in
      let en = st +. alpha in
      let p = !np in
      w.starts.(p) <- st;
      w.slots.(p) <- r;
      if en <= two_pi then begin
        w.ends.(p) <- en;
        np := p + 1
      end
      else begin
        w.ends.(p) <- two_pi;
        w.starts.(p + 1) <- 0.;
        w.ends.(p + 1) <- en -. two_pi;
        w.slots.(p + 1) <- r;
        np := p + 2
      end
    done;
    let np = !np in
    sort_pieces w np;
    let full = covers w np k ~full:true in
    (* the last class keeps the whole row and always covers; a full row
       of exact growth stopped at the first class that closed its gaps,
       so its cut is usually the last class: probe the one before first *)
    let lo_c = ref 0 and hi_c = ref (!nc - 1) in
    if full && !nc >= 2 then
      if covers w np w.class_end.(!nc - 2) ~full then hi_c := !nc - 2
      else lo_c := !nc - 1;
    while !lo_c < !hi_c do
      let mid = (!lo_c + !hi_c) / 2 in
      if covers w np w.class_end.(mid) ~full then hi_c := mid
      else lo_c := mid + 1
    done;
    w.class_end.(!lo_c)
  end

let shrink_neighbors ~alpha neighbors =
  match neighbors with
  | [] -> ([], None)
  | _ :: _ ->
      let by_tag = Array.of_list (List.sort Neighbor.compare_by_tag neighbors) in
      let j =
        row_cut
          (walk_create alpha (Array.length by_tag))
          (Array.map (fun (nb : Neighbor.t) -> nb.dir) by_tag)
          (Array.map (fun (nb : Neighbor.t) -> nb.tag) by_tag)
          0 (Array.length by_tag)
      in
      let tag = by_tag.(j - 1).tag in
      (List.filter (fun (nb : Neighbor.t) -> nb.tag <= tag) neighbors, Some tag)

(* Is slot [i] of [s] after slot [j] in (tag, link power, id) order, the
   order of [Neighbor.compare_by_tag]? *)
let after_by_tag (s : Discovery.t) i j =
  match Float.compare s.tags.(i) s.tags.(j) with
  | 0 -> (
      match Float.compare s.links.(i) s.links.(j) with
      | 0 -> s.ids.(i) > s.ids.(j)
      | c -> c > 0)
  | c -> c > 0

(* Are slots [lo, hi) of [s] in that order? *)
let in_tag_order s lo hi =
  let ok = ref true and i = ref lo in
  while !ok && !i + 1 < hi do
    ok := not (after_by_tag s !i (!i + 1));
    incr i
  done;
  !ok

(* A stable insertion sort of each row of a copy: a no-op pass on rows
   already in order, such as the kernel's. *)
let by_tag (d : Discovery.t) =
  let s =
    { d with
      ids = Array.copy d.ids;
      dirs = Array.copy d.dirs;
      links = Array.copy d.links;
      tags = Array.copy d.tags }
  in
  let swap a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  for u = 0 to Discovery.nb_nodes s - 1 do
    for i = s.off.(u) + 1 to s.off.(u + 1) - 1 do
      let j = ref i in
      while !j > s.off.(u) && after_by_tag s (!j - 1) !j do
        swap s.ids (!j - 1) !j;
        swap s.dirs (!j - 1) !j;
        swap s.links (!j - 1) !j;
        swap s.tags (!j - 1) !j;
        decr j
      done
    done
  done;
  s

let shrink_cut ?(obs = Obs.Recorder.nil) (s : Discovery.t) =
  Obs.Recorder.span obs "shrink-back" @@ fun () ->
  let n = Discovery.nb_nodes s in
  let longest = ref 0 in
  for u = 0 to n - 1 do
    longest := Stdlib.max !longest (s.off.(u + 1) - s.off.(u))
  done;
  let w = walk_create s.config.Config.alpha !longest in
  let cut = Array.make n 0 in
  let shrunk = ref 0 and dropped = ref 0 in
  for u = 0 to n - 1 do
    let lo = s.off.(u) and hi = s.off.(u + 1) in
    if not (in_tag_order s lo hi) then
      invalid_arg "Optimize.shrink_cut: a row out of (tag, link power, id) order";
    let j = if lo = hi then hi else lo + row_cut w s.dirs s.tags lo (hi - lo) in
    if j < hi then begin
      incr shrunk;
      dropped := !dropped + (hi - j)
    end;
    cut.(u) <- j
  done;
  if !shrunk > 0 then begin
    Obs.Recorder.incr ~by:!shrunk obs "shrink.nodes_shrunk";
    Obs.Recorder.incr ~by:!dropped obs "shrink.neighbors_dropped"
  end;
  cut

type pairwise_mode = [ `All | `Practical ]

(* Definition 3.5: (u,v) is redundant when some neighbor w of u satisfies
   angle(v,u,w) < pi/3 and eid(u,w) < eid(u,v), where eid(u,v) =
   (d(u,v), max ID, min ID) is compared lexicographically.  The distance
   component is the exact squared distance: squares and their sum order
   edges the same way as d itself, but comparing after a sqrt can
   collapse distinct lengths onto the same rounded float and silently
   hand the decision to the ID tie-break.  Exact ties (the
   equidistant-neighbors case) fall through to (max ID, min ID), which
   is a strict total order, so a pair of edges can never each be smaller
   than the other — mutual removal is impossible.  The strict angle
   inequality is implemented with a small conservative margin: at
   exactly pi/3 (e.g. a perfect equilateral triangle, up to float
   rounding) the edge is kept, which is always safe. *)
let angle_margin = 1e-9

let pi_three = Float.pi /. 3.

(* [Geom.Angle.diff a b], the angle between two directions of
   [Vec2.direction], both in [0, 2pi]: their difference lies in
   [-2pi, 2pi], where [normalize]'s [Float.rem] is the identity except
   at +-2pi, which it maps to +-0. and this spelling to 0. — the same
   verdict against any positive bound. *)
let[@inline] angle_below a b bound =
  let x = b -. a in
  let r = if x < 0. then x +. two_pi else x in
  let d = if r >= two_pi then 0. else r in
  (if d > Float.pi then two_pi -. d else d) < bound

(* Is slot [a] of row [u] (the edge u -> v) redundant from u?  [dirs]
   holds each slot's direction from its row's node.  The witness test
   compares edge ids before the angle: the conjunction is the same, and
   the id test is the cheaper one. *)
let redundant_from (t : Discovery.topology) dirs u a =
  let v = t.adj.(a) in
  let d2_uv = t.d2.(a) and dir_v = dirs.(a) in
  let hi_v = Int.max u v and lo_v = Int.min u v in
  let last = t.off.(u + 1) in
  let found = ref false and b = ref t.off.(u) in
  while (not !found) && !b < last do
    let w = t.adj.(!b) and d2_uw = t.d2.(!b) in
    let hi_w = Int.max u w in
    (* a witness coincident with u has no direction, and the triangle
       argument behind Theorem 3.6 needs d(w,v) < d(u,v), which fails at
       d(u,w) = 0: both (u,v) and (w,v) would count the other's endpoint
       as cover and v could lose every edge *)
    if
      w <> v && d2_uw > 0.
      && (d2_uw < d2_uv
         || d2_uw = d2_uv
            && (hi_w < hi_v || (hi_w = hi_v && Int.min u w < lo_v)))
      && angle_below dir_v dirs.(!b) (pi_three -. angle_margin)
    then found := true;
    incr b
  done;
  !found

(* [iter_edges t f] calls [f u v a b] once per edge {u, v}, u < v, in
   increasing (u, v) order, [a] and [b] being its slots in rows u and v.
   Row v's slots below v come up in increasing order as the rows u < v
   are visited, so one cursor per row finds [b]. *)
let iter_edges (t : Discovery.topology) f =
  let n = Array.length t.off - 1 in
  let mate = Array.sub t.off 0 n in
  for u = 0 to n - 1 do
    for a = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.adj.(a) in
      if v > u then begin
        let b = mate.(v) in
        mate.(v) <- b + 1;
        f u v a b
      end
    done
  done

let pairwise ?(obs = Obs.Recorder.nil) ?(mode = `Practical) positions
    (t : Discovery.topology) =
  Obs.Recorder.span obs "pairwise-removal" @@ fun () ->
  let practical = match mode with `Practical -> true | `All -> false in
  let n = Array.length t.off - 1 in
  let slots = t.off.(n) in
  let dirs = Array.make slots 0. in
  (* [Geom.Vec2.direction], spelled inline as the kernel does, so no
     float is boxed *)
  for u = 0 to n - 1 do
    let pu : Geom.Vec2.t = positions.(u) in
    for a = t.off.(u) to t.off.(u + 1) - 1 do
      let pv : Geom.Vec2.t = positions.(t.adj.(a)) in
      let dx = pv.x -. pu.x and dy = pv.y -. pu.y in
      dirs.(a) <-
        (if dx = 0. && dy = 0. then 0.
         else
           let d = Float.atan2 dy dx in
           if d < 0. then d +. (2. *. Float.pi) else d)
    done
  done;
  (* One pass evaluates each edge's verdicts once.  A redundant edge
     keeps both at its slot in row u (bit 0: from u, bit 1: from v) for
     the practical filter, which needs the second even when the first
     holds (`All does not); every other edge folds into its endpoints'
     longest non-redundant edge. *)
  let verdict = Bytes.make slots '\000' in
  let longest_nr = Array.make n 0. in
  let redundant = ref 0 in
  iter_edges t (fun u v a b ->
      let ru = redundant_from t dirs u a in
      let rv = (practical || not ru) && redundant_from t dirs v b in
      if ru || rv then begin
        incr redundant;
        Bytes.set verdict a (Char.chr (Bool.to_int ru lor (Bool.to_int rv lsl 1)))
      end
      else begin
        let d = sqrt t.d2.(a) in
        if d > longest_nr.(u) then longest_nr.(u) <- d;
        if d > longest_nr.(v) then longest_nr.(v) <- d
      end);
  (* In `Practical mode an edge is removed only by a node from whose
     perspective it is redundant, and only when doing so can lower that
     node's radius. *)
  let removed = Bytes.make slots '\000' in
  let nb_removed = ref 0 in
  iter_edges t (fun u v a b ->
      let code = Char.code (Bytes.get verdict a) in
      if
        code <> 0
        && ((not practical)
           ||
           let d = sqrt t.d2.(a) in
           (code land 1 <> 0 && d > longest_nr.(u))
           || (code land 2 <> 0 && d > longest_nr.(v)))
      then begin
        incr nb_removed;
        Bytes.set removed a '\001';
        Bytes.set removed b '\001'
      end);
  Obs.Recorder.incr ~by:!redundant obs "pairwise.redundant_edges";
  Obs.Recorder.incr ~by:!nb_removed obs "pairwise.removed_edges";
  let kept = slots - (2 * !nb_removed) in
  let off = Array.make (n + 1) 0 in
  let adj = Array.make kept 0 and d2 = Array.make kept 0. in
  let w = ref 0 in
  for u = 0 to n - 1 do
    for a = t.off.(u) to t.off.(u + 1) - 1 do
      if Bytes.get removed a = '\000' then begin
        adj.(!w) <- t.adj.(a);
        d2.(!w) <- t.d2.(a);
        incr w
      end
    done;
    off.(u + 1) <- !w
  done;
  { Discovery.off; adj; d2 }
