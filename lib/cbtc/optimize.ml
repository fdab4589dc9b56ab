(* The op1 cut over [k] neighbors listed in (tag, link power, id) order,
   read through [dir] and [tag]: the end of the minimal tag prefix whose
   coverage equals [full], that of all [k] (Section 3.1: remove nodes
   tagged p_k, then p_{k-1}, ... while coverage persists).  Walk the tag
   classes once from the lowest, extending the covered arcs by one class
   at a time, rather than rebuilding the whole prefix's coverage at
   every candidate tag. *)
let cut_class ~alpha ~full k ~dir ~tag =
  let half = alpha /. 2. in
  let rec walk cover i =
    if i >= k then assert false;
    let t = tag i in
    let cover = ref cover and j = ref i in
    while !j < k && tag !j <= t do
      cover :=
        Geom.Arcset.add !cover { Geom.Arcset.start = dir !j -. half; len = alpha };
      incr j
    done;
    if Geom.Arcset.equal !cover full then !j else walk !cover !j
  in
  walk Geom.Arcset.empty 0

let shrink_neighbors ~alpha neighbors =
  match neighbors with
  | [] -> ([], None)
  | _ :: _ ->
      let full = Geom.Dirset.cover ~alpha (Neighbor.directions neighbors) in
      let by_tag = Array.of_list (List.sort Neighbor.compare_by_tag neighbors) in
      let j =
        cut_class ~alpha ~full (Array.length by_tag)
          ~dir:(fun i -> by_tag.(i).Neighbor.dir)
          ~tag:(fun i -> by_tag.(i).Neighbor.tag)
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
  let rec from i =
    i + 1 >= hi || ((not (after_by_tag s i (i + 1))) && from (i + 1))
  in
  from lo

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
  let alpha = s.config.Config.alpha in
  let n = Discovery.nb_nodes s in
  let cut = Array.make n 0 in
  let shrunk = ref 0 and dropped = ref 0 in
  for u = 0 to n - 1 do
    let lo = s.off.(u) and hi = s.off.(u + 1) in
    if not (in_tag_order s lo hi) then
      invalid_arg "Optimize.shrink_cut: a row out of (tag, link power, id) order";
    let j =
      if lo = hi then hi
      else
        let dirs = List.init (hi - lo) (fun r -> s.dirs.(lo + r)) in
        let full = Geom.Dirset.cover ~alpha dirs in
        lo
        + cut_class ~alpha ~full (hi - lo)
            ~dir:(fun i -> s.dirs.(lo + i))
            ~tag:(fun i -> s.tags.(lo + i))
    in
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
      && Geom.Angle.diff dir_v dirs.(!b) < Geom.Angle.pi_three -. angle_margin
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
  for u = 0 to n - 1 do
    for a = t.off.(u) to t.off.(u + 1) - 1 do
      dirs.(a) <-
        Geom.Vec2.direction ~from:positions.(u) ~toward:positions.(t.adj.(a))
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
