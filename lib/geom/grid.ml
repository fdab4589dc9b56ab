(* CSR cell storage with in-place mobility: node ids live in one flat
   [ids] array, grouped by cell; [start] gives each cell's slot range
   inside a dense rectangular window of cells.  Queries walk int-array
   segments instead of chasing hash-table buckets and list cells.

   Unlike a classic packed CSR, every occupied cell keeps a little
   spare capacity ([1 + len/4] slots of slack, assigned at rebuild
   time), so mobility is maintained {e in place}: removing a node
   swap-pops it from its cell's live prefix (O(1)) and inserting one
   appends into the cell's slack — and when a cell's slack is
   exhausted, one free slot is stolen from the nearest cell with spare
   capacity by sliding the segment boundaries between them ([make_room],
   one element moved per intermediate cell).  A full counting-pass
   rebuild only happens when slack cannot be found within
   [shift_limit] cells or too many nodes have left the dense window
   entirely — rare and amortized, where the previous design parked
   every drifted node in a hash-table side car until a whole-index
   compaction. *)

type t = {
  cell : float;
  positions : Vec2.t array;
  keys : (int * int) array;  (* current cell of each node *)
  (* dense window of cells covered by the CSR arrays *)
  mutable x0 : int;
  mutable y0 : int;
  mutable nx : int;
  mutable ny : int;
  mutable start : int array;
    (* length nx*ny + 1: cell c owns slots [start.(c), start.(c+1)) *)
  mutable len : int array;  (* live prefix length of each cell's range *)
  mutable ids : int array;  (* flat node ids plus per-cell slack slots *)
  mutable slot : int array;  (* node -> its index in ids, -1 when in overflow *)
  (* nodes whose cell lies outside the dense window *)
  overflow : (int * int, int list ref) Hashtbl.t;
  mutable n_overflow : int;
  mutable n_drifted : int;  (* cell-changing moves since the last rebuild *)
  mutable rebuild_at : int;  (* overflow population that forces a rebuild *)
  mutable n_compactions : int;  (* move-triggered rebuilds since create *)
}

let default_brute_cutoff = 200

(* Pad probe squares so that candidates sitting within the exact
   predicates' float tolerances (relative 1e-9 on powers in the radio
   model, plus ulp-level rounding of the power<->distance round trip)
   can never fall just outside the probed cells. *)
let probe_slack = 1e-9

let[@inline] padded dist = (dist *. (1. +. probe_slack)) +. probe_slack

(* How far [make_room] scans for a cell with spare capacity before
   giving up and letting the insert fall through to the overflow table.
   Bounds the worst-case cost of a single in-place insert. *)
let shift_limit = 128

let cell_key cell (p : Vec2.t) =
  ( int_of_float (Float.floor (p.x /. cell)),
    int_of_float (Float.floor (p.y /. cell)) )

let nb_nodes t = Array.length t.positions

let cell_size t = t.cell

let cell_index t kx ky = ((kx - t.x0) * t.ny) + (ky - t.y0)

let in_window t kx ky =
  kx >= t.x0 && kx - t.x0 < t.nx && ky >= t.y0 && ky - t.y0 < t.ny

let attach_overflow t u key =
  (match Hashtbl.find_opt t.overflow key with
  | Some l -> l := u :: !l
  | None -> Hashtbl.add t.overflow key (ref [ u ]));
  t.n_overflow <- t.n_overflow + 1

(* Rebuild the CSR arrays from the current keys in two counting passes,
   assigning fresh slack to every occupied cell.  The dense window is
   padded by one cell on each side (boundary jitter stays an in-place
   edit) and capped (pathological coordinate spreads would need more
   cells than nodes by orders of magnitude); past the cap all nodes
   live in the overflow table, which degrades to the plain hash-bucket
   behaviour with identical results. *)
let rebuild t =
  let n = nb_nodes t in
  Hashtbl.reset t.overflow;
  t.n_overflow <- 0;
  t.n_drifted <- 0;
  let dense_ok =
    n > 0
    && begin
         let minx = ref max_int and maxx = ref min_int in
         let miny = ref max_int and maxy = ref min_int in
         for u = 0 to n - 1 do
           let kx, ky = t.keys.(u) in
           if kx < !minx then minx := kx;
           if kx > !maxx then maxx := kx;
           if ky < !miny then miny := ky;
           if ky > !maxy then maxy := ky
         done;
         (* window size in float: the int product can overflow *)
         let w = float_of_int !maxx -. float_of_int !minx +. 3. in
         let h = float_of_int !maxy -. float_of_int !miny +. 3. in
         if w *. h > float_of_int (Stdlib.max 4096 (8 * n)) then false
         else begin
           let nx = !maxx - !minx + 3 and ny = !maxy - !miny + 3 in
           t.x0 <- !minx - 1;
           t.y0 <- !miny - 1;
           t.nx <- nx;
           t.ny <- ny;
           let ncells = nx * ny in
           let cnt = Array.make ncells 0 in
           for u = 0 to n - 1 do
             let kx, ky = t.keys.(u) in
             let c = cell_index t kx ky in
             cnt.(c) <- cnt.(c) + 1
           done;
           let start = Array.make (ncells + 1) 0 in
           for c = 0 to ncells - 1 do
             (* slack only for occupied cells: empty cells cost nothing
                and steal room from a neighbor if a node drifts in *)
             let pad = if cnt.(c) = 0 then 0 else 1 + (cnt.(c) / 4) in
             start.(c + 1) <- start.(c) + cnt.(c) + pad
           done;
           let ids = Array.make start.(ncells) (-1) in
           let fill = Array.make ncells 0 in
           for u = 0 to n - 1 do
             let kx, ky = t.keys.(u) in
             let c = cell_index t kx ky in
             let s = start.(c) + fill.(c) in
             fill.(c) <- fill.(c) + 1;
             ids.(s) <- u;
             t.slot.(u) <- s
           done;
           t.start <- start;
           t.len <- cnt;
           t.ids <- ids;
           true
         end
       end
  in
  if not dense_ok then begin
    t.x0 <- 0;
    t.y0 <- 0;
    t.nx <- 0;
    t.ny <- 0;
    t.start <- [| 0 |];
    t.len <- [||];
    t.ids <- [||];
    for u = 0 to n - 1 do
      t.slot.(u) <- -1;
      attach_overflow t u t.keys.(u)
    done
  end;
  t.rebuild_at <- t.n_overflow + Stdlib.max 64 (n / 8)

let create ~range positions =
  if not (Float.is_finite range) || range <= 0. then
    invalid_arg "Grid.create: cell range must be positive and finite";
  let n = Array.length positions in
  let t =
    {
      cell = range;
      positions = Array.copy positions;
      keys = Array.init n (fun u -> cell_key range positions.(u));
      x0 = 0;
      y0 = 0;
      nx = 0;
      ny = 0;
      start = [| 0 |];
      len = [||];
      ids = [||];
      slot = Array.make n (-1);
      overflow = Hashtbl.create 16;
      n_overflow = 0;
      n_drifted = 0;
      rebuild_at = 0;
      n_compactions = 0;
    }
  in
  rebuild t;
  t

(* Sorted descending so the result depends only on the multiset of
   bucket sizes, not on any iteration order.  Window cells read their
   live prefix length; overflow cells (disjoint from the window by
   construction) count their bucket. *)
let occupancy t =
  let acc = ref [] in
  for c = 0 to (t.nx * t.ny) - 1 do
    if t.len.(c) > 0 then acc := t.len.(c) :: !acc
  done;
  Hashtbl.iter (fun _ l -> acc := List.length !l :: !acc) t.overflow;
  List.sort (fun a b -> Int.compare b a) !acc

let check t u =
  if u < 0 || u >= nb_nodes t then invalid_arg "Grid: node out of range"

let position t u =
  check t u;
  t.positions.(u)

(* Unhook [u] from its current bucket: swap-pop from its cell's live
   prefix (O(1)), or unlink from the overflow table. *)
let detach t u =
  let s = t.slot.(u) in
  if s >= 0 then begin
    let kx, ky = t.keys.(u) in
    let c = cell_index t kx ky in
    let last = t.start.(c) + t.len.(c) - 1 in
    let w = t.ids.(last) in
    t.ids.(s) <- w;
    t.slot.(w) <- s;
    t.ids.(last) <- -1;
    t.len.(c) <- t.len.(c) - 1;
    t.slot.(u) <- -1
  end
  else begin
    match Hashtbl.find_opt t.overflow t.keys.(u) with
    | None -> ()
    | Some l ->
        l := List.filter (fun v -> v <> u) !l;
        if !l = [] then Hashtbl.remove t.overflow t.keys.(u);
        t.n_overflow <- t.n_overflow - 1
  end

(* Steal one free slot for cell [c]: scan outward (alternating sides)
   for the nearest cell with spare capacity, then slide the segment
   boundaries between it and [c] one slot toward [c].  Every cell
   strictly between the donor and [c] is full (the scan would have
   picked it otherwise), and a full segment "shifts" by moving a single
   element from one end to the freshly vacated slot at the other —
   cell-internal order carries no meaning — so the cost is the scan
   distance, not the occupancy.  Returns false when no donor exists
   within [shift_limit] cells. *)
let make_room t c =
  let ncells = t.nx * t.ny in
  let free e = t.len.(e) < t.start.(e + 1) - t.start.(e) in
  let rec find d =
    if d > shift_limit then -1
    else begin
      let r = c + d and l = c - d in
      if r < ncells && free r then r
      else if l >= 0 && free l then l
      else if r >= ncells && l < 0 then -1
      else find (d + 1)
    end
  in
  let d = find 1 in
  if d < 0 then false
  else begin
    if d > c then
      (* donor on the right: segments (c, d] shift right by one.  At
         each step the destination slot was vacated by the previous
         iteration (or is the donor's own slack). *)
      for e = d downto c + 1 do
        (if t.len.(e) > 0 then begin
           let src = t.start.(e) in
           let dst = t.start.(e) + t.len.(e) in
           let w = t.ids.(src) in
           t.ids.(dst) <- w;
           t.slot.(w) <- dst
         end);
        t.start.(e) <- t.start.(e) + 1
      done
    else
      (* donor on the left: segments (d, c] shift left by one *)
      for e = d + 1 to c do
        (if t.len.(e) > 0 then begin
           let src = t.start.(e) + t.len.(e) - 1 in
           let dst = t.start.(e) - 1 in
           let w = t.ids.(src) in
           t.ids.(dst) <- w;
           t.slot.(w) <- dst
         end);
        t.start.(e) <- t.start.(e) - 1
      done;
    true
  end

(* Append [u] to cell [(kx, ky)]'s live prefix.  False when the key is
   outside the dense window or no slack is reachable. *)
let insert t u kx ky =
  in_window t kx ky
  && begin
       let c = cell_index t kx ky in
       (t.len.(c) < t.start.(c + 1) - t.start.(c) || make_room t c)
       && begin
            let s = t.start.(c) + t.len.(c) in
            t.ids.(s) <- u;
            t.slot.(u) <- s;
            t.len.(c) <- t.len.(c) + 1;
            true
          end
     end

let move t u p =
  check t u;
  t.positions.(u) <- p;
  let (kx, ky) as key = cell_key t.cell p in
  if key <> t.keys.(u) then begin
    t.n_drifted <- t.n_drifted + 1;
    detach t u;
    t.keys.(u) <- key;
    if not (insert t u kx ky) then begin
      attach_overflow t u key;
      if t.n_overflow > t.rebuild_at then begin
        t.n_compactions <- t.n_compactions + 1;
        rebuild t
      end
    end
  end

type health = { drifted : int; overflow : int; compactions : int }

let health t =
  {
    drifted = t.n_drifted;
    overflow = t.n_overflow;
    compactions = t.n_compactions;
  }

(* The cell index of the padded probe square's low and high edge along
   coordinate [x]: [@inline], so a query passes no float to a call and
   builds no bounds tuple. *)
let[@inline] probe_lo t x dist =
  let r = padded dist in
  int_of_float (Float.floor ((x -. r) /. t.cell))

let[@inline] probe_hi t x dist =
  let r = padded dist in
  int_of_float (Float.floor ((x +. r) /. t.cell))

let fold_in_range t (p : Vec2.t) ~dist ~init ~f =
  if dist < 0. then init
  else begin
    let cx0 = probe_lo t p.x dist and cx1 = probe_hi t p.x dist in
    let cy0 = probe_lo t p.y dist and cy1 = probe_hi t p.y dist in
    let acc = ref init in
    let ny = t.ny in
    let has_overflow = t.n_overflow > 0 in
    for cx = cx0 to cx1 do
      let dx = cx - t.x0 in
      let in_x = dx >= 0 && dx < t.nx in
      for cy = cy0 to cy1 do
        (if in_x then begin
           let dy = cy - t.y0 in
           if dy >= 0 && dy < ny then begin
             let c = (dx * ny) + dy in
             let s = t.start.(c) in
             for i = s to s + t.len.(c) - 1 do
               acc := f !acc (Array.unsafe_get t.ids i)
             done
           end
         end);
        if has_overflow then
          match Hashtbl.find_opt t.overflow (cx, cy) with
          | Some l -> List.iter (fun u -> acc := f !acc u) !l
          | None -> ()
      done
    done;
    !acc
  end

(* Not the [fold_in_range] wrapper: this is the innermost loop of every
   grid-backed construction, so it calls [f] directly instead of paying
   a second closure indirection per enumerated id. *)
let iter_in_range t (p : Vec2.t) ~dist f =
  if dist >= 0. then begin
    let cx0 = probe_lo t p.x dist and cx1 = probe_hi t p.x dist in
    let cy0 = probe_lo t p.y dist and cy1 = probe_hi t p.y dist in
    let ny = t.ny in
    let has_overflow = t.n_overflow > 0 in
    for cx = cx0 to cx1 do
      let dx = cx - t.x0 in
      let in_x = dx >= 0 && dx < t.nx in
      for cy = cy0 to cy1 do
        (if in_x then begin
           let dy = cy - t.y0 in
           if dy >= 0 && dy < ny then begin
             let c = (dx * ny) + dy in
             let s = t.start.(c) in
             for i = s to s + t.len.(c) - 1 do
               f (Array.unsafe_get t.ids i)
             done
           end
         end);
        if has_overflow then
          match Hashtbl.find_opt t.overflow (cx, cy) with
          | Some l -> List.iter f !l
          | None -> ()
      done
    done
  end

exception Found

let exists_in_range t p ~dist f =
  match iter_in_range t p ~dist (fun u -> if f u then raise_notrace Found) with
  | () -> false
  | exception Found -> true

let fold_neighbors_within t u ~dist ~init ~f =
  check t u;
  let pu = t.positions.(u) in
  fold_in_range t pu ~dist ~init ~f:(fun acc v ->
      if v <> u && Vec2.dist pu t.positions.(v) <= dist then f acc v else acc)

let neighbors_within t u ~dist =
  List.sort Int.compare
    (fold_neighbors_within t u ~dist ~init:[] ~f:(fun acc v -> v :: acc))
