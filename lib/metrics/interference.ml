type t = { avg_coverage : float; max_coverage : int; total_coverage : int }

(* Count, for each transmitter, the nodes inside its transmission disk.
   A spatial grid sized to the largest radius turns the all-pairs scan
   into per-node local probes; the exact disk test below is unchanged,
   so grid, brute and pooled paths count identical sets.  Per-node
   counts land in disjoint slots of [covered]; the totals are folded
   sequentially in index order afterwards, so the result is the same
   for any pool size. *)
let coverage ?pool positions ~radius =
  let n = Array.length positions in
  if Array.length radius <> n then
    invalid_arg "Interference.coverage: length mismatch";
  let max_radius = Array.fold_left Float.max 0. radius in
  let covered = Array.make n 0 in
  let in_disk u v =
    v <> u && Geom.Vec2.dist positions.(u) positions.(v) <= radius.(u)
  in
  if n > 0 && max_radius > 0. then begin
    let inline = match pool with None -> true | Some _ -> false in
    let body =
      (* the brute body writes the disk test out instead of calling
         [in_disk]: below the cutoff the whole routine is ~100 us and a
         per-pair closure call is measurable overhead *)
      if n < Geom.Grid.default_brute_cutoff && inline then fun lo hi ->
        for u = lo to hi - 1 do
          let r = radius.(u) in
          if r > 0. then begin
            let pu = positions.(u) in
            let c = ref 0 in
            for v = 0 to n - 1 do
              if v <> u && Geom.Vec2.dist pu positions.(v) <= r then incr c
            done;
            covered.(u) <- !c
          end
        done
      else begin
        let grid = Geom.Grid.create ~range:max_radius positions in
        fun lo hi ->
          for u = lo to hi - 1 do
            if radius.(u) > 0. then
              covered.(u) <-
                Geom.Grid.fold_in_range grid positions.(u) ~dist:radius.(u)
                  ~init:0
                  ~f:(fun c v -> if in_disk u v then c + 1 else c)
          done
      end
    in
    match pool with
    | Some pool -> Parallel.Pool.iter_chunks pool n body
    | None -> body 0 n
  end;
  let max_coverage = Array.fold_left Stdlib.max 0 covered in
  let total = Array.fold_left ( + ) 0 covered in
  {
    avg_coverage =
      (if n = 0 then 0. else Stdlib.float_of_int total /. Stdlib.float_of_int n);
    max_coverage;
    total_coverage = total;
  }
