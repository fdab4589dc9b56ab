type t = {
  off : int array;  (* length n + 1 *)
  adj : int array;  (* row u = adj.(off.(u) .. off.(u+1)-1), sorted increasing *)
  nb_edges : int;
}

let nb_nodes t = Array.length t.off - 1

let nb_edges t = t.nb_edges

let check t u =
  if u < 0 || u >= nb_nodes t then invalid_arg "Csr: node out of range"

let degree t u =
  check t u;
  t.off.(u + 1) - t.off.(u)

let iter_neighbors t u f =
  check t u;
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f (Array.unsafe_get t.adj i)
  done

let fold_neighbors t u ~init ~f =
  check t u;
  let acc = ref init in
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    acc := f !acc (Array.unsafe_get t.adj i)
  done;
  !acc

let neighbors t u = List.rev (fold_neighbors t u ~init:[] ~f:(fun l v -> v :: l))

let mem_edge t u v =
  check t u;
  check t v;
  (* binary search in u's sorted row *)
  let lo = ref t.off.(u) and hi = ref (t.off.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.adj.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Shared two-pass build: [count] bumps per-node degrees, [fill] writes
   ids through a cursor array.  Both undirected edges and adjacency-set
   graphs funnel through this. *)
let build n ~count ~fill =
  if n < 0 then invalid_arg "Csr: negative size";
  let off = Array.make (n + 1) 0 in
  count (fun u -> off.(u + 1) <- off.(u + 1) + 1);
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let cur = Array.sub off 0 n in
  let adj = Array.make off.(n) 0 in
  fill (fun u v ->
      adj.(cur.(u)) <- v;
      cur.(u) <- cur.(u) + 1);
  (off, adj)

let sort_rows off adj =
  let n = Array.length off - 1 in
  for u = 0 to n - 1 do
    let lo = off.(u) and hi = off.(u + 1) in
    if hi - lo > 1 then begin
      let row = Array.sub adj lo (hi - lo) in
      Array.sort Int.compare row;
      Array.blit row 0 adj lo (hi - lo)
    end
  done

let of_edges n edges =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Csr.of_edges: node out of range";
      if u = v then invalid_arg "Csr.of_edges: self-loop")
    edges;
  let off, adj =
    build n
      ~count:(fun bump -> List.iter (fun (u, v) -> bump u; bump v) edges)
      ~fill:(fun put -> List.iter (fun (u, v) -> put u v; put v u) edges)
  in
  sort_rows off adj;
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 2 do
      if adj.(i) = adj.(i + 1) then invalid_arg "Csr.of_edges: duplicate edge"
    done
  done;
  { off; adj; nb_edges = List.length edges }

let of_ugraph g =
  let n = Ugraph.nb_nodes g in
  let off, adj =
    build n
      ~count:(fun bump ->
        for u = 0 to n - 1 do
          for _ = 1 to Ugraph.degree g u do
            bump u
          done
        done)
      ~fill:(fun put ->
        for u = 0 to n - 1 do
          Ugraph.iter_neighbors g u (fun v -> put u v)
        done)
  in
  (* iter_neighbors enumerates increasing, so rows are already sorted *)
  { off; adj; nb_edges = Ugraph.nb_edges g }

let of_digraph g =
  let n = Digraph.nb_nodes g in
  let off, adj =
    build n
      ~count:(fun bump ->
        for u = 0 to n - 1 do
          for _ = 1 to Digraph.out_degree g u do
            bump u
          done
        done)
      ~fill:(fun put ->
        for u = 0 to n - 1 do
          Digraph.iter_succ g u (fun v -> put u v)
        done)
  in
  { off; adj; nb_edges = Digraph.nb_edges g }
