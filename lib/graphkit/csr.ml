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

let of_ugraph g =
  let n = Ugraph.nb_nodes g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Ugraph.degree g u
  done;
  let adj = Array.make off.(n) 0 in
  for u = 0 to n - 1 do
    let i = ref off.(u) in
    Ugraph.iter_neighbors g u (fun v ->
        adj.(!i) <- v;
        incr i)
  done;
  (* iter_neighbors enumerates increasing, so rows are already sorted *)
  { off; adj; nb_edges = Ugraph.nb_edges g }
