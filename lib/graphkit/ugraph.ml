(* Each node's neighbours are one sorted [int array].  A row is never
   written after it is stored: [add_edge] and [remove_edge] replace it
   with a fresh copy, so [copy] may share every row with its original. *)
type t = { adj : int array array; mutable nb_edges : int }

let create n =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  { adj = Array.make n [||]; nb_edges = 0 }

let nb_nodes g = Array.length g.adj

let nb_edges g = g.nb_edges

let check g u =
  if u < 0 || u >= nb_nodes g then invalid_arg "Ugraph: node out of range"

(* The first index of [row] holding a value [>= v]. *)
let search row v =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if row.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let row_mem row v =
  let i = search row v in
  i < Array.length row && row.(i) = v

let mem_edge g u v =
  check g u;
  check g v;
  row_mem g.adj.(u) v

let insert g u v =
  let row = g.adj.(u) in
  let i = search row v and len = Array.length row in
  let r = Array.make (len + 1) v in
  Array.blit row 0 r 0 i;
  Array.blit row i r (i + 1) (len - i);
  g.adj.(u) <- r

let delete g u v =
  let row = g.adj.(u) in
  let i = search row v and len = Array.length row in
  let r = Array.sub row 0 (len - 1) in
  Array.blit row (i + 1) r i (len - 1 - i);
  g.adj.(u) <- r

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  if not (row_mem g.adj.(u) v) then begin
    insert g u v;
    insert g v u;
    g.nb_edges <- g.nb_edges + 1
  end

let remove_edge g u v =
  check g u;
  check g v;
  if row_mem g.adj.(u) v then begin
    delete g u v;
    delete g v u;
    g.nb_edges <- g.nb_edges - 1
  end

let neighbors g u =
  check g u;
  Array.to_list g.adj.(u)

let iter_neighbors g u f =
  check g u;
  Array.iter f g.adj.(u)

let fold_neighbors g u ~init ~f =
  check g u;
  Array.fold_left f init g.adj.(u)

let degree g u =
  check g u;
  Array.length g.adj.(u)

let iter_edges f g =
  Array.iteri (fun u row -> Array.iter (fun v -> if u < v then f u v) row) g.adj

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

(* Two passes over [edges]: count each node's entries (both ends of
   every pair), then write them into one flat array [a], row by row in
   arrival order.  Reading [a]'s rows in increasing id [y] and appending
   [y] to the row of every [x] that row lists transposes the symmetric
   relation onto itself, so each row comes out sorted with its repeats
   adjacent; repeats are then squeezed out in place. *)
let build n edges =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  let range u = if u < 0 || u >= n then invalid_arg "Ugraph: node out of range" in
  let off = Array.make (n + 1) 0 in
  edges (fun u v ->
      range u;
      range v;
      if u = v then invalid_arg "Ugraph.add_edge: self-loop";
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let a = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  let push u v =
    if fill.(u) = off.(u + 1) then
      invalid_arg "Ugraph.build: the second pass passed other edges";
    a.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1
  in
  edges (fun u v ->
      push u v;
      push v u);
  if fill <> Array.sub off 1 n then
    invalid_arg "Ugraph.build: the second pass passed other edges";
  let adj = Array.init n (fun x -> Array.make (off.(x + 1) - off.(x)) 0) in
  Array.fill fill 0 n 0;
  for y = 0 to n - 1 do
    for i = off.(y) to off.(y + 1) - 1 do
      let x = a.(i) in
      adj.(x).(fill.(x)) <- y;
      fill.(x) <- fill.(x) + 1
    done
  done;
  let ends = ref 0 in
  for x = 0 to n - 1 do
    let row = adj.(x) in
    let w = ref 0 in
    for i = 0 to Array.length row - 1 do
      if i = 0 || row.(i) <> row.(i - 1) then begin
        row.(!w) <- row.(i);
        incr w
      end
    done;
    if !w < Array.length row then adj.(x) <- Array.sub row 0 !w;
    ends := !ends + !w
  done;
  { adj; nb_edges = !ends / 2 }

let of_edges n edge_list = build n (fun add -> List.iter (fun (u, v) -> add u v) edge_list)

let copy g = { adj = Array.copy g.adj; nb_edges = g.nb_edges }

let is_subgraph a b =
  nb_nodes a = nb_nodes b
  &&
  let ok = ref true in
  iter_edges (fun u v -> if not (mem_edge b u v) then ok := false) a;
  !ok

let equal a b = is_subgraph a b && is_subgraph b a
