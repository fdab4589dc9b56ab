type t = { parent : int array; rank : int array; mutable nb_sets : int }

let create n =
  if n < 0 then invalid_arg "Unionfind.create: negative size";
  { parent = Array.init n Fun.id; rank = Array.make n 0; nb_sets = n }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then false
  else begin
    t.nb_sets <- t.nb_sets - 1;
    if t.rank.(rx) < t.rank.(ry) then t.parent.(rx) <- ry
    else if t.rank.(rx) > t.rank.(ry) then t.parent.(ry) <- rx
    else begin
      t.parent.(ry) <- rx;
      t.rank.(rx) <- t.rank.(rx) + 1
    end;
    true
  end

let same t x y = find t x = find t y

let nb_sets t = t.nb_sets

(* One pass in increasing id: the first member seen of each set is its
   smallest, so it names the next fresh id — [Traversal.components]'
   numbering, which makes equal partitions literally equal arrays.
   [ids] is indexed by root, so the pass allocates nothing per set. *)
let labels t =
  let n = Array.length t.parent in
  let ids = Array.make n (-1) in
  let label = Array.make n 0 in
  let next = ref 0 in
  for x = 0 to n - 1 do
    let r = find t x in
    if ids.(r) < 0 then begin
      ids.(r) <- !next;
      incr next
    end;
    label.(x) <- ids.(r)
  done;
  label
