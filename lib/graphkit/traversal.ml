(* BFS straight over the graph's sorted rows, with the queue in one
   int array: every node enters it at most once. *)

let components g =
  let n = Ugraph.nb_nodes g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next = ref 0 in
  for src = 0 to n - 1 do
    if label.(src) < 0 then begin
      let id = !next in
      incr next;
      label.(src) <- id;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        Ugraph.iter_neighbors g u (fun v ->
            if label.(v) < 0 then begin
              label.(v) <- id;
              queue.(!tail) <- v;
              incr tail
            end)
      done
    end
  done;
  label

let nb_components g =
  let label = components g in
  Array.fold_left Stdlib.max (-1) label + 1

let is_connected g = Ugraph.nb_nodes g <= 1 || nb_components g = 1

let same_component g u v =
  let label = components g in
  label.(u) = label.(v)

let same_partition a b =
  Ugraph.nb_nodes a = Ugraph.nb_nodes b
  &&
  let la = components a and lb = components b in
  (* Same partition iff the labelings are equal up to renaming; since both
     assign ids in order of smallest member, equality is literal. *)
  la = lb

let hop_distances g src =
  let n = Ugraph.nb_nodes g in
  if src < 0 || src >= n then invalid_arg "Traversal.hop_distances";
  let dist = Array.make n Stdlib.max_int in
  dist.(src) <- 0;
  let queue = Array.make n src in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Ugraph.iter_neighbors g u (fun v ->
        if dist.(v) = Stdlib.max_int then begin
          dist.(v) <- dist.(u) + 1;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  dist
