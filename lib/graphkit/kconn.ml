let survives_node_removal g ~removed =
  let n = Ugraph.nb_nodes g in
  let gone = Array.make n false in
  List.iter
    (fun u ->
      if u < 0 || u >= n then invalid_arg "Kconn: node out of range";
      gone.(u) <- true)
    removed;
  let start = ref (-1) in
  for u = n - 1 downto 0 do
    if not gone.(u) then start := u
  done;
  if !start < 0 then false
  else begin
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(!start) <- true;
    Queue.add !start queue;
    let visited = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Ugraph.iter_neighbors g u (fun v ->
          if (not gone.(v)) && not seen.(v) then begin
            seen.(v) <- true;
            incr visited;
            Queue.add v queue
          end)
    done;
    let alive = n - List.length (List.sort_uniq Int.compare removed) in
    !visited = alive
  end

let is_k_connected g ~k =
  if k < 1 || k > 3 then invalid_arg "Kconn.is_k_connected: k must be 1..3";
  let n = Ugraph.nb_nodes g in
  if n <= k then false
  else
    match k with
    | 1 -> Traversal.is_connected g
    | 2 -> Biconnect.is_biconnected g
    | _ ->
        (* k = 3: no single pair of removals may disconnect it (and it
           must already be biconnected). *)
        Biconnect.is_biconnected g
        &&
        let ok = ref true in
        for a = 0 to n - 1 do
          if !ok then
            for b = a + 1 to n - 1 do
              if !ok && not (survives_node_removal g ~removed:[ a; b ]) then
                ok := false
            done
        done;
        !ok
