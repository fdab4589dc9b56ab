let dijkstra_tree g ~cost ~src =
  let n = Ugraph.nb_nodes g in
  if src < 0 || src >= n then invalid_arg "Shortest.dijkstra: src out of range";
  let dist = Array.make n Float.infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Fheap.create () in
  dist.(src) <- 0.;
  Fheap.push heap 0. src;
  while not (Fheap.is_empty heap) do
    let d, u = Fheap.pop_min heap in
    if not settled.(u) && d <= dist.(u) then begin
      settled.(u) <- true;
      Ugraph.iter_neighbors g u (fun v ->
          if not settled.(v) then begin
            let c = cost u v in
            if c < 0. then invalid_arg "Shortest.dijkstra: negative cost";
            let nd = dist.(u) +. c in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              prev.(v) <- u;
              Fheap.push heap nd v
            end
          end)
    end
  done;
  (dist, prev)

let dijkstra g ~cost ~src = fst (dijkstra_tree g ~cost ~src)

let path_to ~prev ~src dst =
  if dst = src then Some [ dst ]
  else if prev.(dst) < 0 then None
  else begin
    let rec build acc u =
      if u = src then Some (src :: acc)
      else if prev.(u) < 0 then None
      else build (u :: acc) prev.(u)
    in
    build [] dst
  end
