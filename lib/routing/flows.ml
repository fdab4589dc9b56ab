type policy = Min_hop | Min_energy of Radio.Energy.t

type load = {
  flows_routed : int;
  flows_failed : int;
  max_node_load : int;
  avg_node_load : float;
  max_link_load : int;
  total_hops : int;
}

let bfs_path g ~src ~dst =
  let n = Graphkit.Ugraph.nb_nodes g in
  let prev = Array.make n (-2) in
  prev.(src) <- -1;
  let queue = Queue.create () in
  Queue.add src queue;
  let found = ref (src = dst) in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graphkit.Ugraph.iter_neighbors g u (fun v ->
        if prev.(v) = -2 then begin
          prev.(v) <- u;
          if v = dst then found := true else Queue.add v queue
        end)
  done;
  if not !found then None
  else begin
    let rec build acc u = if u = src then src :: acc else build (u :: acc) prev.(u) in
    Some (build [] dst)
  end

let path_of policy positions g ~src ~dst =
  match policy with
  | Min_hop -> bfs_path g ~src ~dst
  | Min_energy energy ->
      Option.map fst (Minpower.route energy positions g ~src ~dst)

let measure ?(policy = Min_hop) positions g ~pairs =
  let n = Graphkit.Ugraph.nb_nodes g in
  let node_load = Array.make n 0 in
  let link_load = Hashtbl.create 64 in
  let routed = ref 0 and failed = ref 0 and total_hops = ref 0 in
  List.iter
    (fun (src, dst) ->
      match path_of policy positions g ~src ~dst with
      | None -> incr failed
      | Some path ->
          incr routed;
          total_hops := !total_hops + List.length path - 1;
          List.iter (fun u -> node_load.(u) <- node_load.(u) + 1) path;
          let rec links = function
            | a :: (b :: _ as rest) ->
                let key = (Stdlib.min a b, Stdlib.max a b) in
                Hashtbl.replace link_load key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt link_load key));
                links rest
            | [ _ ] | [] -> ()
          in
          links path)
    pairs;
  let max_link_load = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) link_load 0 in
  {
    flows_routed = !routed;
    flows_failed = !failed;
    max_node_load = Array.fold_left Stdlib.max 0 node_load;
    avg_node_load =
      (if n = 0 then 0.
       else
         Stdlib.float_of_int (Array.fold_left ( + ) 0 node_load)
         /. Stdlib.float_of_int n);
    max_link_load;
    total_hops = !total_hops;
  }
