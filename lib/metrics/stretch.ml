type t = { max_stretch : float; avg_stretch : float; pairs : int }

let of_costs ~reference_costs ~costs n =
  let max_stretch = ref 0. in
  let sum = ref 0. in
  let pairs = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let ref_cost = reference_costs u v in
      if Float.is_finite ref_cost && ref_cost > 0. then begin
        incr pairs;
        let s = costs u v /. ref_cost in
        if s > !max_stretch then max_stretch := s;
        sum := !sum +. s
      end
    done
  done;
  {
    max_stretch = !max_stretch;
    avg_stretch = (if !pairs = 0 then 0. else !sum /. Stdlib.float_of_int !pairs);
    pairs = !pairs;
  }

let all_pairs_dijkstra g ~cost =
  let n = Graphkit.Ugraph.nb_nodes g in
  Array.init n (fun src -> Graphkit.Shortest.dijkstra g ~cost ~src)

let weighted_stretch ~cost positions ~reference g =
  ignore positions;
  if Graphkit.Ugraph.nb_nodes reference <> Graphkit.Ugraph.nb_nodes g then
    invalid_arg "Stretch: node count mismatch";
  let n = Graphkit.Ugraph.nb_nodes g in
  let dr = all_pairs_dijkstra reference ~cost in
  let dg = all_pairs_dijkstra g ~cost in
  of_costs ~reference_costs:(fun u v -> dr.(u).(v)) ~costs:(fun u v -> dg.(u).(v)) n

let power_stretch energy positions ~reference g =
  let cost u v =
    Radio.Energy.link_cost energy (Geom.Vec2.dist positions.(u) positions.(v))
  in
  weighted_stretch ~cost positions ~reference g

let hop_stretch ~reference g =
  if Graphkit.Ugraph.nb_nodes reference <> Graphkit.Ugraph.nb_nodes g then
    invalid_arg "Stretch: node count mismatch";
  let n = Graphkit.Ugraph.nb_nodes g in
  let dist_of graph =
    Array.init n (fun src -> Graphkit.Traversal.hop_distances graph src)
  in
  let dr = dist_of reference and dg = dist_of g in
  let to_float d = if d = Stdlib.max_int then Float.infinity else Stdlib.float_of_int d in
  of_costs
    ~reference_costs:(fun u v -> to_float dr.(u).(v))
    ~costs:(fun u v -> to_float dg.(u).(v))
    n
