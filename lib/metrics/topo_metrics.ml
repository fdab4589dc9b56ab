let degrees g =
  Array.init (Graphkit.Ugraph.nb_nodes g) (fun u ->
      Stdlib.float_of_int (Graphkit.Ugraph.degree g u))

let avg_degree g =
  let n = Graphkit.Ugraph.nb_nodes g in
  if n = 0 then 0.
  else
    2.
    *. Stdlib.float_of_int (Graphkit.Ugraph.nb_edges g)
    /. Stdlib.float_of_int n

let avg_radius radius =
  let n = Array.length radius in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. radius /. Stdlib.float_of_int n

let avg_power pathloss radius =
  let n = Array.length radius in
  if n = 0 then 0.
  else
    Array.fold_left
      (fun acc r ->
        acc +. if r = 0. then 0. else Radio.Pathloss.power_for_distance pathloss r)
      0. radius
    /. Stdlib.float_of_int n

let degree_summary g = Stats.Summary.of_array (degrees g)
