let alpha_for ~k =
  if k < 1 then invalid_arg "Fault_tolerant.alpha_for: k < 1";
  2. *. Float.pi /. (3. *. Stdlib.float_of_int k)

let config ?growth ~k () = Config.make ?growth (alpha_for ~k)

let run ~k pathloss positions =
  Discovery.closure (Geo.run_flat (config ~k ()) pathloss positions)

let check ~k pathloss positions =
  let gr = Geo.max_power_graph pathloss positions in
  let topo = run ~k pathloss positions in
  ( Graphkit.Kconn.is_k_connected gr ~k,
    Graphkit.Kconn.is_k_connected topo ~k )
