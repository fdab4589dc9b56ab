type t = { pathloss : Pathloss.t; tx_overhead : float; rx_overhead : float }

let make ?(tx_overhead = 0.) ?(rx_overhead = 0.) pathloss =
  if tx_overhead < 0. || rx_overhead < 0. then
    invalid_arg "Energy.make: negative overhead";
  { pathloss; tx_overhead; rx_overhead }

let link_cost t d =
  Pathloss.power_for_distance t.pathloss d +. t.tx_overhead +. t.rx_overhead
