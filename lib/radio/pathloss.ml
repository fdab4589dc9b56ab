type t = {
  exponent : float;
  coeff : float;
  max_range : float;
  max_power : float;
}

let reference_distance = 1.0

let make ?(exponent = 2.) ?(coeff = 1.) ~max_range () =
  if exponent < 1. then invalid_arg "Pathloss.make: exponent < 1";
  if coeff <= 0. then invalid_arg "Pathloss.make: non-positive coeff";
  if max_range <= 0. then invalid_arg "Pathloss.make: non-positive range";
  { exponent; coeff; max_range; max_power = coeff *. (max_range ** exponent) }

let exponent t = t.exponent

let coeff t = t.coeff

let max_range t = t.max_range

let max_power t = t.max_power

let power_for_distance t d =
  if d < 0. then invalid_arg "Pathloss.power_for_distance: negative distance";
  t.coeff *. (d ** t.exponent)

let distance_for_power t p =
  if p < 0. then invalid_arg "Pathloss.distance_for_power: negative power";
  (p /. t.coeff) ** (1. /. t.exponent)

let power_eps = 1e-9

let reach_cap ~power = (power *. (1. +. power_eps)) +. power_eps

let reaches t ~power ~dist = power_for_distance t dist <= reach_cap ~power

let in_range t ~dist = reaches t ~power:t.max_power ~dist

let reach_distance t ~power =
  if power < 0. then invalid_arg "Pathloss.reach_distance: negative power";
  distance_for_power t ((power *. (1. +. power_eps)) +. power_eps)

let rx_power t ~tx_power ~dist =
  if tx_power < 0. then invalid_arg "Pathloss.rx_power: negative power";
  tx_power /. (Float.max dist reference_distance ** t.exponent)

(* Below the reference distance the rx-power clamp erases distance
   information (rx = tx for every d < d0), so the raw recovery
   [c * tx / rx] resp. [(tx / rx)^(1/n)] under-reports for noisy or
   out-of-model inputs.  Saturate at the d0 image: the estimators
   return exactly [p(max(d, d0))] and [max(d, d0)] for model-generated
   inputs over all of (0, R] — pinned by the qcheck round-trip
   properties in test/test_radio.ml. *)
let estimate_link_power t ~tx_power ~rx_power =
  if rx_power <= 0. then invalid_arg "Pathloss.estimate_link_power";
  Float.max t.coeff (t.coeff *. tx_power /. rx_power)

let estimate_distance t ~tx_power ~rx_power =
  if rx_power <= 0. then invalid_arg "Pathloss.estimate_distance";
  Float.max reference_distance ((tx_power /. rx_power) ** (1. /. t.exponent))
