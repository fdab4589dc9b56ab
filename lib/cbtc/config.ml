type growth =
  | Exact
  | Double of float
  | Mult of { p0 : float; factor : float }

type t = { alpha : float; growth : growth }

let validate_growth = function
  | Exact -> ()
  | Double p0 ->
      if p0 <= 0. then invalid_arg "Config: non-positive initial power"
  | Mult { p0; factor } ->
      if p0 <= 0. then invalid_arg "Config: non-positive initial power";
      if factor <= 1. then invalid_arg "Config: growth factor must exceed 1"

let make ?(growth = Exact) alpha =
  if alpha <= 0. || alpha > Geom.Angle.two_pi then
    invalid_arg "Config: alpha out of (0, 2pi]";
  validate_growth growth;
  { alpha; growth }

let threshold_eps = 1e-9

let preserves_connectivity t = t.alpha <= Geom.Angle.five_pi_six +. threshold_eps

let allows_asymmetric_removal t =
  t.alpha <= Geom.Angle.two_pi_three +. threshold_eps

let stepped_powers ~p0 ~factor ~max_power =
  let rec build acc p =
    if p >= max_power then List.rev (max_power :: acc)
    else build (p :: acc) (p *. factor)
  in
  build [] p0

let power_steps t ~pathloss ~link_powers =
  let max_power = Radio.Pathloss.max_power pathloss in
  match t.growth with
  | Exact -> (
      match List.sort_uniq Float.compare link_powers with
      | [] -> [ max_power ]
      | steps -> steps)
  | Double p0 -> stepped_powers ~p0 ~factor:2. ~max_power
  | Mult { p0; factor } -> stepped_powers ~p0 ~factor ~max_power

let pp_growth ppf = function
  | Exact -> Fmt.string ppf "exact"
  | Double p0 -> Fmt.pf ppf "double(p0=%g)" p0
  | Mult { p0; factor } -> Fmt.pf ppf "mult(p0=%g, x%g)" p0 factor

let pp ppf t =
  Fmt.pf ppf "CBTC(alpha=%a, growth=%a)" Geom.Angle.pp t.alpha pp_growth
    t.growth
