let pi = Float.pi

let two_pi = 2. *. pi

let five_pi_six = 5. *. pi /. 6.

let two_pi_three = 2. *. pi /. 3.

let pi_three = pi /. 3.

let normalize a =
  let r = Float.rem a two_pi in
  (* the shift of a tiny negative remainder can round up to two_pi
     itself (e.g. -1e-17 +. two_pi = two_pi), so the upper-bound check
     must happen after it, not in the same branch *)
  let r = if r < 0. then r +. two_pi else r in
  if r >= two_pi then 0. else r

let ccw_delta a b = normalize (b -. a)

let diff a b =
  let d = ccw_delta a b in
  if d > pi then two_pi -. d else d

let to_degrees r = r *. 180. /. pi

let pp ppf a = Fmt.pf ppf "%.4f rad (%.1f deg)" a (to_degrees a)
