type t = { x : float; y : float }

let make x y = { x; y }

let zero = { x = 0.; y = 0. }

let add a b = { x = a.x +. b.x; y = a.y +. b.y }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y }

let scale k v = { x = k *. v.x; y = k *. v.y }

let dot a b = (a.x *. b.x) +. (a.y *. b.y)

let cross a b = (a.x *. b.y) -. (a.y *. b.x)

let dist2 a b =
  let d = sub b a in
  dot d d

let dist a b = sqrt (dist2 a b)

let angle_of v =
  if v.x = 0. && v.y = 0. then 0.
  else
    let a = Float.atan2 v.y v.x in
    if a < 0. then a +. (2. *. Float.pi) else a

let direction ~from ~toward = angle_of (sub toward from)

let of_polar ~r ~theta = { x = r *. cos theta; y = r *. sin theta }

let lerp a b t = add (scale (1. -. t) a) (scale t b)

let equal ?(eps = 1e-9) a b =
  Float.abs (a.x -. b.x) <= eps && Float.abs (a.y -. b.y) <= eps

let pp ppf v = Fmt.pf ppf "(%g, %g)" v.x v.y
