type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = Float.nan; max = Float.nan }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. Stdlib.float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let count t = t.n

let mean t = if t.n = 0 then Float.nan else t.mean

let variance t =
  if t.n < 2 then Float.nan else t.m2 /. Stdlib.float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max
