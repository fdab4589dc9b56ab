type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = mix (bits64 t) }

(* Top 53 bits give a uniform float in [0, 1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float t bound =
  if bound <= 0. then invalid_arg "Prng.float: non-positive bound";
  unit_float t *. bound

let uniform t ~lo ~hi =
  if hi <= lo then invalid_arg "Prng.uniform: empty interval";
  lo +. (unit_float t *. (hi -. lo))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  (* Rejection-free for our purposes: bounds are far below 2^53. *)
  Stdlib.int_of_float (unit_float t *. Stdlib.float_of_int bound)

let bool t ~p = unit_float t < p

let gaussian t ~mu ~sigma =
  (* Box–Muller; we deliberately discard the second variate to keep the
     stream position independent of call history. *)
  let u1 = Float.max 1e-300 (unit_float t) in
  let u2 = unit_float t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: non-positive rate";
  let u = Float.max 1e-300 (unit_float t) in
  -.log u /. rate

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
