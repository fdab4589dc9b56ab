type t = { mean : float; lo : float; hi : float; half_width : float }

(* Two-sided 97.5% quantiles of Student's t, df = 1 .. 30, then selected
   larger dfs; beyond 120 the normal quantile is accurate to < 0.3%. *)
let table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t95 ~df =
  if df < 1 then invalid_arg "Ci.t95: df < 1";
  if df <= 30 then table.(df - 1)
  else if df <= 40 then 2.021
  else if df <= 60 then 2.000
  else if df <= 120 then 1.980
  else 1.960

let of_welford acc =
  let n = Welford.count acc in
  if n < 2 then invalid_arg "Ci: need at least two samples";
  let mean = Welford.mean acc in
  let half_width =
    t95 ~df:(n - 1) *. Welford.stddev acc /. sqrt (Stdlib.float_of_int n)
  in
  { mean; lo = mean -. half_width; hi = mean +. half_width; half_width }
