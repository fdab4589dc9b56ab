(* Tests for the deterministic PRNG and the statistics substrate. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.bits64 a) in
  let ys = List.init 20 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_copy () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let test_prng_ranges () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Prng.float t 10. in
    if f < 0. || f >= 10. then Alcotest.failf "float out of range: %g" f;
    let i = Prng.int t 7 in
    if i < 0 || i >= 7 then Alcotest.failf "int out of range: %d" i;
    let u = Prng.uniform t ~lo:(-5.) ~hi:5. in
    if u < -5. || u >= 5. then Alcotest.failf "uniform out of range: %g" u
  done

let test_prng_uniformity () =
  (* Coarse sanity: mean of uniforms near 1/2; int buckets all hit. *)
  let t = Prng.create ~seed:12 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float t 1.
  done;
  check_float ~eps:0.01 "uniform mean" 0.5 (!sum /. Stdlib.float_of_int n);
  let buckets = Array.make 10 0 in
  for _ = 1 to n do
    let i = Prng.int t 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < n / 20 then Alcotest.failf "bucket %d suspiciously empty: %d" i c)
    buckets

let test_prng_bool_gaussian_exp () =
  let t = Prng.create ~seed:5 in
  let n = 20_000 in
  let count = ref 0 in
  for _ = 1 to n do
    if Prng.bool t ~p:0.25 then incr count
  done;
  check_float ~eps:0.02 "bool p" 0.25
    (Stdlib.float_of_int !count /. Stdlib.float_of_int n);
  let acc = Stats.Welford.create () in
  for _ = 1 to n do
    Stats.Welford.add acc (Prng.gaussian t ~mu:3. ~sigma:2.)
  done;
  check_float ~eps:0.08 "gaussian mean" 3. (Stats.Welford.mean acc);
  check_float ~eps:0.1 "gaussian sd" 2. (Stats.Welford.stddev acc);
  let acc2 = Stats.Welford.create () in
  for _ = 1 to n do
    Stats.Welford.add acc2 (Prng.exponential t ~rate:2.)
  done;
  check_float ~eps:0.02 "exponential mean" 0.5 (Stats.Welford.mean acc2)

let test_prng_shuffle_choose () =
  let t = Prng.create ~seed:8 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  let chosen = Prng.choose t arr in
  Alcotest.(check bool) "choose member" true
    (Array.exists (fun x -> x = chosen) arr);
  Alcotest.check_raises "choose empty"
    (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose t [||]))

let test_prng_invalid () =
  let t = Prng.create ~seed:1 in
  Alcotest.check_raises "float bound" (Invalid_argument "Prng.float: non-positive bound")
    (fun () -> ignore (Prng.float t 0.));
  Alcotest.check_raises "int bound" (Invalid_argument "Prng.int: non-positive bound")
    (fun () -> ignore (Prng.int t (-1)));
  Alcotest.check_raises "uniform empty" (Invalid_argument "Prng.uniform: empty interval")
    (fun () -> ignore (Prng.uniform t ~lo:1. ~hi:1.))

(* ---------- Welford ---------- *)

let test_welford_matches_direct () =
  let xs = [| 1.; 2.; 4.; 8.; 16.; 23.; 0.5 |] in
  let acc = Stats.Welford.create () in
  Array.iter (Stats.Welford.add acc) xs;
  let n = Stdlib.float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
  in
  check_float ~eps:1e-9 "mean" mean (Stats.Welford.mean acc);
  check_float ~eps:1e-9 "variance" var (Stats.Welford.variance acc);
  check_float "min" 0.5 (Stats.Welford.min acc);
  check_float "max" 23. (Stats.Welford.max acc);
  Alcotest.(check int) "count" 7 (Stats.Welford.count acc)

let test_welford_empty_and_single () =
  let acc = Stats.Welford.create () in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.Welford.mean acc));
  Stats.Welford.add acc 3.;
  check_float "single mean" 3. (Stats.Welford.mean acc);
  Alcotest.(check bool) "single variance nan" true
    (Float.is_nan (Stats.Welford.variance acc))

let test_welford_merge () =
  let all = Stats.Welford.create () in
  let a = Stats.Welford.create () and b = Stats.Welford.create () in
  let xs = List.init 100 (fun i -> sin (Stdlib.float_of_int i) *. 10.) in
  List.iteri
    (fun i x ->
      Stats.Welford.add all x;
      Stats.Welford.add (if i mod 2 = 0 then a else b) x)
    xs;
  let merged = Stats.Welford.merge a b in
  check_float ~eps:1e-9 "merged mean" (Stats.Welford.mean all) (Stats.Welford.mean merged);
  check_float ~eps:1e-6 "merged var" (Stats.Welford.variance all)
    (Stats.Welford.variance merged);
  Alcotest.(check int) "merged count" 100 (Stats.Welford.count merged)

(* ---------- Summary ---------- *)

let test_summary_basic () =
  let s = Stats.Summary.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "mean" 3. s.Stats.Summary.mean;
  check_float "median" 3. s.Stats.Summary.median;
  check_float "min" 1. s.Stats.Summary.min;
  check_float "max" 5. s.Stats.Summary.max;
  check_float "p25" 2. s.Stats.Summary.p25;
  check_float "p75" 4. s.Stats.Summary.p75

let test_summary_percentile_interp () =
  let sorted = [| 0.; 10. |] in
  check_float "interp p50" 5. (Stats.Summary.percentile sorted 50.);
  check_float "interp p10" 1. (Stats.Summary.percentile sorted 10.);
  check_float "p0" 0. (Stats.Summary.percentile sorted 0.);
  check_float "p100" 10. (Stats.Summary.percentile sorted 100.)

let test_summary_empty () =
  let s = Stats.Summary.of_list [] in
  Alcotest.(check int) "n" 0 s.Stats.Summary.n;
  Alcotest.(check bool) "nan mean" true (Float.is_nan s.Stats.Summary.mean)

let test_summary_invalid () =
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Summary.percentile: empty sample") (fun () ->
      ignore (Stats.Summary.percentile [||] 50.));
  Alcotest.check_raises "range"
    (Invalid_argument "Summary.percentile: out of range") (fun () ->
      ignore (Stats.Summary.percentile [| 1. |] 150.))

(* ---------- Ci ---------- *)

let test_ci_quantiles () =
  check_float ~eps:1e-9 "df=1" 12.706 (Stats.Ci.t95 ~df:1);
  check_float ~eps:1e-9 "df=10" 2.228 (Stats.Ci.t95 ~df:10);
  check_float ~eps:1e-9 "df=30" 2.042 (Stats.Ci.t95 ~df:30);
  check_float ~eps:1e-9 "large df is normal" 1.96 (Stats.Ci.t95 ~df:1000);
  Alcotest.check_raises "df 0" (Invalid_argument "Ci.t95: df < 1") (fun () ->
      ignore (Stats.Ci.t95 ~df:0))

(* The interval of a sample, streamed through a Welford accumulator. *)
let ci_of xs =
  let acc = Stats.Welford.create () in
  Array.iter (Stats.Welford.add acc) xs;
  Stats.Ci.of_welford acc

let test_ci_interval () =
  (* n=4, mean=5: half width = t95(3) * sd / sqrt 4 *)
  let ci = ci_of [| 3.; 4.; 6.; 7. |] in
  check_float ~eps:1e-9 "mean" 5. ci.Stats.Ci.mean;
  check_float ~eps:1e-3 "half width"
    (Stats.Ci.t95 ~df:3 *. Stats.Summary.(of_list [ 3.; 4.; 6.; 7. ]).stddev /. 2.)
    ci.Stats.Ci.half_width;
  check_float ~eps:1e-9 "symmetric" (ci.Stats.Ci.hi -. ci.Stats.Ci.mean)
    (ci.Stats.Ci.mean -. ci.Stats.Ci.lo)

let test_ci_coverage () =
  (* Sanity: with gaussian samples the 95% CI covers the true mean in
     roughly 95% of repetitions. *)
  let prng = Prng.create ~seed:20 in
  let hits = ref 0 in
  let reps = 400 in
  for _ = 1 to reps do
    let xs = Array.init 20 (fun _ -> Prng.gaussian prng ~mu:10. ~sigma:3.) in
    let ci = ci_of xs in
    if ci.Stats.Ci.lo <= 10. && 10. <= ci.Stats.Ci.hi then incr hits
  done;
  let rate = Stdlib.float_of_int !hits /. Stdlib.float_of_int reps in
  if rate < 0.90 || rate > 0.99 then
    Alcotest.failf "coverage %.3f too far from 0.95" rate

let test_ci_of_welford () =
  (* the streamed interval agrees with a two-pass computation *)
  let xs = [| 1.5; 2.; 8.; -3.; 4.25 |] in
  let mean = Array.fold_left ( +. ) 0. xs /. 5. in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. xs
    /. 4.
  in
  let ci = ci_of xs in
  check_float ~eps:1e-9 "same mean" mean ci.Stats.Ci.mean;
  check_float ~eps:1e-9 "same width"
    (Stats.Ci.t95 ~df:4 *. sqrt var /. sqrt 5.)
    ci.Stats.Ci.half_width;
  Alcotest.check_raises "single sample" (Invalid_argument "Ci: need at least two samples")
    (fun () -> ignore (ci_of [| 1. |]))

(* ---------- properties ---------- *)

let prop_summary_bounds =
  QCheck.Test.make ~count:200 ~name:"summary: min <= p25 <= median <= p75 <= max"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.Summary.of_list xs in
      s.Stats.Summary.min <= s.Stats.Summary.p25 +. 1e-9
      && s.Stats.Summary.p25 <= s.Stats.Summary.median +. 1e-9
      && s.Stats.Summary.median <= s.Stats.Summary.p75 +. 1e-9
      && s.Stats.Summary.p75 <= s.Stats.Summary.max +. 1e-9)

let prop_welford_merge_commutes =
  QCheck.Test.make ~count:100 ~name:"welford merge is symmetric"
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 20) (float_range (-100.) 100.))
        (list_of_size (QCheck.Gen.int_range 1 20) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let mk l =
        let a = Stats.Welford.create () in
        List.iter (Stats.Welford.add a) l;
        a
      in
      let m1 = Stats.Welford.merge (mk xs) (mk ys) in
      let m2 = Stats.Welford.merge (mk ys) (mk xs) in
      feq ~eps:1e-6 (Stats.Welford.mean m1) (Stats.Welford.mean m2)
      && feq ~eps:1e-6 (Stats.Welford.variance m1) (Stats.Welford.variance m2))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prng-stats"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "bool/gaussian/exponential" `Quick test_prng_bool_gaussian_exp;
          Alcotest.test_case "shuffle and choose" `Quick test_prng_shuffle_choose;
          Alcotest.test_case "invalid arguments" `Quick test_prng_invalid;
        ] );
      ( "welford",
        [
          Alcotest.test_case "matches direct computation" `Quick test_welford_matches_direct;
          Alcotest.test_case "empty and single" `Quick test_welford_empty_and_single;
          Alcotest.test_case "merge" `Quick test_welford_merge;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "percentile interpolation" `Quick test_summary_percentile_interp;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "invalid" `Quick test_summary_invalid;
        ] );
      ( "ci",
        [
          Alcotest.test_case "t quantiles" `Quick test_ci_quantiles;
          Alcotest.test_case "interval" `Quick test_ci_interval;
          Alcotest.test_case "coverage" `Quick test_ci_coverage;
          Alcotest.test_case "of welford" `Quick test_ci_of_welford;
        ] );
      ("properties", qsuite [ prop_summary_bounds; prop_welford_merge_commutes ]);
    ]
