(* Tests for the wireless power model: path loss, inverses, the paper's
   link-power estimation assumption, and energy accounting. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let pl = Radio.Pathloss.make ~max_range:500. ()

let test_defaults () =
  check_float "exponent" 2. (Radio.Pathloss.exponent pl);
  check_float "coeff" 1. (Radio.Pathloss.coeff pl);
  check_float "R" 500. (Radio.Pathloss.max_range pl);
  check_float "P = p(R)" 250000. (Radio.Pathloss.max_power pl)

let test_power_for_distance () =
  check_float "p(0)" 0. (Radio.Pathloss.power_for_distance pl 0.);
  check_float "p(10)" 100. (Radio.Pathloss.power_for_distance pl 10.);
  check_float "quadratic" 4.
    (Radio.Pathloss.power_for_distance pl 2.
    /. Radio.Pathloss.power_for_distance pl 1.);
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Pathloss.power_for_distance: negative distance")
    (fun () -> ignore (Radio.Pathloss.power_for_distance pl (-1.)))

let test_inverse_roundtrip () =
  List.iter
    (fun d ->
      check_float ~eps:1e-6
        (Fmt.str "distance_for_power (power_for_distance %g)" d)
        d
        (Radio.Pathloss.distance_for_power pl
           (Radio.Pathloss.power_for_distance pl d)))
    [ 0.; 1.; 17.3; 250.; 499.99; 500. ]

let test_reaches () =
  Alcotest.(check bool) "reaches at exact range" true
    (Radio.Pathloss.reaches pl ~power:(Radio.Pathloss.max_power pl) ~dist:500.);
  Alcotest.(check bool) "not beyond" false
    (Radio.Pathloss.reaches pl ~power:(Radio.Pathloss.max_power pl) ~dist:500.5);
  Alcotest.(check bool) "in_range boundary" true (Radio.Pathloss.in_range pl ~dist:500.);
  Alcotest.(check bool) "partial power" true
    (Radio.Pathloss.reaches pl ~power:100. ~dist:10.);
  Alcotest.(check bool) "partial power insufficient" false
    (Radio.Pathloss.reaches pl ~power:99. ~dist:10.)

let test_estimation_assumption () =
  (* Section 2: from (tx power, rx power) a node recovers p(d).  Exact
     for d >= 1 (the reference distance). *)
  List.iter
    (fun d ->
      let tx = 12345.6 in
      let rx = Radio.Pathloss.rx_power pl ~tx_power:tx ~dist:d in
      check_float ~eps:1e-6
        (Fmt.str "estimate p(d) at d=%g" d)
        (Radio.Pathloss.power_for_distance pl d)
        (Radio.Pathloss.estimate_link_power pl ~tx_power:tx ~rx_power:rx);
      check_float ~eps:1e-6
        (Fmt.str "estimate d at d=%g" d)
        d
        (Radio.Pathloss.estimate_distance pl ~tx_power:tx ~rx_power:rx))
    [ 1.; 2.; 100.; 499. ]

let test_estimation_below_reference () =
  (* Below the reference distance the estimate saturates at p(1), a safe
     overestimate (still reaches the node). *)
  let tx = 50. in
  let rx = Radio.Pathloss.rx_power pl ~tx_power:tx ~dist:0.3 in
  let est = Radio.Pathloss.estimate_link_power pl ~tx_power:tx ~rx_power:rx in
  check_float "saturates at p(1)" (Radio.Pathloss.power_for_distance pl 1.) est;
  Alcotest.(check bool) "overestimate reaches" true
    (Radio.Pathloss.reaches pl ~power:est ~dist:0.3)

let test_custom_exponent () =
  let pl4 = Radio.Pathloss.make ~exponent:4. ~coeff:0.5 ~max_range:100. () in
  check_float "P" (0.5 *. (100. ** 4.)) (Radio.Pathloss.max_power pl4);
  check_float ~eps:1e-6 "roundtrip" 42.
    (Radio.Pathloss.distance_for_power pl4
       (Radio.Pathloss.power_for_distance pl4 42.))

let test_make_invalid () =
  Alcotest.check_raises "exponent" (Invalid_argument "Pathloss.make: exponent < 1")
    (fun () -> ignore (Radio.Pathloss.make ~exponent:0.5 ~max_range:10. ()));
  Alcotest.check_raises "range"
    (Invalid_argument "Pathloss.make: non-positive range") (fun () ->
      ignore (Radio.Pathloss.make ~max_range:0. ()))

let test_energy () =
  let e = Radio.Energy.make ~tx_overhead:5. ~rx_overhead:3. pl in
  check_float "link cost" 108. (Radio.Energy.link_cost e 10.);
  let pure = Radio.Energy.make pl in
  check_float "no overhead" 100. (Radio.Energy.link_cost pure 10.);
  Alcotest.check_raises "negative overhead"
    (Invalid_argument "Energy.make: negative overhead") (fun () ->
      ignore (Radio.Energy.make ~tx_overhead:(-1.) pl))

(* Relaying through a midpoint is cheaper than direct transmission for
   n = 2 and no overhead — the paper's motivation for topology control. *)
let test_relay_beats_direct () =
  let e = Radio.Energy.make pl in
  let direct = Radio.Energy.link_cost e 100. in
  let relayed = 2. *. Radio.Energy.link_cost e 50. in
  Alcotest.(check bool) "relay cheaper" true (relayed < direct);
  (* ... but with enough per-hop overhead, direct wins *)
  let e2 = Radio.Energy.make ~rx_overhead:6000. pl in
  Alcotest.(check bool) "overhead flips it" true
    (2. *. Radio.Energy.link_cost e2 50. > Radio.Energy.link_cost e2 100.)

let prop_monotone =
  QCheck.Test.make ~count:300 ~name:"p(d) is monotone increasing"
    QCheck.(pair (float_range 0. 500.) (float_range 0. 500.))
    (fun (a, b) ->
      let pa = Radio.Pathloss.power_for_distance pl a in
      let pb = Radio.Pathloss.power_for_distance pl b in
      (a <= b) = (pa <= pb) || a = b)

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"distance_for_power inverts power_for_distance"
    QCheck.(float_range 0.01 500.)
    (fun d ->
      let d' =
        Radio.Pathloss.distance_for_power pl
          (Radio.Pathloss.power_for_distance pl d)
      in
      Float.abs (d -. d') < 1e-6 *. d)

(* The d0-clamp contract over all of (0, R]: for model-generated
   (tx, rx) pairs the estimators return exactly [p(max(d, d0))] and
   [max(d, d0)] — the clamp only engages below the reference distance,
   where the rx-power saturation has erased distance information. *)
let prop_estimation_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"estimators recover p(max(d,d0)) / max(d,d0) over (0, R]"
    QCheck.(pair (float_range 1e-9 500.) (float_range 1. 1e9))
    (fun (d, tx) ->
      let rx = Radio.Pathloss.rx_power pl ~tx_power:tx ~dist:d in
      let dc = Float.max d 1. in
      let close a b =
        Float.abs (a -. b)
        <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
      in
      close
        (Radio.Pathloss.estimate_link_power pl ~tx_power:tx ~rx_power:rx)
        (Radio.Pathloss.power_for_distance pl dc)
      && close (Radio.Pathloss.estimate_distance pl ~tx_power:tx ~rx_power:rx) dc)

(* Even for off-model (tx, rx) pairs — noise, asymmetric hardware — the
   estimates never fall below the d0 image: a sub-reference distance or
   a power below p(d0) is never reported. *)
let prop_estimate_floor =
  QCheck.Test.make ~count:300
    ~name:"estimates saturate at the reference distance for any inputs"
    QCheck.(pair (float_range 1e-6 1e9) (float_range 1e-6 1e9))
    (fun (tx, rx) ->
      Radio.Pathloss.estimate_link_power pl ~tx_power:tx ~rx_power:rx
      >= Radio.Pathloss.power_for_distance pl 1.
      && Radio.Pathloss.estimate_distance pl ~tx_power:tx ~rx_power:rx >= 1.)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "radio"
    [
      ( "pathloss",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "power for distance" `Quick test_power_for_distance;
          Alcotest.test_case "inverse roundtrip" `Quick test_inverse_roundtrip;
          Alcotest.test_case "reaches" `Quick test_reaches;
          Alcotest.test_case "estimation assumption" `Quick test_estimation_assumption;
          Alcotest.test_case "estimation below reference" `Quick
            test_estimation_below_reference;
          Alcotest.test_case "custom exponent" `Quick test_custom_exponent;
          Alcotest.test_case "invalid make" `Quick test_make_invalid;
        ] );
      ( "energy",
        [
          Alcotest.test_case "costs" `Quick test_energy;
          Alcotest.test_case "relay beats direct" `Quick test_relay_beats_direct;
        ] );
      ( "properties",
        qsuite
          [
            prop_monotone; prop_roundtrip; prop_estimation_roundtrip;
            prop_estimate_floor;
          ] );
    ]
