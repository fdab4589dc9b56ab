(* Tests for the geometry substrate: vectors, circular angles, arc
   coverage, the gap test, and convex hulls. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let pi = Geom.Angle.pi

let two_pi = Geom.Angle.two_pi

(* ---------- Vec2 ---------- *)

let test_vec2_arith () =
  let open Geom.Vec2 in
  let a = make 1. 2. and b = make 3. (-1.) in
  Alcotest.(check bool) "add" true (equal (add a b) (make 4. 1.));
  Alcotest.(check bool) "sub" true (equal (sub a b) (make (-2.) 3.));
  Alcotest.(check bool) "scale" true (equal (scale 2. a) (make 2. 4.));
  check_float "dot" 1. (dot a b);
  check_float "cross" (-7.) (cross a b)

let test_vec2_norm_dist () =
  let open Geom.Vec2 in
  check_float "norm 3-4-5" 5. (dist zero (make 3. 4.));
  check_float "dist" 5. (dist (make 1. 1.) (make 4. 5.));
  check_float "dist2" 25. (dist2 (make 1. 1.) (make 4. 5.));
  check_float "norm zero" 0. (dist zero zero)

let test_vec2_angles () =
  let open Geom.Vec2 in
  check_float "east" 0. (angle_of (make 1. 0.));
  check_float "north" (pi /. 2.) (angle_of (make 0. 1.));
  check_float "west" pi (angle_of (make (-1.) 0.));
  check_float "south" (3. *. pi /. 2.) (angle_of (make 0. (-1.)));
  check_float "zero vector" 0. (angle_of zero);
  check_float "direction" (pi /. 4.)
    (direction ~from:(make 1. 1.) ~toward:(make 2. 2.))

let test_vec2_polar_lerp () =
  let open Geom.Vec2 in
  let p = of_polar ~r:2. ~theta:(pi /. 2.) in
  Alcotest.(check bool) "polar north" true (equal ~eps:1e-12 p (make 0. 2.));
  Alcotest.(check bool) "lerp midpoint" true
    (equal (lerp (make 0. 0.) (make 2. 4.) 0.5) (make 1. 2.))

(* ---------- Angle ---------- *)

let test_angle_normalize () =
  check_float "in range" 1. (Geom.Angle.normalize 1.);
  check_float "wrap down" 1. (Geom.Angle.normalize (1. +. two_pi));
  check_float "wrap up" (two_pi -. 1.) (Geom.Angle.normalize (-1.));
  check_float "zero" 0. (Geom.Angle.normalize 0.);
  check_float "two_pi" 0. (Geom.Angle.normalize two_pi)

let test_angle_diff () =
  check_float "same" 0. (Geom.Angle.diff 1. 1.);
  check_float "quarter" (pi /. 2.) (Geom.Angle.diff 0. (pi /. 2.));
  check_float "across zero" 0.2 (Geom.Angle.diff 0.1 (two_pi -. 0.1));
  check_float "max is pi" pi (Geom.Angle.diff 0. pi);
  check_float "ccw" (3. *. pi /. 2.) (Geom.Angle.ccw_delta (pi /. 2.) 0.)

let test_angle_normalize_seam () =
  (* Regression: Float.rem of a tiny negative gives a tiny negative
     remainder, and adding two_pi to it rounds to two_pi itself
     (-1e-17 +. two_pi = two_pi); normalize must still land strictly
     inside [0, 2pi). *)
  List.iter
    (fun a ->
      let n = Geom.Angle.normalize a in
      if not (n >= 0. && n < two_pi) then
        Alcotest.failf "normalize %h escaped [0, 2pi): got %h" a n)
    [ -1e-17; -1e-300; -.Float.min_float; -.two_pi; -.two_pi -. 1e-17;
      4. *. two_pi; -0. ];
  (* atan2 yields directions in (-pi, pi]; both sides of the +/-pi seam
     must normalize to the same direction *)
  check_float "minus pi maps to pi" pi (Geom.Angle.normalize (-.pi));
  check_float "seam diff" 0.
    (Geom.Angle.diff (Geom.Angle.normalize (-.pi +. 1e-12)) (pi +. 1e-12))

let test_angle_constants () =
  check_float "5pi/6" (5. *. pi /. 6.) Geom.Angle.five_pi_six;
  check_float "2pi/3" (2. *. pi /. 3.) Geom.Angle.two_pi_three;
  check_float "pi/3" (pi /. 3.) Geom.Angle.pi_three;
  check_float "to degrees" 180. (Geom.Angle.to_degrees pi)

(* ---------- Dirset: the CBTC gap test ---------- *)

let test_gap_empty_singleton () =
  check_float "empty" two_pi (Geom.Dirset.max_gap []);
  check_float "singleton" two_pi (Geom.Dirset.max_gap [ 1.5 ]);
  Alcotest.(check bool) "empty has gap" true
    (Geom.Dirset.has_gap ~alpha:Geom.Angle.five_pi_six []);
  Alcotest.(check bool) "duplicate dirs collapse" true
    (Geom.Dirset.has_gap ~alpha:pi [ 1.; 1.; 1. ])

let test_gap_regular_polygons () =
  (* k evenly spaced directions leave gaps of exactly 2pi/k. *)
  List.iter
    (fun k ->
      let dirs =
        List.init k (fun i -> Stdlib.float_of_int i *. two_pi /. Stdlib.float_of_int k)
      in
      check_float
        (Fmt.str "max gap of regular %d-gon" k)
        (two_pi /. Stdlib.float_of_int k)
        (Geom.Dirset.max_gap dirs);
      (* gap == alpha exactly IS an alpha-gap: the open cone spanning it
         holds no neighbor, so growth must still trigger (Theorem 2.1) *)
      Alcotest.(check bool)
        (Fmt.str "%d-gon: gap at alpha = 2pi/%d" k k)
        true
        (Geom.Dirset.has_gap ~alpha:(two_pi /. Stdlib.float_of_int k) dirs);
      Alcotest.(check bool)
        (Fmt.str "%d-gon: no gap at slightly larger alpha" k)
        false
        (Geom.Dirset.has_gap
           ~alpha:((two_pi /. Stdlib.float_of_int k) +. 0.01)
           dirs);
      Alcotest.(check bool)
        (Fmt.str "%d-gon: gap at slightly smaller alpha" k)
        true
        (Geom.Dirset.has_gap
           ~alpha:((two_pi /. Stdlib.float_of_int k) -. 0.01)
           dirs))
    [ 3; 4; 5; 6; 8; 12 ]

let test_gap_wraparound () =
  (* Directions clustered near 0: the big gap crosses the 2pi seam. *)
  let dirs = [ 0.1; 0.2; two_pi -. 0.1 ] in
  check_float "wrap gap" (two_pi -. 0.3) (Geom.Dirset.max_gap dirs);
  Alcotest.(check bool) "wrap gap counts as a gap" true
    (Geom.Dirset.has_gap ~alpha:(two_pi -. 0.3) dirs)

let test_gap_exact_pi_multiples () =
  (* Theorem 2.1 boundary at exact multiples of pi/6 and pi/3: k
     directions spaced exactly alpha apart leave gaps of exactly alpha,
     and a gap of exactly alpha must still count as an alpha-gap (the
     open cone spanning it contains no neighbor). *)
  List.iter
    (fun (label, alpha, k) ->
      let dirs = List.init k (fun i -> Stdlib.float_of_int i *. alpha) in
      Alcotest.(check bool)
        (Fmt.str "gap of exactly %s triggers growth" label)
        true
        (Geom.Dirset.has_gap ~alpha dirs);
      Alcotest.(check bool)
        (Fmt.str "circle not covered at exactly %s" label)
        false
        (Geom.Dirset.covers_circle ~alpha dirs))
    [ ("pi/6", pi /. 6., 12); ("pi/3", Geom.Angle.pi_three, 6);
      ("2pi/3", Geom.Angle.two_pi_three, 3) ]

let test_gap_pi_seam () =
  (* Directions an ulp on either side of the +/-pi seam collapse to
     (nearly) one direction, so the remaining gap is the whole circle. *)
  let d1 = Geom.Angle.normalize (pi -. 1e-12) in
  let d2 = Geom.Angle.normalize (-.pi +. 1e-12) in
  Alcotest.(check bool) "seam-straddling pair is nearly one direction" true
    (Geom.Dirset.max_gap [ d1; d2 ] > two_pi -. 1e-9);
  check_float "gap with a neighbor exactly at -pi" (3. *. pi /. 2.)
    (Geom.Dirset.max_gap [ pi /. 2.; Geom.Angle.normalize (-.pi) ]);
  (* two distinct directions an ulp apart away from the seam: the wrap
     gap back from the larger is nearly a full turn, which must not
     round to 0 (list and Bigarray variants alike) *)
  let dirs =
    List.sort_uniq Float.compare
      (List.map Geom.Angle.normalize
         [ 1.0471975511955975; -5.2359877559839889 ])
  in
  Alcotest.(check int) "an ulp apart, still distinct" 2 (List.length dirs);
  let ba =
    Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
      (Array.of_list dirs)
  in
  List.iter
    (fun (name, gap) ->
      Alcotest.(check bool) name true (gap > two_pi -. 1e-9))
    [
      ("ulp-apart pair: max_gap", Geom.Dirset.max_gap dirs);
      ("ulp-apart pair: max_gap_ba", Geom.Dirset.max_gap_ba ba 2);
    ]

let test_covers_circle_gap_duality () =
  let dirs = [ 0.; 2.; 4. ] in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Fmt.str "duality at alpha=%g" alpha)
        (not (Geom.Dirset.has_gap ~alpha dirs))
        (Geom.Dirset.covers_circle ~alpha dirs))
    [ 1.0; 2.0; 2.28; 2.30; 3.0 ]

(* ---------- Arcset ---------- *)

let arc start len = { Geom.Arcset.start; len }

let test_arcset_basic () =
  let open Geom.Arcset in
  Alcotest.(check int) "empty" 0 (List.length (arcs empty));
  Alcotest.(check bool) "full" true (is_full full);
  let s = of_arcs [ arc 0. 1. ] in
  check_float "total" 1. (total_length s);
  Alcotest.(check bool) "contains inside" true (contains_angle s 0.5);
  Alcotest.(check bool) "contains endpoint" true (contains_angle s 1.);
  Alcotest.(check bool) "not outside" false (contains_angle s 1.5)

let test_arcset_merge_and_wrap () =
  let open Geom.Arcset in
  (* Two overlapping arcs merge; an arc crossing 2pi is split but still
     behaves circularly. *)
  let s = of_arcs [ arc 0. 1.; arc 0.5 1. ] in
  check_float "merged length" 1.5 (total_length s);
  Alcotest.(check int) "single arc" 1 (List.length (arcs s));
  let w = of_arcs [ arc (two_pi -. 0.5) 1. ] in
  Alcotest.(check bool) "wrap contains before seam" true
    (contains_angle w (two_pi -. 0.25));
  Alcotest.(check bool) "wrap contains after seam" true (contains_angle w 0.25);
  Alcotest.(check bool) "wrap excludes opposite" false (contains_angle w pi);
  check_float "wrap length" 1. (total_length w)

let test_arcset_full_detection () =
  let open Geom.Arcset in
  let s = of_arcs [ arc 0. 3.5; arc 3. 3.5 ] in
  Alcotest.(check bool) "covers circle" true (is_full s);
  let almost = of_arcs [ arc 0. 3.; arc 3.5 2. ] in
  Alcotest.(check bool) "not full with hole" false (is_full almost)

let test_arcset_contains_arc_subsume () =
  let open Geom.Arcset in
  let s = of_arcs [ arc 0. 2.; arc 4. 1.5 ] in
  Alcotest.(check bool) "sub-arc inside" true (contains_arc s (arc 0.5 1.));
  Alcotest.(check bool) "arc spanning hole" false (contains_arc s (arc 1. 3.5));
  Alcotest.(check bool) "subsumes self" true (subsumes s s);
  Alcotest.(check bool) "equal self" true (equal s s);
  Alcotest.(check bool) "full subsumes" true (subsumes full s);
  Alcotest.(check bool) "partial does not subsume full" false (subsumes s full)

let test_arcset_of_directions () =
  let open Geom.Arcset in
  (* cover_alpha of one direction is an arc of width alpha centered there *)
  let s = of_directions ~alpha:1. [ pi ] in
  Alcotest.(check bool) "center" true (contains_angle s pi);
  Alcotest.(check bool) "edge low" true (contains_angle s (pi -. 0.5));
  Alcotest.(check bool) "edge high" true (contains_angle s (pi +. 0.5));
  Alcotest.(check bool) "beyond" false (contains_angle s (pi +. 0.6));
  check_float "width" 1. (total_length s)

let test_arcset_invalid () =
  Alcotest.check_raises "negative arc" (Invalid_argument "Arcset: negative arc length")
    (fun () -> ignore (Geom.Arcset.of_arcs [ arc 0. (-1.) ]))

(* ---------- Hull ---------- *)

(* The hull of a point list as its vertices, through [hull_indices]. *)
let hull_of points =
  let arr = Array.of_list points in
  List.map (fun i -> arr.(i)) (Geom.Hull.hull_indices arr)

(* Point-in-convex-polygon oracle for a counterclockwise hull, boundary
   inclusive: [p] lies left of (or on) every directed edge. *)
let inside_hull hull p =
  let open Geom.Vec2 in
  match hull with
  | [] -> false
  | [ q ] -> equal p q
  | first :: _ ->
      let rec edges = function
        | a :: (b :: _ as rest) -> cross (sub b a) (sub p a) >= -1e-9 && edges rest
        | [ last ] -> cross (sub first last) (sub p last) >= -1e-9
        | [] -> true
      in
      edges hull

let test_hull_square () =
  let pts =
    [ Geom.Vec2.make 0. 0.; Geom.Vec2.make 4. 0.; Geom.Vec2.make 4. 4.;
      Geom.Vec2.make 0. 4.; Geom.Vec2.make 2. 2. (* interior *);
      Geom.Vec2.make 2. 0. (* collinear on an edge *) ]
  in
  let hull = hull_of pts in
  Alcotest.(check int) "4 corners" 4 (List.length hull);
  Alcotest.(check bool) "starts at leftmost-lowest" true
    (Geom.Vec2.equal (List.hd hull) (Geom.Vec2.make 0. 0.));
  (* counterclockwise: next point should be (4,0) *)
  Alcotest.(check bool) "CCW" true
    (Geom.Vec2.equal (List.nth hull 1) (Geom.Vec2.make 4. 0.));
  Alcotest.(check bool) "interior inside" true
    (inside_hull hull (Geom.Vec2.make 2. 2.));
  Alcotest.(check bool) "boundary inside" true
    (inside_hull hull (Geom.Vec2.make 4. 2.));
  Alcotest.(check bool) "outside" false
    (inside_hull hull (Geom.Vec2.make 5. 2.))

let test_hull_degenerate () =
  Alcotest.(check int) "empty" 0 (List.length (hull_of []));
  Alcotest.(check int) "single" 1
    (List.length (hull_of [ Geom.Vec2.make 1. 1. ]));
  Alcotest.(check int) "duplicates collapse" 1
    (List.length
       (hull_of [ Geom.Vec2.make 1. 1.; Geom.Vec2.make 1. 1. ]));
  let collinear =
    hull_of
      [ Geom.Vec2.make 0. 0.; Geom.Vec2.make 1. 0.; Geom.Vec2.make 2. 0. ]
  in
  Alcotest.(check int) "collinear keeps extremes" 2 (List.length collinear)

let test_hull_indices () =
  let positions =
    [| Geom.Vec2.make 1. 1.; Geom.Vec2.make 0. 0.; Geom.Vec2.make 2. 0.;
       Geom.Vec2.make 1. 2. |]
  in
  let idx = Geom.Hull.hull_indices positions in
  Alcotest.(check (list int)) "hull indices" [ 1; 2; 3 ] (List.sort Int.compare idx);
  Alcotest.(check bool) "interior excluded" true (not (List.mem 0 idx))

(* ---------- property tests ---------- *)

let dir_gen = QCheck.Gen.float_bound_exclusive two_pi

let dirs_gen = QCheck.Gen.(list_size (int_range 0 20) dir_gen)

let prop_gap_rotation_invariant =
  QCheck.Test.make ~count:200 ~name:"max_gap is rotation invariant"
    QCheck.(make Gen.(pair dirs_gen dir_gen))
    (fun (dirs, rot) ->
      let rotated = List.map (fun d -> Geom.Angle.normalize (d +. rot)) dirs in
      feq ~eps:1e-6 (Geom.Dirset.max_gap dirs) (Geom.Dirset.max_gap rotated))

let prop_gap_monotone_in_alpha =
  QCheck.Test.make ~count:200 ~name:"has_gap monotone: bigger alpha, fewer gaps"
    QCheck.(make dirs_gen)
    (fun dirs ->
      let small = Geom.Dirset.has_gap ~alpha:1.0 dirs in
      let large = Geom.Dirset.has_gap ~alpha:2.5 dirs in
      (not large) || small)

let prop_gap_antitone_in_dirs =
  QCheck.Test.make ~count:200 ~name:"adding directions never creates a gap"
    QCheck.(make Gen.(pair dirs_gen dir_gen))
    (fun (dirs, extra) ->
      let alpha = Geom.Angle.five_pi_six in
      let before = Geom.Dirset.has_gap ~alpha dirs in
      let after = Geom.Dirset.has_gap ~alpha (extra :: dirs) in
      (not after) || before)

let prop_cover_duality =
  QCheck.Test.make ~count:200
    ~name:"cover is the full circle iff there is no gap (nonempty)"
    QCheck.(make dirs_gen)
    (fun dirs ->
      QCheck.assume (dirs <> []);
      let alpha = 2.0 in
      let full = Geom.Arcset.is_full (Geom.Dirset.cover ~alpha dirs) in
      full = not (Geom.Dirset.has_gap ~alpha dirs))

let prop_cover_contains_dirs =
  QCheck.Test.make ~count:200 ~name:"cover contains every source direction"
    QCheck.(make dirs_gen)
    (fun dirs ->
      let cover = Geom.Dirset.cover ~alpha:0.8 dirs in
      List.for_all (fun d -> Geom.Arcset.contains_angle cover d) dirs)

let prop_hull_contains_all =
  QCheck.Test.make ~count:100 ~name:"every input point lies inside its hull"
    QCheck.(
      list_of_size
        (QCheck.Gen.int_range 3 30)
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun raw ->
      let pts = List.map (fun (x, y) -> Geom.Vec2.make x y) raw in
      let hull = hull_of pts in
      List.for_all (inside_hull hull) pts)

let prop_angle_normalize_range =
  QCheck.Test.make ~count:500 ~name:"normalize lands in [0, 2pi)"
    QCheck.(make Gen.(float_range (-100.) 100.))
    (fun a ->
      let n = Geom.Angle.normalize a in
      n >= 0. && n < two_pi)

(* Brute angular-gap oracle: normalize, sort, fold consecutive
   differences plus the wrap gap.  Deliberately independent of the
   Dirset/Arcset machinery. *)
let brute_max_gap dirs =
  match List.sort_uniq Float.compare (List.map Geom.Angle.normalize dirs) with
  | [] | [ _ ] -> two_pi
  | first :: _ as sorted ->
      let rec gaps acc = function
        | a :: (b :: _ as rest) -> gaps (Stdlib.max acc (b -. a)) rest
        | [ last ] -> Stdlib.max acc (first +. two_pi -. last)
        | [] -> acc
      in
      gaps 0. sorted

(* Directions biased to the boundaries: exact multiples of pi/6 (so of
   pi/3 too) on both sides of the +/-pi seam, jittered by nothing, an
   ulp-scale amount, the gap-test tolerance, or a clearly-inside
   offset. *)
let boundary_dir_gen =
  QCheck.Gen.(
    int_range (-12) 12 >>= fun k ->
    oneofl [ 0.; 1e-12; -1e-12; 1e-9; -1e-9; 0.05; -0.05 ] >|= fun j ->
    (Stdlib.float_of_int k *. pi /. 6.) +. j)

let boundary_dirs_gen = QCheck.Gen.(list_size (int_range 1 16) boundary_dir_gen)

let prop_max_gap_matches_brute_oracle =
  QCheck.Test.make ~count:300
    ~name:"max_gap = brute sorted-gap oracle on boundary configurations"
    QCheck.(make boundary_dirs_gen)
    (fun dirs -> feq (Geom.Dirset.max_gap dirs) (brute_max_gap dirs))

let prop_covers_circle_matches_gap_oracle =
  QCheck.Test.make ~count:300
    ~name:"covers_circle = brute gap oracle away from the exact boundary"
    QCheck.(make boundary_dirs_gen)
    (fun dirs ->
      let alpha = Geom.Angle.two_pi_three in
      let gap = brute_max_gap dirs in
      QCheck.assume (Float.abs (gap -. alpha) > 1e-8);
      Geom.Dirset.covers_circle ~alpha dirs = (gap < alpha))

let prop_cover_matches_pointwise_oracle =
  QCheck.Test.make ~count:300
    ~name:"Arcset cover membership = brute nearest-direction oracle"
    QCheck.(make Gen.(pair boundary_dirs_gen boundary_dir_gen))
    (fun (dirs, probe) ->
      let alpha = Geom.Angle.five_pi_six in
      let nearest =
        List.fold_left
          (fun acc d -> Stdlib.min acc (Geom.Angle.diff probe d))
          Float.infinity dirs
      in
      (* probes within tolerance of the arc boundary are excluded: there
         the closed-arc convention and eps legitimately disagree *)
      QCheck.assume (Float.abs (nearest -. (alpha /. 2.)) > 1e-8);
      Geom.Arcset.contains_angle (Geom.Dirset.cover ~alpha dirs) probe
      = (nearest < alpha /. 2.))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "geom"
    [
      ( "vec2",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec2_arith;
          Alcotest.test_case "norm and dist" `Quick test_vec2_norm_dist;
          Alcotest.test_case "angles" `Quick test_vec2_angles;
          Alcotest.test_case "polar and lerp" `Quick test_vec2_polar_lerp;
        ] );
      ( "angle",
        [
          Alcotest.test_case "normalize" `Quick test_angle_normalize;
          Alcotest.test_case "normalize seam regressions" `Quick
            test_angle_normalize_seam;
          Alcotest.test_case "diff" `Quick test_angle_diff;
          Alcotest.test_case "constants" `Quick test_angle_constants;
        ] );
      ( "dirset",
        [
          Alcotest.test_case "empty and singleton" `Quick test_gap_empty_singleton;
          Alcotest.test_case "regular polygons" `Quick test_gap_regular_polygons;
          Alcotest.test_case "wraparound" `Quick test_gap_wraparound;
          Alcotest.test_case "exact pi/6 and pi/3 multiples" `Quick
            test_gap_exact_pi_multiples;
          Alcotest.test_case "pi seam" `Quick test_gap_pi_seam;
          Alcotest.test_case "cover duality" `Quick test_covers_circle_gap_duality;
        ] );
      ( "arcset",
        [
          Alcotest.test_case "basic" `Quick test_arcset_basic;
          Alcotest.test_case "merge and wrap" `Quick test_arcset_merge_and_wrap;
          Alcotest.test_case "full detection" `Quick test_arcset_full_detection;
          Alcotest.test_case "containment" `Quick test_arcset_contains_arc_subsume;
          Alcotest.test_case "of_directions" `Quick test_arcset_of_directions;
          Alcotest.test_case "invalid input" `Quick test_arcset_invalid;
        ] );
      ( "hull",
        [
          Alcotest.test_case "square" `Quick test_hull_square;
          Alcotest.test_case "degenerate" `Quick test_hull_degenerate;
          Alcotest.test_case "indices" `Quick test_hull_indices;
        ] );
      ( "properties",
        qsuite
          [
            prop_gap_rotation_invariant;
            prop_gap_monotone_in_alpha;
            prop_gap_antitone_in_dirs;
            prop_cover_duality;
            prop_cover_contains_dirs;
            prop_hull_contains_all;
            prop_angle_normalize_range;
            prop_max_gap_matches_brute_oracle;
            prop_covers_circle_matches_gap_oracle;
            prop_cover_matches_pointwise_oracle;
          ] );
    ]
