(* The Geom.Grid spatial index: unit tests for cell-boundary cases and
   mobility updates, and differential properties for the grid probe
   itself (the spec's candidates, interference coverage, Net.bcast
   audience, the small-n dispatch).  Discovery, G_R and the baselines
   are pinned to the pair scans of test/spec_geo.ml, with the grid
   forced, in test/test_csr.ml and test/test_env.ml. *)

let v2 = Geom.Vec2.make

let pl = Radio.Pathloss.make ~max_range:100. ()

(* ---------- unit: construction and probes ---------- *)

let test_create_rejects_bad_range () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Grid.create: cell range must be positive and finite")
    (fun () -> ignore (Geom.Grid.create ~range:0. [| Geom.Vec2.zero |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Grid.create: cell range must be positive and finite")
    (fun () -> ignore (Geom.Grid.create ~range:(-1.) [||]))

let test_empty_grid () =
  let g = Geom.Grid.create ~range:10. [||] in
  Alcotest.(check int) "no nodes" 0 (Geom.Grid.nb_nodes g);
  Alcotest.(check (list int)) "no candidates" []
    (Geom.Grid.fold_in_range g Geom.Vec2.zero ~dist:50. ~init:[]
       ~f:(fun acc u -> u :: acc))

let test_neighbors_within_exact () =
  (* nodes at distances 3, 5, 7 from node 0; query radius 5 includes the
     boundary (closed disk) *)
  let positions = [| Geom.Vec2.zero; v2 3. 0.; v2 0. 5.; v2 7. 0. |] in
  let g = Geom.Grid.create ~range:10. positions in
  Alcotest.(check (list int)) "closed disk" [ 1; 2 ]
    (Geom.Grid.neighbors_within g 0 ~dist:5.);
  Alcotest.(check (list int)) "all" [ 1; 2; 3 ]
    (Geom.Grid.neighbors_within g 0 ~dist:7.);
  Alcotest.(check (list int)) "self excluded, tiny radius" []
    (Geom.Grid.neighbors_within g 0 ~dist:0.5)

let test_cell_boundary_nodes () =
  (* nodes sitting exactly on cell edges and corners (multiples of the
     cell size) must be found from neighboring cells in every direction *)
  let cell = 10. in
  let positions =
    [| v2 0. 0.; v2 cell 0.; v2 0. cell; v2 cell cell; v2 (-.cell) (-.cell) |]
  in
  let g = Geom.Grid.create ~range:cell positions in
  Alcotest.(check (list int)) "corner node sees all grid-line nodes"
    [ 1; 2; 3; 4 ]
    (Geom.Grid.neighbors_within g 0 ~dist:(cell *. Float.sqrt 2.));
  Alcotest.(check (list int)) "axis-aligned only" [ 1; 2 ]
    (Geom.Grid.neighbors_within g 0 ~dist:cell)

let test_negative_coordinates () =
  (* the hand-built constructions use negative coordinates; floor-based
     cell keys must not truncate toward zero *)
  let positions = [| v2 (-0.5) (-0.5); v2 0.5 0.5; v2 (-15.) (-15.) |] in
  let g = Geom.Grid.create ~range:10. positions in
  Alcotest.(check (list int)) "across the origin" [ 1 ]
    (Geom.Grid.neighbors_within g 0 ~dist:2.);
  Alcotest.(check (list int)) "far negative found" [ 2 ]
    (Geom.Grid.neighbors_within g 0 ~dist:25.
    |> List.filter (fun u -> u = 2))

let test_move_rebuckets () =
  let positions = [| Geom.Vec2.zero; v2 50. 50.; v2 90. 90. |] in
  let g = Geom.Grid.create ~range:10. positions in
  Alcotest.(check (list int)) "before" [] (Geom.Grid.neighbors_within g 0 ~dist:5.);
  Geom.Grid.move g 1 (v2 3. 0.);
  Alcotest.(check (list int)) "after move in" [ 1 ]
    (Geom.Grid.neighbors_within g 0 ~dist:5.);
  Alcotest.(check bool) "position updated" true
    (Geom.Vec2.equal (Geom.Grid.position g 1) (v2 3. 0.));
  (* move within the same cell *)
  Geom.Grid.move g 1 (v2 4. 1.);
  Alcotest.(check (list int)) "same cell move" [ 1 ]
    (Geom.Grid.neighbors_within g 0 ~dist:5.);
  (* move away again *)
  Geom.Grid.move g 1 (v2 80. 0.);
  Alcotest.(check (list int)) "after move out" []
    (Geom.Grid.neighbors_within g 0 ~dist:5.)

(* ---------- properties: grid probes vs brute scans ---------- *)

let positions_gen =
  QCheck.Gen.(
    int_range 2 60 >>= fun n ->
    list_repeat n
      (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
    >|= fun pts ->
    Array.of_list (List.map (fun (x, y) -> v2 x y) pts))

let brute_within positions u ~dist =
  let ids = ref [] in
  for v = Array.length positions - 1 downto 0 do
    if v <> u && Geom.Vec2.dist positions.(u) positions.(v) <= dist then
      ids := v :: !ids
  done;
  !ids

let prop_neighbors_within_matches_brute =
  QCheck.Test.make ~count:100 ~name:"neighbors_within = brute closed-disk scan"
    (QCheck.make QCheck.Gen.(pair positions_gen (float_bound_exclusive 250.)))
    (fun (positions, dist) ->
      let g = Geom.Grid.create ~range:100. positions in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        if Geom.Grid.neighbors_within g u ~dist <> brute_within positions u ~dist
        then ok := false
      done;
      !ok)

let prop_fold_is_superset =
  QCheck.Test.make ~count:100
    ~name:"fold_in_range enumerates a superset, each id once"
    (QCheck.make QCheck.Gen.(pair positions_gen (float_bound_exclusive 150.)))
    (fun (positions, dist) ->
      let g = Geom.Grid.create ~range:50. positions in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        let seen =
          Geom.Grid.fold_in_range g positions.(u) ~dist ~init:[]
            ~f:(fun acc v -> v :: acc)
        in
        let sorted = List.sort Int.compare seen in
        if List.sort_uniq Int.compare seen <> sorted then ok := false;
        List.iter
          (fun v ->
            if not (List.mem v sorted) && v <> u then ok := false)
          (brute_within positions u ~dist)
      done;
      !ok)

let prop_move_tracks_mobility =
  (* random walk: after a batch of moves the index answers exactly like a
     brute scan over the current positions *)
  QCheck.Test.make ~count:50 ~name:"move keeps the index exact under mobility"
    (QCheck.make
       QCheck.Gen.(
         triple positions_gen (int_range 0 1000) (float_bound_exclusive 120.)))
    (fun (positions, seed, dist) ->
      let n = Array.length positions in
      let g = Geom.Grid.create ~range:40. positions in
      let prng = Prng.create ~seed in
      let current = Array.copy positions in
      let ok = ref true in
      for _round = 1 to 5 do
        for _ = 1 to n do
          let u = Prng.int prng n in
          let p =
            v2 (Prng.float prng 300. -. 150.) (Prng.float prng 300. -. 150.)
          in
          current.(u) <- p;
          Geom.Grid.move g u p
        done;
        for u = 0 to n - 1 do
          if
            Geom.Grid.neighbors_within g u ~dist
            <> brute_within current u ~dist
          then ok := false
        done
      done;
      !ok)

(* ---------- properties: grid-backed paths vs all-pairs scans ---------- *)

let neighbor_eq (a : Cbtc.Neighbor.t) (b : Cbtc.Neighbor.t) =
  a.id = b.id && a.dir = b.dir && a.link_power = b.link_power && a.tag = b.tag

(* The spec's grid probe against its own full scan, without an env and
   under a non-trivial one (whose probe radius is the inflated
   [Env.max_reach]): the grid only decides which pairs are examined. *)
let prop_candidates_identical =
  QCheck.Test.make ~count:100
    ~name:"Spec_geo.candidates: grid = scan, bit-exact (no env / sigma > 0)"
    (QCheck.make
       QCheck.Gen.(
         positions_gen >>= fun positions ->
         Gen_common.env_gen ~max_range:100. (Array.length positions)
         >|= fun env -> (positions, env)))
    (fun (positions, env) ->
      let pl = Radio.Env.pathloss env in
      let grid =
        Geom.Grid.create ~range:(Radio.Pathloss.max_range pl) positions
      in
      let ok = ref true in
      for u = 0 to Array.length positions - 1 do
        List.iter
          (fun env ->
            let g = Spec_geo.candidates ~grid ?env pl positions u in
            let b = Spec_geo.candidates ?env pl positions u in
            if not (List.equal neighbor_eq g b) then ok := false)
          [ None; Some env ]
      done;
      !ok)

(* A pool always selects the grid path: with one job it runs inline,
   so these compare the grid kernel against the all-pairs one the
   default dispatch picks for small inputs like these. *)
let forced_grid f = Parallel.Pool.with_pool ~jobs:1 f

(* the adaptive dispatch itself: whatever kernel the default cutoff
   picks must equal the forced-grid result *)
let prop_cutoff_dispatch_identical =
  QCheck.Test.make ~count:50
    ~name:"adaptive cutoff: default dispatch = forced grid"
    (QCheck.make QCheck.Gen.(pair positions_gen (int_range 3 9)))
    (fun (positions, k) ->
      let radius =
        Array.map (fun _ -> Radio.Pathloss.max_range pl) positions
      in
      forced_grid @@ fun pool ->
      Graphkit.Ugraph.equal
        (Cbtc.Geo.max_power_graph pl positions)
        (Cbtc.Geo.max_power_graph ~pool pl positions)
      && Graphkit.Ugraph.equal
           (Baselines.Proximity.max_power pl positions)
           (Baselines.Proximity.max_power ~pool pl positions)
      && Graphkit.Ugraph.equal
           (Baselines.Yao.yao pl positions ~k)
           (Baselines.Yao.yao ~pool pl positions ~k)
      && Metrics.Interference.coverage positions ~radius
         = Metrics.Interference.coverage ~pool positions ~radius)

let prop_interference_identical =
  QCheck.Test.make ~count:100 ~name:"Interference.coverage: grid = brute"
    (QCheck.make QCheck.Gen.(pair positions_gen (int_range 0 200)))
    (fun (positions, r100) ->
      let n = Array.length positions in
      let radius =
        Array.init n (fun u ->
            if u mod 3 = 0 then 0. else Stdlib.float_of_int r100 /. 2.)
      in
      let i =
        forced_grid (fun pool ->
            Metrics.Interference.coverage ~pool positions ~radius)
      in
      (i.Metrics.Interference.max_coverage, i.Metrics.Interference.total_coverage)
      = Spec_geo.coverage positions ~radius)

(* ---------- Net.bcast audience through the index ---------- *)

let make_net positions =
  let sim = Dsim.Sim.create () in
  let channel = Dsim.Channel.reliable in
  let prng = Prng.create ~seed:7 in
  Airnet.Net.create ~sim ~pathloss:pl ~channel ~prng ~positions ()

let prop_bcast_audience =
  QCheck.Test.make ~count:50
    ~name:"Net.bcast reaches exactly the in-range live nodes"
    (QCheck.make QCheck.Gen.(pair positions_gen (float_range 1. 10000.)))
    (fun (positions, power) ->
      let n = Array.length positions in
      let net = make_net positions in
      let ok = ref true in
      for src = 0 to Stdlib.min (n - 1) 5 do
        let expected = ref 0 in
        for dst = 0 to n - 1 do
          if
            dst <> src
            && Radio.Pathloss.reaches pl ~power
                 ~dist:(Geom.Vec2.dist positions.(src) positions.(dst))
          then incr expected
        done;
        if Airnet.Net.bcast net ~src ~power "m" <> !expected then ok := false
      done;
      !ok)

let test_bcast_after_move () =
  (* moving a node in or out of range changes the audience accordingly *)
  let positions = [| Geom.Vec2.zero; v2 50. 0.; v2 500. 500. |] in
  let net = make_net positions in
  let power = Radio.Pathloss.max_power pl in
  Alcotest.(check int) "initially one in range" 1
    (Airnet.Net.bcast net ~src:0 ~power "a");
  Airnet.Net.set_position net 2 (v2 0. 60.);
  Alcotest.(check int) "moved-in node now reached" 2
    (Airnet.Net.bcast net ~src:0 ~power "b");
  Airnet.Net.set_position net 1 (v2 (-500.) 300.);
  Alcotest.(check int) "moved-out node dropped" 1
    (Airnet.Net.bcast net ~src:0 ~power "c")

let test_health_counters () =
  let n = 100 in
  let positions = Array.init n (fun i -> v2 (Stdlib.float_of_int i *. 15.) 0.) in
  let g = Geom.Grid.create ~range:10. positions in
  let h = Geom.Grid.health g in
  Alcotest.(check bool) "fresh index is pristine" true
    (h = { Geom.Grid.drifted = 0; overflow = 0; compactions = 0 });
  (* a same-cell move is not a drift *)
  Geom.Grid.move g 0 (v2 1. 1.);
  Alcotest.(check int) "same-cell move leaves no drift" 0
    (Geom.Grid.health g).Geom.Grid.drifted;
  (* a cell-changing move inside the dense window is an in-place CSR
     edit: it counts as drift but never touches the overflow table *)
  Geom.Grid.move g 0 (v2 17. 1.);
  let h = Geom.Grid.health g in
  Alcotest.(check int) "one drifted node" 1 h.Geom.Grid.drifted;
  Alcotest.(check int) "in-window drift stays out of overflow" 0
    h.Geom.Grid.overflow;
  Alcotest.(check int) "no compaction yet" 0 h.Geom.Grid.compactions;
  (* a move far outside the dense window has nowhere to land in the
     CSR arrays and parks in overflow *)
  Geom.Grid.move g 0 (v2 500. 500.);
  Alcotest.(check int) "out-of-window move overflows" 1
    (Geom.Grid.health g).Geom.Grid.overflow;
  (* sustained out-of-window drift crosses the rebuild threshold
     (max 64 (n/8) overflow entries here): the rebuild re-centers the
     window and absorbs the overflow back into the flat layout *)
  for u = 1 to n - 1 do
    Geom.Grid.move g u (v2 (Stdlib.float_of_int u *. 15.) 500.)
  done;
  let h = Geom.Grid.health g in
  Alcotest.(check bool) "compaction happened" true (h.Geom.Grid.compactions >= 1);
  Alcotest.(check bool) "rebuild absorbed the drift" true
    (h.Geom.Grid.drifted < n - 1);
  (* queries stay exact across the whole drift/rebuild cycle *)
  Alcotest.(check (list int)) "post-compaction probe exact" [ 1 ]
    (Geom.Grid.neighbors_within g 0 ~dist:520.
    |> List.filter (fun v -> v < 2))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "grid"
    [
      ( "unit",
        [
          Alcotest.test_case "rejects bad range" `Quick test_create_rejects_bad_range;
          Alcotest.test_case "empty grid" `Quick test_empty_grid;
          Alcotest.test_case "neighbors_within exact" `Quick test_neighbors_within_exact;
          Alcotest.test_case "cell boundary nodes" `Quick test_cell_boundary_nodes;
          Alcotest.test_case "negative coordinates" `Quick test_negative_coordinates;
          Alcotest.test_case "move rebuckets" `Quick test_move_rebuckets;
          Alcotest.test_case "health counters" `Quick test_health_counters;
          Alcotest.test_case "bcast after move" `Quick test_bcast_after_move;
        ] );
      ( "probe properties",
        qsuite
          [
            prop_neighbors_within_matches_brute;
            prop_fold_is_superset;
            prop_move_tracks_mobility;
          ] );
      ( "grid = brute",
        qsuite
          [
            prop_candidates_identical;
            prop_interference_identical;
            prop_cutoff_dispatch_identical;
            prop_bcast_audience;
          ] );
    ]
