(* Differential tests for the flat memory layouts: CSR adjacency vs the
   set-based Ugraph enumeration, the SoA discovery kernel
   (Geo.run_flat, Geo.grow_into) vs the list-based spec in spec_geo.ml,
   degenerate and mobile inputs on the CSR grid buckets, the occupancy
   contract, and the VmHWM parser behind peak-RSS reporting. *)

let v2 = Geom.Vec2.make

let pl = Radio.Pathloss.make ~max_range:100. ()

let alpha56 = Geom.Angle.five_pi_six

(* ---------- CSR adjacency = set-based graphs, same order ---------- *)

let edges_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun n ->
    list_size (int_range 0 120) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun raw ->
    let keep (u, v) = u <> v in
    let norm (u, v) = if u < v then (u, v) else (v, u) in
    (n, List.sort_uniq compare (List.map norm (List.filter keep raw))))

let prop_csr_of_ugraph_identical =
  QCheck.Test.make ~count:200
    ~name:"Csr.of_ugraph: rows = Ugraph.neighbors, same order"
    (QCheck.make edges_gen)
    (fun (n, edges) ->
      let g = Graphkit.Ugraph.of_edges n edges in
      let csr = Graphkit.Csr.of_ugraph g in
      let ok = ref (Graphkit.Csr.nb_nodes csr = n) in
      if Graphkit.Csr.nb_edges csr <> Graphkit.Ugraph.nb_edges g then
        ok := false;
      for u = 0 to n - 1 do
        if Graphkit.Csr.neighbors csr u <> Graphkit.Ugraph.neighbors g u then
          ok := false;
        if Graphkit.Csr.degree csr u <> Graphkit.Ugraph.degree g u then
          ok := false;
        (* iter and fold agree with the list shim *)
        let via_iter = ref [] in
        Graphkit.Csr.iter_neighbors csr u (fun v -> via_iter := v :: !via_iter);
        if List.rev !via_iter <> Graphkit.Csr.neighbors csr u then ok := false;
        let via_fold =
          Graphkit.Csr.fold_neighbors csr u ~init:[] ~f:(fun acc v ->
              v :: acc)
        in
        if List.rev via_fold <> Graphkit.Csr.neighbors csr u then ok := false
      done;
      !ok)

let test_csr_empty () =
  let csr = Graphkit.Csr.of_ugraph (Graphkit.Ugraph.create 0) in
  Alcotest.(check int) "no nodes" 0 (Graphkit.Csr.nb_nodes csr);
  Alcotest.(check int) "no edges" 0 (Graphkit.Csr.nb_edges csr);
  let one = Graphkit.Csr.of_ugraph (Graphkit.Ugraph.create 1) in
  Alcotest.(check (list int)) "isolated row" [] (Graphkit.Csr.neighbors one 0)

(* ---------- SoA discovery = list-based spec (Spec_geo) ---------- *)

let positions_gen =
  QCheck.Gen.(
    int_range 0 60 >>= fun n ->
    list_repeat n
      (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> v2 x y) pts))

let growth_gen =
  QCheck.Gen.oneofl
    [ Cbtc.Config.Exact; Cbtc.Config.Double 25.;
      Cbtc.Config.Mult { p0 = 100.; factor = 3. } ]

let prop_run_flat_matches_spec =
  QCheck.Test.make ~count:150
    ~name:"Soa.to_discovery (Geo.run_flat) = Spec_geo.run, bit-exact"
    (QCheck.make QCheck.Gen.(pair positions_gen growth_gen))
    (fun (positions, growth) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      Spec_geo.equal
        (Cbtc.Soa.to_discovery (Cbtc.Geo.run_flat config pl positions))
        (Spec_geo.run config pl positions))

let bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prop_pack_round_trip =
  QCheck.Test.make ~count:100
    ~name:"Discovery.pack (Spec_geo.rows s) = s, bit-exact"
    (QCheck.make QCheck.Gen.(pair positions_gen growth_gen))
    (fun (positions, growth) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let s = Cbtc.Geo.run_flat config pl positions in
      let r = Spec_geo.with_rows s (Spec_geo.rows s) in
      r.off = s.off && r.ids = s.ids
      && bits_eq r.dirs s.dirs && bits_eq r.links s.links
      && bits_eq r.tags s.tags && bits_eq r.power s.power
      && r.boundary = s.boundary)

let prop_run_flat_rows_sorted =
  QCheck.Test.make ~count:100
    ~name:"run_flat rows sorted by (link power, id); iter streams them"
    (QCheck.make QCheck.Gen.(pair positions_gen growth_gen))
    (fun (positions, growth) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let d = Cbtc.Geo.run_flat config pl positions in
      let ok = ref true in
      for u = 0 to Cbtc.Discovery.nb_nodes d - 1 do
        let prev = ref neg_infinity and prev_id = ref (-1) in
        let k = ref 0 in
        Cbtc.Discovery.iter_neighbors d u
          (fun ~id ~dir:_ ~link_power ~tag:_ ->
            if
              link_power < !prev
              || (link_power = !prev && id <= !prev_id)
            then ok := false;
            prev := link_power;
            prev_id := id;
            incr k);
        if !k <> Cbtc.Discovery.degree d u then ok := false
      done;
      !ok)

let prop_run_flat_pool_identical =
  QCheck.Test.make ~count:30
    ~name:"run_flat: sequential = pool(-j 2) = pool(-j 4), array-exact"
    (QCheck.make QCheck.Gen.(pair positions_gen growth_gen))
    (fun (positions, growth) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let seq = Cbtc.Geo.run_flat config pl positions in
      List.for_all
        (fun jobs ->
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Spec_geo.equal seq (Cbtc.Geo.run_flat ~pool config pl positions)))
        [ 2; 4 ])

let test_run_flat_degenerate () =
  let check_case name positions =
    let config = Cbtc.Config.make alpha56 in
    Alcotest.(check bool) name true
      (Spec_geo.equal
         (Cbtc.Geo.run_flat config pl positions)
         (Spec_geo.run config pl positions))
  in
  check_case "n = 0" [||];
  check_case "n = 1" [| Geom.Vec2.zero |];
  check_case "two coincident nodes" [| v2 5. 5.; v2 5. 5. |];
  check_case "many coincident nodes" (Array.make 7 (v2 1. 2.));
  check_case "coincident cluster + outlier"
    [| v2 0. 0.; v2 0. 0.; v2 0. 0.; v2 50. 0.; v2 500. 500. |]

(* ---------- CSR grid buckets: degenerate and mobile inputs ---------- *)

let brute_within positions u ~dist =
  let ids = ref [] in
  for v = Array.length positions - 1 downto 0 do
    if v <> u && Geom.Vec2.dist positions.(u) positions.(v) <= dist then
      ids := v :: !ids
  done;
  !ids

let test_grid_degenerate () =
  (* n <= 1 and all-coincident inputs exercise the zero-extent window
     fallback of the CSR rebuild *)
  let empty = Geom.Grid.create ~range:10. [||] in
  Alcotest.(check int) "empty" 0 (Geom.Grid.nb_nodes empty);
  let single = Geom.Grid.create ~range:10. [| v2 3. 3. |] in
  Alcotest.(check (list int)) "singleton: no neighbors" []
    (Geom.Grid.neighbors_within single 0 ~dist:1000.);
  let coincident = Geom.Grid.create ~range:10. (Array.make 5 (v2 7. 7.)) in
  Alcotest.(check (list int)) "coincident: all others at distance 0"
    [ 1; 2; 3; 4 ]
    (Geom.Grid.neighbors_within coincident 0 ~dist:0.)

let prop_grid_move_after_build =
  (* long move sequences drive the tombstone/overflow bookkeeping through
     several lazy compactions; the index must stay exact throughout *)
  QCheck.Test.make ~count:40 ~name:"grid move-after-build sequences stay exact"
    (QCheck.make
       QCheck.Gen.(
         triple positions_gen (int_range 0 1000) (float_bound_exclusive 80.)))
    (fun (positions, seed, dist) ->
      let n = Array.length positions in
      QCheck.assume (n > 0);
      let g = Geom.Grid.create ~range:30. positions in
      let prng = Prng.create ~seed in
      let current = Array.copy positions in
      let ok = ref true in
      for _step = 1 to 4 * n do
        let u = Prng.int prng n in
        let p =
          (* bias toward one spot so many nodes pile into one cell *)
          if Prng.int prng 3 = 0 then v2 10. 10.
          else v2 (Prng.float prng 300.) (Prng.float prng 300.)
        in
        current.(u) <- p;
        Geom.Grid.move g u p;
        let q = Prng.int prng n in
        if
          Geom.Grid.neighbors_within g q ~dist <> brute_within current q ~dist
        then ok := false
      done;
      !ok)

let prop_grid_edits_match_fresh_rebuild =
  (* every intermediate grid state of an edit sequence must answer
     exactly like an index freshly built over the current positions —
     the incremental CSR edits (swap-pop, neighbor-shift, overflow,
     compaction) may never be observable through the query API.  Moved
     positions are adversarial for cell assignment: exact multiples of
     the cell size (range 30), one-ulp-ish offsets across the cell
     boundary, and coincident piles. *)
  QCheck.Test.make ~count:60
    ~name:"grid edit sequences = fresh rebuild (boundary + coincident)"
    (QCheck.make
       QCheck.Gen.(
         triple positions_gen (int_range 0 1000) (float_bound_exclusive 80.)))
    (fun (positions, seed, dist) ->
      let n = Array.length positions in
      QCheck.assume (n > 0);
      let g = Geom.Grid.create ~range:30. positions in
      let prng = Prng.create ~seed in
      let current = Array.copy positions in
      let gen_coord () =
        match Prng.int prng 4 with
        | 0 -> 30. *. float_of_int (Prng.int prng 10)
        | 1 -> (30. *. float_of_int (Prng.int prng 10)) +. 1e-9
        | 2 -> (30. *. float_of_int (1 + Prng.int prng 9)) -. 1e-9
        | _ -> Prng.float prng 280.
      in
      let ok = ref true in
      for step = 1 to 3 * n do
        let u = Prng.int prng n in
        let p =
          match Prng.int prng 4 with
          | 0 -> v2 10. 10. (* coincident magnet *)
          | 1 -> current.(Prng.int prng n) (* land exactly on another *)
          | _ -> v2 (gen_coord ()) (gen_coord ())
        in
        current.(u) <- p;
        Geom.Grid.move g u p;
        (* a full fresh-rebuild comparison every few steps (every node,
           every probe), spot checks in between *)
        if step mod n = 0 then begin
          let fresh = Geom.Grid.create ~range:30. current in
          for q = 0 to n - 1 do
            if
              Geom.Grid.neighbors_within g q ~dist
              <> Geom.Grid.neighbors_within fresh q ~dist
            then ok := false
          done
        end
        else begin
          let q = Prng.int prng n in
          if
            Geom.Grid.neighbors_within g q ~dist
            <> brute_within current q ~dist
          then ok := false
        end
      done;
      !ok)

(* ---------- flat per-node kernel = spec grow_one, bit-exact ---------- *)

(* The daemon's allocation-free regrow path against the list-based
   per-node spec: same candidates (grid + alive mask), same power walk,
   same rows — float-for-float — for every live node. *)
let grow_into_matches_spec ?env positions growth seed =
  let pl = match env with Some e -> Radio.Env.pathloss e | None -> pl in
  let n = Array.length positions in
  let config = Cbtc.Config.make ~growth alpha56 in
  let prng = Prng.create ~seed in
  let alive_mask = Array.init n (fun _ -> Prng.int prng 4 > 0) in
  let alive v = alive_mask.(v) in
  let grid = Geom.Grid.create ~range:(Radio.Pathloss.max_range pl) positions in
  let schedule = Cbtc.Geo.schedule_of config pl in
  let scratch = Cbtc.Geo.scratch_create () in
  let ok = ref true in
  for u = 0 to n - 1 do
    if alive_mask.(u) then begin
      let nbrs, power, boundary =
        Spec_geo.grow_one ~grid ~alive ?env config pl positions u
      in
      let k, power', boundary' =
        Cbtc.Geo.grow_into ~grid ~alive ?env ~schedule scratch config pl
          positions u
      in
      if k <> List.length nbrs || power <> power' || boundary <> boundary'
      then ok := false
      else
        List.iteri
          (fun r (nb : Cbtc.Neighbor.t) ->
            if
              Cbtc.Geo.row_id scratch r <> nb.id
              || Cbtc.Geo.row_link scratch r <> nb.link_power
              || Cbtc.Geo.row_dir scratch r <> nb.dir
              || Cbtc.Geo.row_tag scratch r <> nb.tag
            then ok := false)
          nbrs
    end
  done;
  !ok

let prop_grow_into_matches_spec =
  QCheck.Test.make ~count:100
    ~name:"Geo.grow_into = Spec_geo.grow_one (grid + alive mask), bit-exact"
    (QCheck.make
       QCheck.Gen.(triple positions_gen growth_gen (int_range 0 1000)))
    (fun (positions, growth, seed) ->
      QCheck.assume (Array.length positions > 0);
      grow_into_matches_spec positions growth seed)

let prop_grow_into_env_matches_spec =
  QCheck.Test.make ~count:60
    ~name:"sigma > 0 / obstacles: Geo.grow_into ~env = Spec_geo.grow_one ~env"
    (QCheck.make
       QCheck.Gen.(
         triple positions_gen growth_gen (int_range 0 1000)
         >>= fun (positions, growth, seed) ->
         Gen_common.env_gen ~max_range:100. (Array.length positions)
         >|= fun env ->
         (positions, growth, seed, env)))
    (fun (positions, growth, seed, env) ->
      QCheck.assume (Array.length positions > 0);
      grow_into_matches_spec ~env positions growth seed)

let test_grow_into_rejects_out_of_range () =
  let positions = [| v2 0. 0.; v2 10. 0. |] in
  let config = Cbtc.Config.make alpha56 in
  let schedule = Cbtc.Geo.schedule_of config pl in
  let scratch = Cbtc.Geo.scratch_create () in
  Alcotest.check_raises "u = n"
    (Invalid_argument "Geo.grow_into: node out of range") (fun () ->
      ignore
        (Cbtc.Geo.grow_into ~schedule scratch config pl positions
           (Array.length positions)))

(* ---------- occupancy: one linear pass, sorted descending ---------- *)

let test_occupancy_sorted_descending () =
  (* cells of size 4, 2, 1 (range 10 buckets by floor(coord / 10)) *)
  let positions =
    [|
      v2 1. 1.; v2 2. 2.; v2 3. 3.; v2 4. 4.;
      v2 25. 25.; v2 26. 26.;
      v2 95. 95.;
    |]
  in
  let g = Geom.Grid.create ~range:10. positions in
  Alcotest.(check (list int)) "pristine index" [ 4; 2; 1 ]
    (Geom.Grid.occupancy g);
  (* after moves the counts must follow the nodes *)
  Geom.Grid.move g 6 (v2 27. 27.);
  Alcotest.(check (list int)) "after move" [ 4; 3 ] (Geom.Grid.occupancy g);
  Alcotest.(check (list int)) "empty grid" []
    (Geom.Grid.occupancy (Geom.Grid.create ~range:10. [||]))

let prop_occupancy_totals =
  QCheck.Test.make ~count:100
    ~name:"occupancy sums to n and is sorted descending"
    (QCheck.make positions_gen)
    (fun positions ->
      let g = Geom.Grid.create ~range:25. positions in
      let occ = Geom.Grid.occupancy g in
      List.fold_left ( + ) 0 occ = Array.length positions
      && List.sort (fun a b -> Int.compare b a) occ = occ
      && List.for_all (fun c -> c > 0) occ)

(* ---------- VmHWM parser on canned /proc/self/status content ---------- *)

let canned_status =
  "Name:\tcbtc_cli\nUmask:\t0022\nState:\tR (running)\n\
   VmPeak:\t  123456 kB\nVmSize:\t  120000 kB\nVmHWM:\t   98304 kB\n\
   VmRSS:\t   97000 kB\nThreads:\t1\n"

let test_parse_vmhwm () =
  Alcotest.(check (option int)) "canned status" (Some 98304)
    (Obs.Rss.parse_vmhwm canned_status);
  Alcotest.(check (option int)) "spaces instead of tabs" (Some 512)
    (Obs.Rss.parse_vmhwm "VmHWM:   512 kB\n");
  Alcotest.(check (option int)) "missing field" None
    (Obs.Rss.parse_vmhwm "Name:\tx\nVmRSS:\t  97000 kB\n");
  Alcotest.(check (option int)) "empty" None (Obs.Rss.parse_vmhwm "");
  Alcotest.(check (option int)) "malformed value" None
    (Obs.Rss.parse_vmhwm "VmHWM:\tnot-a-number kB\n");
  (* the prefix "VmHWMX" must not match *)
  Alcotest.(check (option int)) "similar field name" None
    (Obs.Rss.parse_vmhwm "VmHWMX:\t  7 kB\n")

let test_peak_rss_live () =
  (* on Linux CI this must report a positive peak; elsewhere None is fine *)
  match Obs.Rss.peak_rss_kb () with
  | Some kb -> Alcotest.(check bool) "positive" true (kb > 0)
  | None -> ()

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "csr"
    [
      ( "adjacency",
        Alcotest.test_case "empty graphs" `Quick test_csr_empty
        :: qsuite [ prop_csr_of_ugraph_identical ] );
      ( "soa discovery",
        Alcotest.test_case "degenerate inputs" `Quick test_run_flat_degenerate
        :: qsuite
             [
               prop_run_flat_matches_spec;
               prop_pack_round_trip;
               prop_run_flat_rows_sorted;
               prop_run_flat_pool_identical;
             ] );
      ( "grid buckets",
        Alcotest.test_case "degenerate inputs" `Quick test_grid_degenerate
        :: qsuite
             [
               prop_grid_move_after_build;
               prop_grid_edits_match_fresh_rebuild;
             ] );
      ( "flat kernel",
        Alcotest.test_case "node out of range" `Quick
          test_grow_into_rejects_out_of_range
        :: qsuite
             [ prop_grow_into_matches_spec; prop_grow_into_env_matches_spec ]
      );
      ( "occupancy",
        Alcotest.test_case "sorted descending" `Quick
          test_occupancy_sorted_descending
        :: qsuite [ prop_occupancy_totals ] );
      ( "peak rss",
        [
          Alcotest.test_case "parse_vmhwm" `Quick test_parse_vmhwm;
          Alcotest.test_case "live read" `Quick test_peak_rss_live;
        ] );
    ]
