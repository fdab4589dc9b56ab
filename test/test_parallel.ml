(* The Parallel domain pool and seed splitter: unit tests for pool
   lifecycle and exception propagation, qcheck properties for order
   preservation and chunk coverage, and differential tests asserting
   that pooled runs of the construction phases are bit-identical to
   sequential ones for every jobs level. *)

let alpha56 = Geom.Angle.five_pi_six

let jobs_levels = [ 1; 2; 4 ]

(* ---------- unit: pool lifecycle ---------- *)

let test_create_rejects_bad_jobs () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Pool.create: jobs out of [1,1024]") (fun () ->
      ignore (Parallel.Pool.create ~jobs:0 ()));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pool.create: jobs out of [1,1024]") (fun () ->
      ignore (Parallel.Pool.create ~jobs:(-3) ()))

let test_jobs_accessor () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check int) "jobs" jobs (Parallel.Pool.jobs pool)))
    jobs_levels

let test_shutdown_idempotent_and_closed () =
  let pool = Parallel.Pool.create ~jobs:2 () in
  Alcotest.(check (array int)) "works before shutdown" [| 2; 4 |]
    (Parallel.Pool.map pool (fun x -> 2 * x) [| 1; 2 |]);
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      ignore (Parallel.Pool.map pool Fun.id [| 1 |]))

let test_empty_and_singleton () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int)) "empty" [||]
            (Parallel.Pool.map pool (fun x -> x + 1) [||]);
          Alcotest.(check (array int)) "singleton" [| 8 |]
            (Parallel.Pool.map pool (fun x -> x + 1) [| 7 |])))
    jobs_levels

exception Boom of int

let test_exception_propagates_lowest_index () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          match
            Parallel.Pool.map pool
              (fun i -> if i >= 3 then raise (Boom i) else i)
              [| 0; 1; 2; 3; 4; 5 |]
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
              Alcotest.(check int)
                (Fmt.str "lowest failing index at jobs=%d" jobs)
                3 i;
              (* the pool must stay usable after a failed batch *)
              Alcotest.(check (array int)) "pool survives" [| 10 |]
                (Parallel.Pool.map pool (fun x -> 10 * x) [| 1 |])))
    jobs_levels

let test_nested_submission () =
  (* a task may itself fan out on the same pool without deadlocking *)
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let r =
        Parallel.Pool.map pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Parallel.Pool.map pool (fun j -> (10 * i) + j) [| 1; 2; 3 |]))
          [| 1; 2 |]
      in
      Alcotest.(check (array int)) "nested" [| 36; 66 |] r)

(* ---------- properties: map and iter_chunks ---------- *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let prop_map_order_preserving =
  QCheck.Test.make ~count:100 ~name:"Pool.map preserves order at every jobs"
    (QCheck.make QCheck.Gen.(pair (oneofl jobs_levels) (list small_int)))
    (fun (jobs, xs) ->
      let input = Array.of_list xs in
      let expected = Array.map (fun x -> (3 * x) - 1) input in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.map pool (fun x -> (3 * x) - 1) input = expected))

let prop_iter_chunks_exact_partition =
  QCheck.Test.make ~count:100
    ~name:"iter_chunks covers [0,n) exactly once at every jobs/chunk"
    (QCheck.make
       QCheck.Gen.(
         triple (oneofl jobs_levels) (int_range 0 500) (int_range 1 64)))
    (fun (jobs, n, chunk) ->
      let hits = Array.make n 0 in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.iter_chunks pool ~chunk n (fun lo hi ->
              for i = lo to hi - 1 do
                (* within a batch each slot belongs to exactly one chunk,
                   so unsynchronized increments are safe *)
                hits.(i) <- hits.(i) + 1
              done));
      Array.for_all (fun c -> c = 1) hits)

(* ---------- seeds: schedule-independent streams ---------- *)

let test_split_n_deterministic () =
  let streams ~seed =
    Array.map
      (fun p -> List.init 4 (fun _ -> Prng.int p 1_000_000))
      (Parallel.Seeds.split_n (Prng.create ~seed) 8)
  in
  Alcotest.(check bool) "same seed, same streams" true
    (streams ~seed:42 = streams ~seed:42);
  Alcotest.(check bool) "different seed, different streams" true
    (streams ~seed:42 <> streams ~seed:43);
  (* draining stream i does not change stream j: independence from task
     completion order *)
  let a = Parallel.Seeds.split_n (Prng.create ~seed:7) 3 in
  let b = Parallel.Seeds.split_n (Prng.create ~seed:7) 3 in
  ignore (Prng.int a.(0) 1000);
  ignore (Prng.int a.(2) 1000);
  Alcotest.(check int) "stream 1 unaffected"
    (Prng.int b.(1) 1_000_000)
    (Prng.int a.(1) 1_000_000)

let test_seeds_reject_negative () =
  Alcotest.check_raises "split_n"
    (Invalid_argument "Seeds.split_n: negative count") (fun () ->
      ignore (Parallel.Seeds.split_n (Prng.create ~seed:1) (-1)));
  Alcotest.check_raises "ints" (Invalid_argument "Seeds.ints: negative count")
    (fun () -> ignore (Parallel.Seeds.ints (Prng.create ~seed:1) (-1)))

(* ---------- differential: pooled construction = sequential ---------- *)

let positions_of ~seed ~n =
  let sc = Workload.Scenario.make ~n ~width:400. ~height:400. ~seed () in
  (Workload.Scenario.pathloss sc, Workload.Scenario.positions sc)

let prop_pooled_constructions_identical =
  QCheck.Test.make ~count:20
    ~name:"Geo.run_flat/Proximity/Yao/Interference: pooled = sequential"
    (QCheck.make
       QCheck.Gen.(
         triple (oneofl [ 2; 4 ]) (int_range 2 80) (int_range 0 10_000)))
    (fun (jobs, n, seed) ->
      let pathloss, positions = positions_of ~seed ~n in
      let config = Cbtc.Config.make alpha56 in
      let radius =
        Array.map (fun _ -> Radio.Pathloss.max_range pathloss) positions
      in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Spec_geo.equal
            (Cbtc.Geo.run_flat config pathloss positions)
            (Cbtc.Geo.run_flat ~pool config pathloss positions)
          && Graphkit.Ugraph.equal
               (Cbtc.Geo.max_power_graph pathloss positions)
               (Cbtc.Geo.max_power_graph ~pool pathloss positions)
          && Graphkit.Ugraph.equal
               (Baselines.Proximity.rng pathloss positions)
               (Baselines.Proximity.rng ~pool pathloss positions)
          && Graphkit.Ugraph.equal
               (Baselines.Proximity.gabriel pathloss positions)
               (Baselines.Proximity.gabriel ~pool pathloss positions)
          && Graphkit.Ugraph.equal
               (Baselines.Proximity.knn pathloss positions ~k:4)
               (Baselines.Proximity.knn ~pool pathloss positions ~k:4)
          && Graphkit.Ugraph.equal
               (Baselines.Yao.yao pathloss positions ~k:6)
               (Baselines.Yao.yao ~pool pathloss positions ~k:6)
          && Metrics.Interference.coverage positions ~radius
             = Metrics.Interference.coverage ~pool positions ~radius))

(* ---------- differential: whole trial sweeps, byte-identical ---------- *)

(* A miniature Monte-Carlo sweep in the shape of the bench/CLI loops:
   fan trials out with Pool.map, fold Welford accumulators in seed
   order, render to a string.  The rendering must be byte-identical for
   every jobs level. *)
let sweep_render ~jobs =
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let buf = Buffer.create 256 in
      let seeds = Array.of_list (Workload.Scenario.seeds ~base:11 ~count:6) in
      let trial seed =
        let pathloss, positions = positions_of ~seed ~n:40 in
        let r =
          Cbtc.Pipeline.run_oracle pathloss positions
            (Cbtc.Pipeline.all_ops (Cbtc.Config.make alpha56))
        in
        (Cbtc.Pipeline.avg_degree r, Cbtc.Pipeline.avg_radius r)
      in
      let dacc = Stats.Welford.create () and racc = Stats.Welford.create () in
      Array.iter
        (fun (d, r) ->
          Stats.Welford.add dacc d;
          Stats.Welford.add racc r)
        (Parallel.Pool.map pool trial seeds);
      Buffer.add_string buf
        (Fmt.str "%.17g %.17g" (Stats.Welford.mean dacc)
           (Stats.Welford.mean racc));
      Buffer.contents buf)

let test_sweep_identical_across_jobs () =
  let reference = sweep_render ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Fmt.str "sweep at jobs=%d" jobs)
        reference (sweep_render ~jobs))
    jobs_levels

(* A miniature stress grid in the shape of cbtc_cli stress: per-cell
   channel copies and fault prngs, cells fanned out, JSON-ish rendering
   folded in grid order. *)
let stress_render ~jobs =
  let pathloss, positions = positions_of ~seed:7 ~n:24 in
  let n = Array.length positions in
  let config =
    Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha56
  in
  let baseline = Cbtc.Distributed.run ~seed:7 config pathloss positions in
  let template =
    Dsim.Channel.gilbert_elliott ~p_gb:0.1 ~p_bg:0.25 ~loss_bad:1. ()
  in
  let cells = [| (0, 0.); (1, 0.1); (2, 0.2) |] in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let run_cell (ci, crash) =
        let channel = Dsim.Channel.copy template in
        let plan =
          if crash <= 0. then Faults.Plan.empty
          else
            Faults.Plan.random_crashes
              ~prng:(Prng.create ~seed:(7 + (100 * ci)))
              ~n ~fraction:crash ~window:(10., 60.) ()
        in
        let o =
          Cbtc.Distributed.run ~channel ~seed:7
            ~reliability:Cbtc.Distributed.hardened ~faults:plan config
            pathloss positions
        in
        let deg = Cbtc.Verify.degradation ~reference:baseline o in
        Fmt.str "{cell %d: survivors %d, conn %b, dlv %.4f}" ci
          deg.Cbtc.Verify.survivors deg.Cbtc.Verify.connectivity_preserved
          deg.Cbtc.Verify.delivery_ratio
      in
      String.concat ","
        (Array.to_list (Parallel.Pool.map pool run_cell cells)))

let test_stress_identical_across_jobs () =
  let reference = stress_render ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Fmt.str "stress at jobs=%d" jobs)
        reference (stress_render ~jobs))
    jobs_levels

let () =
  Alcotest.run "parallel"
    [
      ( "pool unit",
        [
          Alcotest.test_case "rejects bad jobs" `Quick test_create_rejects_bad_jobs;
          Alcotest.test_case "jobs accessor" `Quick test_jobs_accessor;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent_and_closed;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates_lowest_index;
          Alcotest.test_case "nested submission" `Quick test_nested_submission;
        ] );
      ( "pool properties",
        qsuite [ prop_map_order_preserving; prop_iter_chunks_exact_partition ] );
      ( "seeds",
        [
          Alcotest.test_case "split_n deterministic" `Quick test_split_n_deterministic;
          Alcotest.test_case "negative counts rejected" `Quick test_seeds_reject_negative;
        ] );
      ( "pooled = sequential",
        qsuite [ prop_pooled_constructions_identical ] );
      ( "sweep determinism",
        [
          Alcotest.test_case "mini alpha sweep, all -j" `Quick test_sweep_identical_across_jobs;
          Alcotest.test_case "mini stress grid, all -j" `Quick test_stress_identical_across_jobs;
        ] );
    ]
