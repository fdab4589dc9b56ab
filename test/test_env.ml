(* Differential suite for the per-link propagation environment
   (Radio.Env).

   The load-bearing contract is bit-identity: under a trivial
   environment (sigma = 0, no obstacles, no height loss) every wired
   site — Geo.run_flat, G_R and its partition, the
   proximity/Yao/SMECN baselines, and the daemon engine — must equal a
   pure-Pathloss oracle at every pool size, and every Env link function
   its Pathloss counterpart at the reach boundary.  On top of that, the
   shadowing hash itself must be symmetric, deterministic in
   (shadow_seed, {u, v}), clamped, and the full env link power
   float-exactly symmetric (including obstacle crossings, whose
   segment-distance computation is canonicalized by node id).  The
   kernel entry [link_into] must take the exact test's decision (its
   fast reject included), store the exact link power, and allocate
   nothing. *)

let v2 = Geom.Vec2.make

let pl = Radio.Pathloss.make ~max_range:100. ()

let alpha56 = Geom.Angle.five_pi_six

let positions_gen =
  QCheck.Gen.(
    int_range 2 50 >>= fun n ->
    list_repeat n
      (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> v2 x y) pts))

let growth_gen =
  QCheck.Gen.oneofl
    [ Cbtc.Config.Exact; Cbtc.Config.Double 25.;
      Cbtc.Config.Mult { p0 = 100.; factor = 3. } ]

let env_gen = Gen_common.env_gen ~max_range:(Radio.Pathloss.max_range pl)

(* ---------- structural equality helpers (float-exact) ---------- *)

let graph_eq a b =
  let n = Graphkit.Ugraph.nb_nodes a in
  n = Graphkit.Ugraph.nb_nodes b
  && Graphkit.Ugraph.nb_edges a = Graphkit.Ugraph.nb_edges b
  &&
  let ok = ref true in
  for u = 0 to n - 1 do
    if Graphkit.Ugraph.neighbors a u <> Graphkit.Ugraph.neighbors b u then
      ok := false
  done;
  !ok

(* ---------- sigma = 0 bit-identity at every wired site ---------- *)

(* Every wired site runs under Radio.Env, the trivial env when none is
   given, so "trivial env = no env" is one path compared with itself.
   The properties below pin that path against oracles that keep the
   pure-Pathloss spelling instead: Spec_geo.run (whose trivial branch
   never calls Radio.Env) and the pure pair scans of test/spec_geo.ml.
   Two trivial envs are exercised: [Env.trivial], and heights without a
   height-loss coefficient under a clamp with no shadowing to clamp. *)

let trivial_env = Radio.Env.trivial pl

let heights_env =
  Radio.Env.make ~clamp_db:6.
    ~heights:(Array.init 64 (fun i -> Stdlib.float_of_int (i mod 7)))
    pl

let trivial_envs = [ None; Some trivial_env; Some heights_env ]

let prop_trivial_run_flat_identical =
  QCheck.Test.make ~count:80
    ~name:"Geo.run_flat: trivial env = no env, array-exact"
    (QCheck.make QCheck.Gen.(pair positions_gen growth_gen))
    (fun (positions, growth) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let spec = Spec_geo.run config pl positions in
      List.for_all
        (fun env ->
          Spec_geo.equal spec (Cbtc.Geo.run_flat ?env config pl positions)
          && List.for_all
               (fun jobs ->
                 Parallel.Pool.with_pool ~jobs (fun pool ->
                     Spec_geo.equal spec
                       (Cbtc.Geo.run_flat ~pool ?env config pl positions)))
               [ 2; 4 ])
        trivial_envs)

(* Each builder is compared twice: under the default dispatch (the
   all-pairs kernels for inputs this small) and with the grid forced by
   a one-job pool. *)
let prop_trivial_baselines_identical =
  QCheck.Test.make ~count:100
    ~name:"baselines (GR/RNG/Gabriel/MST/kNN/Yao/SMECN): trivial env = no env"
    (QCheck.make
       QCheck.Gen.(triple positions_gen (int_range 1 8) (int_range 3 9)))
    (fun (positions, knn_k, yao_k) ->
      let alive = Array.mapi (fun u _ -> u mod 3 <> 1) positions in
      let energy = Radio.Energy.make pl in
      let gr = Spec_geo.max_power_graph pl positions in
      let knn = Spec_geo.knn pl positions ~k:knn_k in
      let yao = Spec_geo.yao pl positions ~k:yao_k in
      Parallel.Pool.with_pool ~jobs:1 @@ fun grid ->
      List.for_all
        (fun env ->
          List.for_all
            (fun pool ->
              graph_eq gr (Baselines.Proximity.max_power ?pool ?env pl positions)
              && graph_eq gr (Cbtc.Geo.max_power_graph ?pool ?env pl positions)
              && graph_eq knn
                   (Baselines.Proximity.knn ?pool ?env pl positions ~k:knn_k)
              && graph_eq yao
                   (Baselines.Yao.yao ?pool ?env pl positions ~k:yao_k))
            [ None; Some grid ]
          && Spec_geo.max_power_partition ~alive pl positions
             = Cbtc.Geo.max_power_partition ?env ~alive pl positions
          && graph_eq
               (Spec_geo.rng pl positions)
               (Baselines.Proximity.rng ?env pl positions)
          && graph_eq
               (Spec_geo.gabriel pl positions)
               (Baselines.Proximity.gabriel ?env pl positions)
          && graph_eq
               (Spec_geo.euclidean_mst pl positions)
               (Baselines.Proximity.euclidean_mst ?env pl positions)
          && graph_eq
               (Spec_geo.smecn energy positions)
               (Baselines.Smecn.smecn ?env energy positions))
        trivial_envs)

(* The daemon engine: after a little event history (every node alive
   again at the end), its tracked discovery must equal the pure spec
   over the final positions, and the digest (full tracked state) must
   be the same under every trivial env and pool size. *)
let prop_trivial_engine_identical =
  QCheck.Test.make ~count:30
    ~name:"daemon engine: trivial env = no env, digest-exact, -j 1/2/4"
    (QCheck.make QCheck.Gen.(pair positions_gen growth_gen))
    (fun (positions, growth) ->
      let n = Array.length positions in
      QCheck.assume (n >= 3);
      let config = Cbtc.Config.make ~growth alpha56 in
      let events =
        [
          { Daemon.Event.time = 0.1; node = 0;
            kind = Daemon.Event.Move (v2 10. 20.) };
          { Daemon.Event.time = 0.2; node = n - 1; kind = Daemon.Event.Leave };
          { Daemon.Event.time = 0.3; node = 1;
            kind = Daemon.Event.Move (v2 250. 250.) };
          { Daemon.Event.time = 0.4; node = n - 1;
            kind = Daemon.Event.Join (v2 150. 150.) };
        ]
      in
      let engine ?pool ?env () =
        let eng =
          Daemon.Engine.create ?pool ?env ~watchdog_frac:1. config pl positions
        in
        List.iter (Daemon.Engine.apply eng) events;
        ignore (Daemon.Engine.commit ?pool eng);
        eng
      in
      let plain = engine () in
      let final = Array.init n (Daemon.Engine.position plain) in
      let digest = Daemon.Engine.digest plain in
      Spec_geo.equal
        (Spec_geo.run config pl final)
        (Daemon.Engine.discovery plain)
      && List.for_all
           (fun env ->
             String.equal digest (Daemon.Engine.digest (engine ?env ()))
             && List.for_all
                  (fun jobs ->
                    Parallel.Pool.with_pool ~jobs (fun pool ->
                        String.equal digest
                          (Daemon.Engine.digest (engine ~pool ?env ()))))
                  [ 2; 4 ])
        trivial_envs)

(* At distances within a few ulps of the reach distance — where the
   membership tests flip — every Env function must return its Pathloss
   counterpart's float, bit for bit, under both trivial envs. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec ulps d k =
  if k = 0 then d
  else if k > 0 then ulps (Float.succ d) (k - 1)
  else ulps (Float.pred d) (k + 1)

let prop_trivial_boundary_bit_exact =
  QCheck.Test.make ~count:500
    ~name:"Env at the reach boundary = Pathloss, bit-exact"
    (QCheck.make
       QCheck.Gen.(
         quad
           (triple (float_range 2. 4.) (float_range 0.5 2.)
              (float_range 10. 1000.))
           (float_range 0.01 1.) (int_range (-4) 4)
           (pair (int_range 0 80) (int_range 0 80))))
    (fun ((exponent, coeff, max_range), frac, k, (u, v)) ->
      let pl = Radio.Pathloss.make ~exponent ~coeff ~max_range () in
      let max_power = Radio.Pathloss.max_power pl in
      let power = frac *. max_power in
      let heights = Array.init 64 (fun i -> Stdlib.float_of_int (i mod 7)) in
      let envs =
        [ Radio.Env.trivial pl; Radio.Env.make ~clamp_db:6. ~heights pl ]
      in
      let dists =
        [
          ulps (Radio.Pathloss.reach_distance pl ~power) k;
          ulps (Radio.Pathloss.reach_distance pl ~power:max_power) k;
        ]
      in
      List.for_all
        (fun e ->
          same_bits
            (Radio.Env.probe_radius e ~power)
            (Radio.Pathloss.reach_distance pl ~power)
          && same_bits (Radio.Env.max_reach e)
               (Radio.Pathloss.reach_distance pl ~power:max_power)
          && List.for_all
               (fun dist ->
                 let pu = v2 0. 0. and pv = v2 dist 0. in
                 Radio.Env.in_range e ~u ~v ~pu ~pv ~dist
                 = Radio.Pathloss.in_range pl ~dist
                 && Radio.Env.reaches e ~power ~u ~v ~pu ~pv ~dist
                    = Radio.Pathloss.reaches pl ~power ~dist
                 && same_bits
                      (Radio.Env.link_power e ~u ~v ~pu ~pv ~dist)
                      (Radio.Pathloss.power_for_distance pl dist)
                 && same_bits
                      (Radio.Env.rx_power e ~tx_power:power ~u ~v ~pu ~pv
                         ~dist)
                      (Radio.Pathloss.rx_power pl ~tx_power:power ~dist))
               dists)
        envs)

(* ---------- shadowing hash properties ---------- *)

let pair_gen =
  QCheck.Gen.(
    triple (float_range 0.1 10.) (int_range 0 10_000)
      (pair (int_range 0 2000) (int_range 0 2000)))

let prop_shadow_symmetric_deterministic =
  QCheck.Test.make ~count:500
    ~name:"shadow_db: symmetric, seed-deterministic, clamped"
    (QCheck.make pair_gen)
    (fun (sigma, seed, (u, v)) ->
      let e = Radio.Env.make ~sigma_db:sigma ~shadow_seed:seed pl in
      let e' = Radio.Env.make ~sigma_db:sigma ~shadow_seed:seed pl in
      let x = Radio.Env.shadow_db e ~u ~v in
      (* float-exact symmetry *)
      x = Radio.Env.shadow_db e ~u:v ~v:u
      (* same (seed, pair) = same draw across independent envs *)
      && x = Radio.Env.shadow_db e' ~u ~v
      && Float.abs x <= Radio.Env.clamp_db e
      && Float.is_finite x)

let prop_shadow_seed_sensitive =
  QCheck.Test.make ~count:200
    ~name:"shadow_db: some pair separates different shadow seeds"
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 10_000)))
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let e1 = Radio.Env.make ~sigma_db:4. ~shadow_seed:s1 pl in
      let e2 = Radio.Env.make ~sigma_db:4. ~shadow_seed:s2 pl in
      (* one collision is conceivable; 32 independent pairs all
         colliding means the seed is not being mixed in *)
      let differs = ref false in
      for u = 0 to 31 do
        if
          Radio.Env.shadow_db e1 ~u ~v:(u + 1)
          <> Radio.Env.shadow_db e2 ~u ~v:(u + 1)
        then differs := true
      done;
      !differs)

let prop_link_power_symmetric =
  QCheck.Test.make ~count:200
    ~name:"link_power: float-exactly symmetric under full env"
    (QCheck.make
       QCheck.Gen.(
         positions_gen >>= fun positions ->
         env_gen (Array.length positions) >|= fun env -> (positions, env)))
    (fun (positions, env) ->
      let n = Array.length positions in
      QCheck.assume (n >= 2);
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let pu = positions.(u) and pv = positions.(v) in
          let dist = Geom.Vec2.dist pu pv in
          let a = Radio.Env.link_power env ~u ~v ~pu ~pv ~dist in
          let b = Radio.Env.link_power env ~u:v ~v:u ~pu:pv ~pv:pu ~dist in
          if a <> b then ok := false
        done
      done;
      !ok)

let prop_probe_radius_bounds_support =
  QCheck.Test.make ~count:200
    ~name:"probe_radius bounds the support of env reaches"
    (QCheck.make
       QCheck.Gen.(
         positions_gen >>= fun positions ->
         env_gen (Array.length positions) >|= fun env -> (positions, env)))
    (fun (positions, env) ->
      let n = Array.length positions in
      QCheck.assume (n >= 2);
      let power = Radio.Pathloss.max_power (Radio.Env.pathloss env) in
      let reach = Radio.Env.max_reach env in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let pu = positions.(u) and pv = positions.(v) in
          let dist = Geom.Vec2.dist pu pv in
          if
            Radio.Env.reaches env ~power ~u ~v ~pu ~pv ~dist
            && dist > reach
          then ok := false
        done
      done;
      !ok)

(* ---------- sigma > 0: kernel = spec, and -j independence ---------- *)

let prop_env_run_flat_matches_spec =
  QCheck.Test.make ~count:60
    ~name:"sigma > 0: Soa.to_discovery (run_flat ~env) = Spec_geo.run ~env"
    (QCheck.make
       QCheck.Gen.(
         pair positions_gen growth_gen >>= fun (positions, growth) ->
         env_gen (Array.length positions) >|= fun env ->
         (positions, growth, env)))
    (fun (positions, growth, env) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let pl = Radio.Env.pathloss env in
      Spec_geo.equal
        (Cbtc.Soa.to_discovery (Cbtc.Geo.run_flat ~env config pl positions))
        (Spec_geo.run ~env config pl positions))

let prop_env_pool_identical =
  QCheck.Test.make ~count:30
    ~name:"sigma > 0: run_flat sequential = -j 2 = -j 4, array-exact"
    (QCheck.make
       QCheck.Gen.(
         pair positions_gen growth_gen >>= fun (positions, growth) ->
         env_gen (Array.length positions) >|= fun env ->
         (positions, growth, env)))
    (fun (positions, growth, env) ->
      let config = Cbtc.Config.make ~growth alpha56 in
      let pl = Radio.Env.pathloss env in
      let seq = Cbtc.Geo.run_flat ~env config pl positions in
      List.for_all
        (fun jobs ->
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Spec_geo.equal seq (Cbtc.Geo.run_flat ~pool ~env config pl positions)))
        [ 2; 4 ])

(* The daemon under a non-trivial env: incremental regrowth must still
   equal a full recompute (the probe radius and dirty cut are env-aware,
   and link symmetry keeps discovery well-defined). *)
let prop_env_engine_equivalence =
  QCheck.Test.make ~count:20
    ~name:"sigma > 0: engine incremental = full recompute"
    (QCheck.make
       QCheck.Gen.(
         pair positions_gen growth_gen >>= fun (positions, growth) ->
         env_gen (Array.length positions) >|= fun env ->
         (positions, growth, env)))
    (fun (positions, growth, env) ->
      let n = Array.length positions in
      QCheck.assume (n >= 3);
      let config = Cbtc.Config.make ~growth alpha56 in
      let eng =
        Daemon.Engine.create ~env ~watchdog_frac:2. config
          (Radio.Env.pathloss env) positions
      in
      let events =
        [
          { Daemon.Event.time = 0.1; node = 0;
            kind = Daemon.Event.Move (v2 10. 20.) };
          { Daemon.Event.time = 0.2; node = n - 1; kind = Daemon.Event.Leave };
          { Daemon.Event.time = 0.3; node = 1;
            kind = Daemon.Event.Move (v2 250. 250.) };
          { Daemon.Event.time = 0.4; node = n - 1;
            kind = Daemon.Event.Join (v2 150. 150.) };
          { Daemon.Event.time = 0.5; node = n / 2;
            kind = Daemon.Event.Move (v2 40. 260.) };
        ]
      in
      List.for_all
        (fun ev ->
          Daemon.Engine.apply eng ev;
          ignore (Daemon.Engine.commit eng);
          match Daemon.Engine.check_full_equivalence eng with
          | Ok () -> true
          | Error _ -> false)
        events)

(* ---------- link_into: the kernel entry = the spec test ---------- *)

(* [link_into] is [in_range] at the kernel's distance spelling, and an
   admitted pair's lane slot is its [link_power] bit for bit.  The slot
   is poisoned first, so a missing write shows. *)
let link_into_agrees env lane ~u ~v ~pu ~pv =
  let dist = Geom.Vec2.dist pu pv in
  let exact = Radio.Env.link_power env ~u ~v ~pu ~pv ~dist in
  Bigarray.Array1.set lane 0 Float.nan;
  let accepted = Radio.Env.link_into env ~u ~v ~pu ~pv lane 0 in
  accepted = (exact <= Radio.Env.max_link_cap env)
  && ((not accepted) || same_bits (Bigarray.Array1.get lane 0) exact)

(* node ids reach past the 64 drawn heights (height 0 there), and a
   relabeling, when drawn, covers all of them *)
let ids = 80

let sound_env_gen =
  QCheck.Gen.(
    env_gen 64 >>= fun env ->
    option (array_repeat ids (int_range 0 10_000)) >|= fun labels ->
    match labels with
    | None -> env
    | Some labels -> Radio.Env.relabel ~labels env)

(* A pair's distance as a fraction of [max_reach]: anywhere, or a few
   ulps from 1.  At [max_reach] a pair whose draw sits on the clamp (or
   on a bin's bound) has a link power within rounding of the cap, where
   a fast reject without its margin would drop accepted pairs. *)
let reach_frac_gen =
  QCheck.Gen.(
    frequency
      [
        (3, float_range 0. 1.);
        (1, map (fun k -> ulps 1. k) (int_range (-4) 4));
      ])

let prop_link_into_sound =
  QCheck.Test.make ~count:300
    ~name:"random pairs = exact test, slot bit-exact"
    (QCheck.make
       QCheck.Gen.(
         pair sound_env_gen
           (list_repeat 128
              (quad
                 (pair (int_range 0 (ids - 1)) (int_range 0 (ids - 1)))
                 (pair (float_bound_exclusive 300.)
                    (float_bound_exclusive 300.))
                 (float_bound_exclusive Geom.Angle.two_pi)
                 reach_frac_gen))))
    (fun (env, pairs) ->
      let lane = Radio.Env.lane_create 1 in
      let reach = Radio.Env.max_reach env in
      List.for_all
        (fun ((u, v), (x, y), theta, frac) ->
          let d = frac *. reach in
          let pu = v2 x y in
          let pv = v2 (x +. (d *. cos theta)) (y +. (d *. sin theta)) in
          link_into_agrees env lane ~u ~v ~pu ~pv)
        pairs)

(* The decision flips at the pair's exact boundary: find it by
   bisection along a ray (the segment, hence the obstacle set, only
   grows with the distance) and check the float neighbours, where a
   fast reject that were off by a rounding error would show. *)
let prop_link_into_boundary =
  QCheck.Test.make ~count:300
    ~name:"accept boundary = exact test"
    (QCheck.make
       QCheck.Gen.(
         triple sound_env_gen
           (pair (int_range 0 (ids - 1)) (int_range 0 (ids - 1)))
           (float_bound_exclusive 300.)))
    (fun (env, (u, v), y) ->
      let lane = Radio.Env.lane_create 1 in
      let cap = Radio.Env.max_link_cap env in
      let pu = v2 0. y in
      let accepts d =
        Radio.Env.link_power env ~u ~v ~pu ~pv:(v2 d y) ~dist:d <= cap
      in
      let lo = ref 0. and hi = ref (2. *. Radio.Env.max_reach env) in
      QCheck.assume (accepts !lo && not (accepts !hi));
      while Float.succ !lo < !hi do
        let mid = !lo +. ((!hi -. !lo) /. 2.) in
        if accepts mid then lo := mid else hi := mid
      done;
      List.for_all
        (fun k -> link_into_agrees env lane ~u ~v ~pu ~pv:(v2 (ulps !lo k) y))
        (List.init 17 (fun k -> k - 8)))

(* The kernel path allocates nothing per candidate: a later edit that
   re-boxes a float or an Int64 on it fails here.  (The spec path,
   [link_power], boxes its result; under shadowing before the kernel
   entry existed it allocated 32 words per pair.)  Measured under the
   trivial env, under shadowing, and under the full model — shadowing,
   an obstacle, heights and a relabeling — with pairs on both sides of
   the decision. *)
let link_into_words env =
  let lane = Radio.Env.lane_create 1 in
  let pu = v2 150. 150. in
  let pvs =
    Array.init 64 (fun i ->
        let a = Stdlib.float_of_int i in
        v2 (150. +. (2. *. a *. cos a)) (150. +. (2. *. a *. sin a)))
  in
  let calls = 10_000 in
  let accepted = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    let v = i land 63 in
    if Radio.Env.link_into env ~u:(i lsr 6) ~v:(200 + v) ~pu ~pv:pvs.(v) lane 0
    then incr accepted
  done;
  let words = (Gc.minor_words () -. before) /. Stdlib.float_of_int calls in
  Alcotest.(check bool) "some accepted" true (!accepted > 0);
  Alcotest.(check bool) "some rejected" true (!accepted < calls);
  words

let test_link_into_allocation () =
  let shadowed = Radio.Env.make ~sigma_db:4. ~shadow_seed:3 pl in
  let full =
    Radio.Env.relabel
      ~labels:(Array.init 300 (fun i -> (7 * i) mod 311))
      (Radio.Env.make ~sigma_db:4. ~shadow_seed:3
         ~obstacles:
           [| Radio.Env.obstacle ~center:(v2 170. 150.) ~radius:15.
                ~loss_db:6. |]
         ~heights:(Array.init 250 (fun i -> Stdlib.float_of_int (i mod 9)))
         ~height_loss_db:0.5 pl)
  in
  List.iter
    (fun (name, env) ->
      let w = link_into_words env in
      if w > 0. then Alcotest.failf "%s: %.3f words per call (> 0)" name w)
    [ ("trivial env", trivial_env); ("sigma = 4", shadowed); ("full", full) ]

(* ---------- unit cases ---------- *)

let test_trivial_detection () =
  Alcotest.(check bool) "trivial pl" true (Radio.Env.is_trivial trivial_env);
  Alcotest.(check bool) "sigma = 0 make" true
    (Radio.Env.is_trivial (Radio.Env.make pl));
  Alcotest.(check bool) "sigma > 0" false
    (Radio.Env.is_trivial (Radio.Env.make ~sigma_db:1. pl));
  let ob = Radio.Env.obstacle ~center:(v2 0. 0.) ~radius:10. ~loss_db:3. in
  Alcotest.(check bool) "obstacles" false
    (Radio.Env.is_trivial (Radio.Env.make ~obstacles:[| ob |] pl));
  (* heights without a loss coefficient stay trivial *)
  Alcotest.(check bool) "heights, zero coeff" true
    (Radio.Env.is_trivial (Radio.Env.make ~heights:[| 1.; 2. |] pl))

let test_resolve () =
  Alcotest.(check bool) "absent = trivial" true
    (Radio.Env.is_trivial (Radio.Env.resolve pl));
  let shadowed = Radio.Env.make ~sigma_db:4. pl in
  Alcotest.(check bool) "matching env passes through" true
    (Radio.Env.resolve ~env:shadowed pl == shadowed);
  (* an env over another pathloss is rejected at the entry point, before
     the grid (built from the argument) and membership (from the env)
     could disagree *)
  let other =
    Radio.Env.make ~sigma_db:4. (Radio.Pathloss.make ~max_range:200. ())
  in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted a mismatched env" name
  in
  rejects "resolve" (fun () -> ignore (Radio.Env.resolve ~env:other pl));
  let positions = [| v2 0. 0.; v2 50. 0.; v2 0. 50. |] in
  rejects "Geo.run_flat" (fun () ->
      ignore (Cbtc.Geo.run_flat ~env:other (Cbtc.Config.make alpha56) pl positions));
  rejects "Proximity.max_power" (fun () ->
      ignore (Baselines.Proximity.max_power ~env:other pl positions))

(* Without shadowing nothing can lower a link power, so a clamp must not
   inflate the probe radius: it is the pathloss reach, bit for bit. *)
let test_headroom_without_shadowing () =
  let e = Radio.Env.make ~clamp_db:6. pl in
  Alcotest.(check (float 0.)) "headroom" 1. (Radio.Env.headroom e);
  let reach =
    Radio.Pathloss.reach_distance pl ~power:(Radio.Pathloss.max_power pl)
  in
  Alcotest.(check bool) "max_reach = reach_distance, bit-exact" true
    (same_bits (Radio.Env.max_reach e) reach);
  Alcotest.(check bool) "shadowing still inflates" true
    (Radio.Env.max_reach (Radio.Env.make ~sigma_db:2. pl) > reach)

let test_make_validation () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  rejects "negative sigma" (fun () -> Radio.Env.make ~sigma_db:(-1.) pl);
  rejects "nan sigma" (fun () -> Radio.Env.make ~sigma_db:Float.nan pl);
  rejects "negative clamp" (fun () ->
      Radio.Env.make ~sigma_db:1. ~clamp_db:(-1.) pl);
  rejects "nan height" (fun () -> Radio.Env.make ~heights:[| Float.nan |] pl);
  rejects "bad obstacle radius" (fun () ->
      Radio.Env.obstacle ~center:(v2 0. 0.) ~radius:0. ~loss_db:1.);
  rejects "negative obstacle loss" (fun () ->
      Radio.Env.obstacle ~center:(v2 0. 0.) ~radius:1. ~loss_db:(-1.))

let test_obstacle_crossing () =
  let ob = Radio.Env.obstacle ~center:(v2 50. 0.) ~radius:10. ~loss_db:7. in
  let env = Radio.Env.make ~obstacles:[| ob |] pl in
  (* segment through the disc pays the loss *)
  Alcotest.(check (float 1e-9)) "crossing" 7.
    (Radio.Env.excess_db env ~u:0 ~v:1 ~pu:(v2 0. 0.) ~pv:(v2 100. 0.));
  (* parallel segment far away does not *)
  Alcotest.(check (float 1e-9)) "clear" 0.
    (Radio.Env.excess_db env ~u:0 ~v:1 ~pu:(v2 0. 50.) ~pv:(v2 100. 50.));
  (* endpoints inside count as crossing *)
  Alcotest.(check (float 1e-9)) "endpoint inside" 7.
    (Radio.Env.excess_db env ~u:0 ~v:1 ~pu:(v2 50. 0.) ~pv:(v2 200. 0.))

let test_height_loss () =
  let env =
    Radio.Env.make ~heights:[| 0.; 10.; 4. |] ~height_loss_db:0.5 pl
  in
  Alcotest.(check (float 1e-9)) "pair 0-1" 5.
    (Radio.Env.excess_db env ~u:0 ~v:1 ~pu:(v2 0. 0.) ~pv:(v2 1. 0.));
  Alcotest.(check (float 1e-9)) "pair 1-2" 3.
    (Radio.Env.excess_db env ~u:1 ~v:2 ~pu:(v2 0. 0.) ~pv:(v2 1. 0.));
  (* nodes beyond the heights array carry height 0 *)
  Alcotest.(check (float 1e-9)) "beyond array" 0.
    (Radio.Env.excess_db env ~u:5 ~v:6 ~pu:(v2 0. 0.) ~pv:(v2 1. 0.))

let test_rx_power_roundtrip () =
  (* the estimation assumption lifted to the env: estimate_link_power
     over env rx_power recovers the realized link power (d >= d0) *)
  let env = Radio.Env.make ~sigma_db:4. ~shadow_seed:9 pl in
  let pu = v2 0. 0. and pv = v2 60. 0. in
  let dist = 60. in
  let tx = Radio.Pathloss.max_power pl in
  let rx = Radio.Env.rx_power env ~tx_power:tx ~u:3 ~v:7 ~pu ~pv ~dist in
  let est = Radio.Pathloss.estimate_link_power pl ~tx_power:tx ~rx_power:rx in
  let realized = Radio.Env.link_power env ~u:3 ~v:7 ~pu ~pv ~dist in
  Alcotest.(check bool) "recovers realized link power" true
    (Float.abs (est -. realized) /. realized < 1e-9)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "env"
    [
      ( "sigma = 0 bit-identity",
        qsuite
          [
            prop_trivial_run_flat_identical;
            prop_trivial_baselines_identical;
            prop_trivial_engine_identical;
            prop_trivial_boundary_bit_exact;
          ] );
      ( "shadowing hash",
        qsuite
          [
            prop_shadow_symmetric_deterministic;
            prop_shadow_seed_sensitive;
            prop_link_power_symmetric;
            prop_probe_radius_bounds_support;
          ] );
      ( "sigma > 0 discovery",
        qsuite
          [
            prop_env_run_flat_matches_spec;
            prop_env_pool_identical;
            prop_env_engine_equivalence;
          ] );
      ( "link_into",
        qsuite [ prop_link_into_sound; prop_link_into_boundary ]
        @ [
            Alcotest.test_case "allocation-free" `Quick
              test_link_into_allocation;
          ] );
      ( "unit",
        [
          Alcotest.test_case "trivial detection" `Quick test_trivial_detection;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "obstacle crossing" `Quick test_obstacle_crossing;
          Alcotest.test_case "height loss" `Quick test_height_loss;
          Alcotest.test_case "rx-power round-trip" `Quick
            test_rx_power_roundtrip;
          Alcotest.test_case "resolve rejects a mismatched env" `Quick
            test_resolve;
          Alcotest.test_case "headroom without shadowing" `Quick
            test_headroom_without_shadowing;
        ] );
    ]
