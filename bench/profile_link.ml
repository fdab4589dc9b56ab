(* Per-candidate profiler for the G_R^env link test.  Usage:
     dune exec bench/profile_link.exe -- [--check] [--obstacles] [n] [sigma_db]
   (defaults 4000 and 4.).  It draws a uniform placement at the
   perfbench construct density, collects every pair a grid probe of
   radius [Env.max_reach] tests, and compares two spellings of the
   membership test over them: the spec path ([Env.link_power] at the
   kernel's inline distance, against [Env.max_link_cap]) and the kernel
   entry ([Env.link_into]).  It fails unless both paths take the same
   decision on every pair and the fast reject ([Env.reject_passes])
   lets every accepted pair through.  [--obstacles] adds obstacle discs,
   per-node heights and a relabeling to the environment.

   It prints the candidates per node, the accepted share and the
   pre-test pass rate (the share of candidates the fast reject sends on
   to the exact formula), then ns and minor words per candidate for
   each path; [--check] stops before the timing loop (the decision
   check [dune runtest] runs). *)

let () =
  let flags, rest =
    List.partition
      (fun a -> String.length a > 2 && String.sub a 0 2 = "--")
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter
    (fun f ->
      if f <> "--check" && f <> "--obstacles" then begin
        prerr_endline ("profile_link: unknown flag " ^ f);
        exit 2
      end)
    flags;
  let check_only = List.mem "--check" flags in
  let obstacles = List.mem "--obstacles" flags in
  let arg i d = match List.nth_opt rest i with Some a -> a | None -> d in
  let n = int_of_string (arg 0 "4000") in
  let sigma_db = float_of_string (arg 1 "4.") in
  let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
  let sc = Workload.Scenario.make ~n ~width:side ~height:side ~seed:42 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let env =
    if not obstacles then Radio.Env.make ~sigma_db ~shadow_seed:42 pl
    else begin
      let obstacle i =
        let f = Stdlib.float_of_int i in
        Radio.Env.obstacle
          ~center:(Geom.Vec2.make (side *. f /. 7.) (side *. (7. -. f) /. 7.))
          ~radius:(side /. 20.) ~loss_db:(2. +. f)
      in
      Radio.Env.relabel
        ~labels:(Array.init n (fun i -> (i * 7919) mod n))
        (Radio.Env.make ~sigma_db ~shadow_seed:42
           ~obstacles:(Array.init 6 obstacle)
           ~heights:(Array.init n (fun i -> Stdlib.float_of_int (i mod 11)))
           ~height_loss_db:0.5 pl)
    end
  in
  let reach = Radio.Env.max_reach env in
  let grid = Geom.Grid.create ~range:(Radio.Pathloss.max_range pl) positions in
  let iter_pairs f =
    for u = 0 to n - 1 do
      Geom.Grid.iter_in_range grid positions.(u) ~dist:reach (fun v ->
          if v <> u && Geom.Vec2.dist positions.(u) positions.(v) <= reach
          then f u v)
    done
  in
  let cap = Radio.Env.max_link_cap env in
  (* the distance as the kernel spells it, inline *)
  let spec u v =
    let pu = positions.(u) and pv = positions.(v) in
    let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
    and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
    let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
    Radio.Env.link_power env ~u ~v ~pu ~pv ~dist <= cap
  in
  let lane = Radio.Env.lane_create 1 in
  let kernel u v =
    Radio.Env.link_into env ~u ~v ~pu:positions.(u) ~pv:positions.(v) lane 0
  in
  (* the decision check streams the pairs; only the timing loop keeps
     them, two ints each *)
  let m = ref 0 and accepted = ref 0 and passed = ref 0 in
  iter_pairs (fun u v ->
      let a = spec u v in
      if a <> kernel u v then failwith "profile_link: spec and kernel disagree";
      let p =
        Radio.Env.reject_passes env ~u ~v ~pu:positions.(u) ~pv:positions.(v)
      in
      if a && not p then
        failwith "profile_link: fast reject drops an accepted pair";
      incr m;
      if a then incr accepted;
      if p then incr passed);
  let m = !m in
  let share k = Stdlib.float_of_int k /. Stdlib.float_of_int (Stdlib.max 1 m) in
  Fmt.pr
    "n=%d sigma=%gdB%s: %d candidates (%.1f per node), %.3f accepted, %.3f \
     pass the pre-test@."
    n sigma_db
    (if obstacles then " +obstacles" else "")
    m
    (Stdlib.float_of_int m /. Stdlib.float_of_int n)
    (share !accepted) (share !passed);
  (* repeat whole passes until half a second has gone by *)
  let measure us vs f =
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let passes = ref 0 in
    while !passes = 0 || Unix.gettimeofday () -. t0 < 0.5 do
      for i = 0 to m - 1 do
        ignore (Sys.opaque_identity (f us.(i) vs.(i)) : bool)
      done;
      incr passes
    done;
    let calls = Stdlib.float_of_int (!passes * m) in
    ( (Unix.gettimeofday () -. t0) *. 1e9 /. calls,
      (Gc.minor_words () -. w0) /. calls )
  in
  if not check_only then begin
    let us = Array.make m 0 and vs = Array.make m 0 and i = ref 0 in
    iter_pairs (fun u v ->
        us.(!i) <- u;
        vs.(!i) <- v;
        incr i);
    List.iter
      (fun (name, f) ->
        let ns, words = measure us vs f in
        Fmt.pr "%-34s %8.1f ns  %6.2f words per candidate@." name ns words)
      [
        ("spec   (link_power <= cap)", spec);
        ("kernel (link_into)", kernel);
      ]
  end
