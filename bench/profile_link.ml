(* Dev-only per-candidate profiler for the G_R^env link test; not wired
   into any alias.  Usage:
     dune exec bench/profile_link.exe -- [n] [sigma_db]
   (defaults 4000 and 4.).  It draws a uniform placement at the
   perfbench construct density, collects every pair the flat kernel's
   grid probe tests (within [Env.max_reach]), and times two spellings of
   the membership test over them: the spec path ([Env.link_power] at
   the kernel's inline distance, against [Env.max_link_cap]) and the
   kernel entry ([Env.link_into]).
   It prints ns and minor words per candidate and fails unless both
   paths take the same decision on every pair. *)

let () =
  let arg i d = if Array.length Sys.argv > i then Sys.argv.(i) else d in
  let n = int_of_string (arg 1 "4000") in
  let sigma_db = float_of_string (arg 2 "4.") in
  let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
  let sc = Workload.Scenario.make ~n ~width:side ~height:side ~seed:42 () in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let env = Radio.Env.make ~sigma_db ~shadow_seed:42 pl in
  let reach = Radio.Env.max_reach env in
  let grid = Geom.Grid.create ~range:(Radio.Pathloss.max_range pl) positions in
  let us = ref [] and vs = ref [] in
  for u = 0 to n - 1 do
    Geom.Grid.iter_in_range grid positions.(u) ~dist:reach (fun v ->
        if v <> u && Geom.Vec2.dist positions.(u) positions.(v) <= reach
        then begin
          us := u :: !us;
          vs := v :: !vs
        end)
  done;
  let us = Array.of_list !us and vs = Array.of_list !vs in
  let m = Array.length us in
  let cap = Radio.Env.max_link_cap env in
  (* the distance as [Geo.collect] spells it, inline *)
  let spec i =
    let u = us.(i) and v = vs.(i) in
    let pu = positions.(u) and pv = positions.(v) in
    let dx = pv.Geom.Vec2.x -. pu.Geom.Vec2.x
    and dy = pv.Geom.Vec2.y -. pu.Geom.Vec2.y in
    let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
    Radio.Env.link_power env ~u ~v ~pu ~pv ~dist <= cap
  in
  let lane = Radio.Env.lane_create 1 in
  let kernel i =
    let u = us.(i) and v = vs.(i) in
    Radio.Env.link_into env ~u ~v ~pu:positions.(u) ~pv:positions.(v) lane 0
  in
  let accepted = ref 0 in
  for i = 0 to m - 1 do
    let a = spec i in
    if a <> kernel i then failwith "profile_link: spec and kernel disagree";
    if a then incr accepted
  done;
  (* repeat whole passes until half a second has gone by *)
  let measure f =
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let passes = ref 0 in
    while !passes = 0 || Unix.gettimeofday () -. t0 < 0.5 do
      for i = 0 to m - 1 do
        ignore (Sys.opaque_identity (f i) : bool)
      done;
      incr passes
    done;
    let calls = Stdlib.float_of_int (!passes * m) in
    ( (Unix.gettimeofday () -. t0) *. 1e9 /. calls,
      (Gc.minor_words () -. w0) /. calls )
  in
  Fmt.pr "n=%d sigma=%gdB: %d candidates (%.1f per node), %.3f accepted@." n
    sigma_db m
    (Stdlib.float_of_int m /. Stdlib.float_of_int n)
    (Stdlib.float_of_int !accepted /. Stdlib.float_of_int m);
  List.iter
    (fun (name, f) ->
      let ns, words = measure f in
      Fmt.pr "%-34s %8.1f ns  %6.2f words per candidate@." name ns words)
    [
      ("spec   (link_power <= cap)", spec);
      ("kernel (link_into)", kernel);
    ]
