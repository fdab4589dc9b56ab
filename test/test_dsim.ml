(* Tests for the discrete-event simulation engine: event ordering, FIFO
   tie-breaking, cancellation, bounded runs, channel fault models, and
   periodic timers. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Eventq ---------- *)

let test_eventq_order () =
  let q = Dsim.Eventq.create () in
  List.iter (fun (t, v) -> Dsim.Eventq.push q ~time:t v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (Dsim.Eventq.peek_time q);
  let order = List.init 3 (fun _ -> snd (Dsim.Eventq.pop q)) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check (option (float 0.))) "empty" None (Dsim.Eventq.peek_time q)

let test_eventq_fifo_ties () =
  let q = Dsim.Eventq.create () in
  List.iter (fun v -> Dsim.Eventq.push q ~time:5. v) [ 1; 2; 3; 4; 5 ];
  let order = List.init 5 (fun _ -> snd (Dsim.Eventq.pop q)) in
  Alcotest.(check (list int)) "FIFO on equal times" [ 1; 2; 3; 4; 5 ] order

let test_eventq_many () =
  (* Force several heap growths and verify global ordering. *)
  let q = Dsim.Eventq.create () in
  let prng = Prng.create ~seed:99 in
  for i = 0 to 999 do
    Dsim.Eventq.push q ~time:(Prng.float prng 100.) i
  done;
  let last = ref neg_infinity in
  for _ = 1 to 1000 do
    let t, _ = Dsim.Eventq.pop q in
    if t < !last then Alcotest.fail "times decreased";
    last := t
  done;
  Alcotest.(check (option (float 0.))) "all 1000 popped" None
    (Dsim.Eventq.peek_time q)

(* ---------- Sim ---------- *)

let test_sim_runs_in_order () =
  let sim = Dsim.Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Dsim.Sim.now sim) :: !log in
  ignore (Dsim.Sim.schedule sim ~delay:2. (note "b"));
  ignore (Dsim.Sim.schedule sim ~delay:1. (note "a"));
  ignore (Dsim.Sim.schedule sim ~delay:3. (note "c"));
  let fired = Dsim.Sim.run sim in
  Alcotest.(check int) "fired" 3 fired;
  Alcotest.(check (list (pair string (float 0.)))) "order and clock"
    [ ("a", 1.); ("b", 2.); ("c", 3.) ]
    (List.rev !log);
  check_float "clock at end" 3. (Dsim.Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Dsim.Sim.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Dsim.Sim.schedule sim ~delay:1. (chain (n - 1)))
  in
  ignore (Dsim.Sim.schedule sim ~delay:0. (chain 9));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "chain length" 10 !count;
  check_float "final time" 9. (Dsim.Sim.now sim)

let test_sim_cancel () =
  let sim = Dsim.Sim.create () in
  let fired = ref false in
  let h = Dsim.Sim.schedule sim ~delay:1. (fun () -> fired := true) in
  Dsim.Sim.cancel h;
  Alcotest.(check int) "nothing fired" 0 (Dsim.Sim.run sim);
  Alcotest.(check bool) "cancelled did not fire" false !fired

let test_sim_run_until () =
  let sim = Dsim.Sim.create () in
  let log = ref [] in
  List.iter
    (fun d -> ignore (Dsim.Sim.schedule sim ~delay:d (fun () -> log := d :: !log)))
    [ 1.; 2.; 5.; 10. ];
  let fired = Dsim.Sim.run_until sim ~time:5. in
  Alcotest.(check int) "fired up to 5" 3 fired;
  check_float "clock advanced to bound" 5. (Dsim.Sim.now sim);
  Alcotest.(check int) "the rest fires later" 1 (Dsim.Sim.run sim);
  Alcotest.(check (list (float 0.))) "all fired" [ 10.; 5.; 2.; 1. ] !log

let test_sim_invalid () =
  let sim = Dsim.Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Dsim.Sim.schedule sim ~delay:(-1.) (fun () -> ())));
  ignore (Dsim.Sim.schedule sim ~delay:5. (fun () -> ()));
  ignore (Dsim.Sim.run sim);
  Alcotest.check_raises "past time"
    (Invalid_argument "Sim.schedule_at: time in the past") (fun () ->
      ignore (Dsim.Sim.schedule_at sim ~time:1. (fun () -> ())))

(* ---------- Tie-break policies ---------- *)

(* A fixed workload with heavy ties: 32 events over 4 timestamps, 8 tied
   events per timestamp.  Every policy test replays exactly this push
   sequence so firing orders are comparable across policies. *)
let tied_workload sim =
  let fired = ref [] in
  for i = 0 to 31 do
    ignore
      (Dsim.Sim.schedule sim ~delay:(Stdlib.float_of_int (i mod 4)) (fun () ->
           fired := i :: !fired))
  done;
  ignore (Dsim.Sim.run sim);
  List.rev !fired

let order_digest order =
  Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int order)))

(* Pins the default FIFO tie-break order byte-for-byte.  Golden traces,
   cram outputs and bench_out artifacts all assume this exact order; if
   this digest ever changes, the engine's default schedule moved and
   every recorded run in the repo is stale. *)
let test_policy_fifo_digest () =
  let sim = Dsim.Sim.create () in
  let order = tied_workload sim in
  let expected =
    (* insertion order within each timestamp *)
    List.concat_map (fun t -> List.init 8 (fun k -> (4 * k) + t)) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "FIFO order" expected order;
  Alcotest.(check string) "FIFO order digest"
    "3efc3b03e0b7a890f859c73be4ac88f9" (order_digest order);
  Alcotest.(check int) "no decision log under Fifo" 0
    (Array.length (Dsim.Sim.schedule_log sim))

let test_policy_seeded_differs () =
  let fifo = tied_workload (Dsim.Sim.create ()) in
  let sim = Dsim.Sim.create ~policy:(Dsim.Eventq.Seeded 42) () in
  let seeded = tied_workload sim in
  Alcotest.(check bool) "same event set" true
    (List.sort Int.compare fifo = List.sort Int.compare seeded);
  Alcotest.(check bool) "some tie broken differently" true (fifo <> seeded);
  let log = Dsim.Sim.schedule_log sim in
  Alcotest.(check int) "one decision per push" 32 (Array.length log);
  Array.iter
    (fun p ->
      if p < 0 || p >= Dsim.Eventq.prio_bound then
        Alcotest.failf "priority %d out of [0, prio_bound)" p)
    log;
  (* deterministic in the seed *)
  let again = tied_workload (Dsim.Sim.create ~policy:(Dsim.Eventq.Seeded 42) ()) in
  Alcotest.(check (list int)) "same seed, same schedule" seeded again;
  let other = tied_workload (Dsim.Sim.create ~policy:(Dsim.Eventq.Seeded 43) ()) in
  Alcotest.(check bool) "different seed, different schedule" true
    (seeded <> other)

let test_policy_replay_reproduces () =
  let sim = Dsim.Sim.create ~policy:(Dsim.Eventq.Seeded 4242) () in
  let seeded = tied_workload sim in
  let log = Dsim.Sim.schedule_log sim in
  let replayed = tied_workload (Dsim.Sim.create ~policy:(Dsim.Eventq.Replay log) ()) in
  Alcotest.(check (list int)) "replay reproduces the seeded schedule" seeded
    replayed;
  (* pushes beyond the recorded log fall back to the Fifo priority, so an
     empty log replays the plain FIFO schedule *)
  let fifo = tied_workload (Dsim.Sim.create ()) in
  let empty = tied_workload (Dsim.Sim.create ~policy:(Dsim.Eventq.Replay [||]) ()) in
  Alcotest.(check (list int)) "empty log = FIFO" fifo empty

(* ---------- Channel ---------- *)

let test_channel_reliable () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:1 in
  let got = ref 0 in
  for _ = 1 to 100 do
    ignore (Dsim.Channel.deliver Dsim.Channel.reliable sim prng (fun () -> incr got))
  done;
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "all delivered" 100 !got;
  check_float "unit delay" 1. (Dsim.Sim.now sim)

let test_channel_lossy_statistics () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:2 in
  let ch = Dsim.Channel.make ~loss:0.3 () in
  let got = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    ignore (Dsim.Channel.deliver ch sim prng (fun () -> incr got))
  done;
  ignore (Dsim.Sim.run sim);
  let rate = Stdlib.float_of_int !got /. Stdlib.float_of_int n in
  if rate < 0.67 || rate > 0.73 then
    Alcotest.failf "delivery rate %.3f too far from 0.7" rate

let test_channel_duplication () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:3 in
  let ch = Dsim.Channel.make ~duplicate:1.0 () in
  let got = ref 0 in
  ignore (Dsim.Channel.deliver ch sim prng (fun () -> incr got));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "always duplicated" 2 !got

let test_channel_delay_range () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:4 in
  let ch = Dsim.Channel.make ~min_delay:2. ~max_delay:5. () in
  let times = ref [] in
  for _ = 1 to 200 do
    ignore
      (Dsim.Channel.deliver ch sim prng (fun () ->
           times := Dsim.Sim.now sim :: !times))
  done;
  ignore (Dsim.Sim.run sim);
  List.iter
    (fun t -> if t < 2. || t > 5. then Alcotest.failf "delay %g out of [2,5]" t)
    !times

(* The full make contract: every one of the four parameters has an
   explicit bound and its own Invalid_argument message. *)
let test_channel_invalid () =
  let loss_msg = Invalid_argument "Channel.make: loss out of [0,1)" in
  Alcotest.check_raises "loss = 1" loss_msg (fun () ->
      ignore (Dsim.Channel.make ~loss:1. ()));
  Alcotest.check_raises "loss < 0" loss_msg (fun () ->
      ignore (Dsim.Channel.make ~loss:(-0.1) ()));
  let dup_msg = Invalid_argument "Channel.make: duplicate out of [0,1]" in
  Alcotest.check_raises "duplicate > 1" dup_msg (fun () ->
      ignore (Dsim.Channel.make ~duplicate:1.5 ()));
  Alcotest.check_raises "duplicate < 0" dup_msg (fun () ->
      ignore (Dsim.Channel.make ~duplicate:(-0.5) ()));
  let delay_msg = Invalid_argument "Channel.make: bad delay range" in
  Alcotest.check_raises "min > max" delay_msg (fun () ->
      ignore (Dsim.Channel.make ~min_delay:5. ~max_delay:1. ()));
  Alcotest.check_raises "min < 0" delay_msg (fun () ->
      ignore (Dsim.Channel.make ~min_delay:(-1.) ~max_delay:1. ()));
  (* loss is checked before duplicate, duplicate before delays *)
  Alcotest.check_raises "order: loss first" loss_msg (fun () ->
      ignore (Dsim.Channel.make ~loss:2. ~duplicate:2. ~min_delay:(-1.) ()));
  Alcotest.check_raises "order: duplicate second" dup_msg (fun () ->
      ignore (Dsim.Channel.make ~duplicate:2. ~min_delay:(-1.) ~max_delay:1. ()));
  (* boundary values that must be accepted *)
  ignore (Dsim.Channel.make ~loss:0. ~duplicate:1. ~min_delay:0. ~max_delay:0. ())

(* ---------- Gilbert-Elliott ---------- *)

let test_ge_mean_loss_formula () =
  let ch = Dsim.Channel.gilbert_elliott ~p_gb:0.1 ~p_bg:0.3 ~loss_bad:1. () in
  check_float "pi_bad" 0.25 (Dsim.Channel.mean_loss ch);
  let ch =
    Dsim.Channel.gilbert_elliott ~p_gb:0.2 ~p_bg:0.2 ~loss_good:0.1
      ~loss_bad:0.9 ()
  in
  check_float "weighted" 0.5 (Dsim.Channel.mean_loss ch);
  check_float "bernoulli mean" 0.3 (Dsim.Channel.mean_loss (Dsim.Channel.make ~loss:0.3 ()))

let test_ge_loss_statistics () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:11 in
  let ch = Dsim.Channel.gilbert_elliott ~p_gb:0.1 ~p_bg:0.3 ~loss_bad:1. () in
  let got = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    ignore (Dsim.Channel.deliver ch ~link:(0, 1) sim prng (fun () -> incr got))
  done;
  ignore (Dsim.Sim.run sim);
  let rate = Stdlib.float_of_int !got /. Stdlib.float_of_int n in
  let expect = 1. -. Dsim.Channel.mean_loss ch in
  if Float.abs (rate -. expect) > 0.02 then
    Alcotest.failf "GE delivery rate %.3f too far from %.3f" rate expect

(* Losses cluster: with long bursts, P(loss | previous copy lost) must be
   well above the unconditional loss. *)
let test_ge_losses_cluster () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:12 in
  let ch = Dsim.Channel.gilbert_elliott ~p_gb:0.05 ~p_bg:0.1 ~loss_bad:1. () in
  let n = 20_000 in
  let lost = Array.make n false in
  for i = 0 to n - 1 do
    (* deliver returns the number of copies scheduled: 0 = dropped *)
    lost.(i) <- Dsim.Channel.deliver ch ~link:(0, 1) sim prng (fun () -> ()) = 0
  done;
  ignore (Dsim.Sim.run sim);
  let pairs = ref 0 and joint = ref 0 and total_lost = ref 0 in
  for i = 0 to n - 2 do
    if lost.(i) then begin
      incr pairs;
      if lost.(i + 1) then incr joint
    end;
    if lost.(i) then incr total_lost
  done;
  let cond = Stdlib.float_of_int !joint /. Stdlib.float_of_int !pairs in
  let uncond = Stdlib.float_of_int !total_lost /. Stdlib.float_of_int n in
  if cond < 2. *. uncond then
    Alcotest.failf "no burst clustering: P(loss|loss)=%.3f vs P(loss)=%.3f"
      cond uncond

(* Chains are per link: a burst on one link must not leak onto another.
   Statistically, two links' loss runs are independent; structurally, the
   state table keys by (src, dst). *)
let test_ge_per_link_chains () =
  let sim = Dsim.Sim.create () in
  let prng = Prng.create ~seed:13 in
  let ch = Dsim.Channel.gilbert_elliott ~p_gb:0.5 ~p_bg:0.01 ~loss_bad:1. () in
  (* drive link A into the bad state *)
  let drive = 200 in
  for _ = 1 to drive do
    ignore (Dsim.Channel.deliver ch ~link:(0, 1) sim prng (fun () -> ()))
  done;
  Alcotest.(check bool)
    "link A chain stored" true
    (Hashtbl.mem ch.Dsim.Channel.burst_state (0, 1));
  (* link B has never been used: whatever state link A is stuck in, B's
     first copy sees the Good state, and with loss_good = 0 it can never
     be dropped *)
  let copies = Dsim.Channel.deliver ch ~link:(2, 3) sim prng (fun () -> ()) in
  Alcotest.(check int) "fresh link first copy delivered" 1 copies;
  ignore (Dsim.Sim.run sim)

let test_ge_invalid () =
  Alcotest.check_raises "p_gb = 0"
    (Invalid_argument "Channel.gilbert_elliott: p_gb out of (0,1]") (fun () ->
      ignore (Dsim.Channel.gilbert_elliott ~p_gb:0. ~p_bg:0.5 ~loss_bad:1. ()));
  Alcotest.check_raises "p_bg > 1"
    (Invalid_argument "Channel.gilbert_elliott: p_bg out of (0,1]") (fun () ->
      ignore (Dsim.Channel.gilbert_elliott ~p_gb:0.5 ~p_bg:1.5 ~loss_bad:1. ()));
  Alcotest.check_raises "loss_good = 1"
    (Invalid_argument "Channel.gilbert_elliott: loss_good out of [0,1)")
    (fun () ->
      ignore
        (Dsim.Channel.gilbert_elliott ~p_gb:0.5 ~p_bg:0.5 ~loss_good:1.
           ~loss_bad:1. ()));
  Alcotest.check_raises "loss_bad > 1"
    (Invalid_argument "Channel.gilbert_elliott: loss_bad out of [0,1]")
    (fun () ->
      ignore (Dsim.Channel.gilbert_elliott ~p_gb:0.5 ~p_bg:0.5 ~loss_bad:1.5 ()));
  Alcotest.check_raises "shared delay contract"
    (Invalid_argument "Channel.make: bad delay range") (fun () ->
      ignore
        (Dsim.Channel.gilbert_elliott ~p_gb:0.5 ~p_bg:0.5 ~loss_bad:1.
           ~min_delay:5. ~max_delay:1. ()))

(* ---------- Periodic ---------- *)

let test_periodic_fires_on_schedule () =
  let sim = Dsim.Sim.create () in
  let times = ref [] in
  let timer =
    Dsim.Periodic.start sim ~interval:5. (fun () ->
        times := Dsim.Sim.now sim :: !times)
  in
  ignore (Dsim.Sim.run_until sim ~time:22.);
  Alcotest.(check (list (float 0.))) "five-step cadence" [ 5.; 10.; 15.; 20. ]
    (List.rev !times);
  Alcotest.(check int) "fires" 4 (Dsim.Periodic.fires timer);
  Dsim.Periodic.stop timer;
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "no fire after stop" 4 (Dsim.Periodic.fires timer)

let test_periodic_initial_delay_and_self_stop () =
  let sim = Dsim.Sim.create () in
  let count = ref 0 in
  let rec timer = lazy
    (Dsim.Periodic.start sim ~initial_delay:0. ~interval:1. (fun () ->
         incr count;
         if !count = 3 then Dsim.Periodic.stop (Lazy.force timer)))
  in
  ignore (Lazy.force timer);
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "self stop after 3" 3 !count

let test_periodic_validation () =
  let sim = Dsim.Sim.create () in
  Alcotest.check_raises "interval" (Invalid_argument "Periodic.start: non-positive interval")
    (fun () -> ignore (Dsim.Periodic.start sim ~interval:0. (fun () -> ())));
  Alcotest.check_raises "initial" (Invalid_argument "Periodic.start: negative initial delay")
    (fun () ->
      ignore (Dsim.Periodic.start sim ~initial_delay:(-1.) ~interval:1. (fun () -> ())))

let () =
  Alcotest.run "dsim"
    [
      ( "eventq",
        [
          Alcotest.test_case "ordering" `Quick test_eventq_order;
          Alcotest.test_case "FIFO ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "many events" `Quick test_eventq_many;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "invalid" `Quick test_sim_invalid;
        ] );
      ( "policy",
        [
          Alcotest.test_case "FIFO digest pin" `Quick test_policy_fifo_digest;
          Alcotest.test_case "seeded differs" `Quick test_policy_seeded_differs;
          Alcotest.test_case "replay reproduces" `Quick
            test_policy_replay_reproduces;
        ] );
      ( "channel",
        [
          Alcotest.test_case "reliable" `Quick test_channel_reliable;
          Alcotest.test_case "lossy statistics" `Quick test_channel_lossy_statistics;
          Alcotest.test_case "duplication" `Quick test_channel_duplication;
          Alcotest.test_case "delay range" `Quick test_channel_delay_range;
          Alcotest.test_case "invalid" `Quick test_channel_invalid;
        ] );
      ( "gilbert-elliott",
        [
          Alcotest.test_case "mean loss formula" `Quick test_ge_mean_loss_formula;
          Alcotest.test_case "loss statistics" `Quick test_ge_loss_statistics;
          Alcotest.test_case "losses cluster" `Quick test_ge_losses_cluster;
          Alcotest.test_case "per-link chains" `Quick test_ge_per_link_chains;
          Alcotest.test_case "invalid" `Quick test_ge_invalid;
        ] );
      ( "periodic",
        [
          Alcotest.test_case "fires on schedule" `Quick test_periodic_fires_on_schedule;
          Alcotest.test_case "initial delay and self stop" `Quick
            test_periodic_initial_delay_and_self_stop;
          Alcotest.test_case "validation" `Quick test_periodic_validation;
        ] );
    ]
