(* Protocol observables of the Hello/Ack growth machine, pinned.

   Both protocols grow through one per-node machine, so its event order
   is what every protocol-level number depends on.  These cases pin, per
   scenario, what a change to that machine could move without failing a
   property test: [Distributed.run]'s stats, the simulator's
   [sim.events_fired] counter, [Check.Scenario.digest] of the converged
   state and, for seeded tie-break policies, the MD5 of the queue's
   decision log; and for [Reconfig], an MD5 of the NDP event log and of
   the discovery snapshot after mobility and a crash/recover cycle.
   The expected lines are recorded values: a mismatch means the machine's
   observable behaviour changed, which a refactor must not do. *)

let n = 30

let scenario ~seed =
  let sc = Workload.Scenario.make ~n ~seed () in
  (Workload.Scenario.pathloss sc, Workload.Scenario.positions sc)

(* Built per run: channels carry mutable burst state. *)
let reliable () = Dsim.Channel.reliable

let bernoulli () = Dsim.Channel.make ~loss:0.2 ()

let burst () =
  let mean_loss = 0.3 and p_bg = 0.25 in
  Dsim.Channel.gilbert_elliott
    ~p_gb:(p_bg *. mean_loss /. (1. -. mean_loss))
    ~p_bg ~loss_bad:1. ()

let crashes ~seed =
  Faults.Plan.random_crashes ~prng:(Prng.create ~seed) ~n ~fraction:0.1
    ~window:(5., 30.) ()

let partition =
  Faults.Plan.partition
    ~left:(List.init (n / 2) Fun.id)
    ~right:(List.init (n - (n / 2)) (fun i -> (n / 2) + i))
    ~from_:0. ~until:25.

let md5 s = Digest.to_hex (Digest.string s)

let distributed_line ?(hello_repeats = 1) ?(start_spread = 0.)
    ?(faults = Faults.Plan.empty) ?(policy = Dsim.Eventq.Fifo) ~name ~channel
    ~reliability ~alpha ~seed () =
  let pl, positions = scenario ~seed in
  let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha in
  let obs = Obs.Recorder.create () in
  let o =
    Cbtc.Distributed.run ~obs ~channel:(channel ()) ~hello_repeats ~seed
      ~start_spread ~reliability ~faults ~policy config pl positions
  in
  let s = o.Cbtc.Distributed.stats in
  let log =
    match policy with
    | Dsim.Eventq.Fifo -> ""
    | _ ->
        " log="
        ^ md5
            (String.concat ","
               (Array.to_list
                  (Array.map string_of_int o.Cbtc.Distributed.schedule_log)))
  in
  Fmt.str "%s tx=%d dl=%d dr=%d rt=%d rounds=%d dur=%h ev=%d%s %s" name
    s.Cbtc.Distributed.transmissions s.deliveries s.drops s.retransmissions
    s.max_rounds s.duration
    (Obs.Recorder.counter obs "sim.events_fired")
    log
    (Check.Scenario.digest o)

let distributed_lines () =
  let profiles =
    [ ("legacy", Cbtc.Distributed.legacy, Geom.Angle.five_pi_six);
      ("hardened", Cbtc.Distributed.hardened, Geom.Angle.two_pi_three) ]
  in
  let channels =
    [ ("reliable", reliable); ("bernoulli", bernoulli); ("burst", burst) ]
  in
  let seed = 61 in
  let plans =
    [ ("none", Faults.Plan.empty); ("crashes", crashes ~seed);
      ("partition", partition) ]
  in
  List.concat_map
    (fun (pname, reliability, alpha) ->
      List.concat_map
        (fun (cname, channel) ->
          List.map
            (fun (fname, faults) ->
              distributed_line
                ~name:(String.concat "/" [ pname; cname; fname ])
                ~channel ~reliability ~alpha ~faults ~seed ())
            plans)
        channels)
    profiles
  @ [
      distributed_line ~name:"legacy/reliable/spread" ~channel:reliable
        ~reliability:Cbtc.Distributed.legacy ~alpha:Geom.Angle.five_pi_six
        ~start_spread:4. ~seed:62 ();
      distributed_line ~name:"legacy/bernoulli/repeats2" ~channel:bernoulli
        ~reliability:Cbtc.Distributed.legacy ~alpha:Geom.Angle.two_pi_three
        ~hello_repeats:2 ~seed:63 ();
      distributed_line ~name:"hardened/burst/crashes/seeded"
        ~channel:burst ~reliability:Cbtc.Distributed.hardened
        ~alpha:Geom.Angle.five_pi_six ~faults:(crashes ~seed:64)
        ~policy:(Dsim.Eventq.Seeded 5) ~seed:64 ();
    ]

let expected_distributed =
  [
    "legacy/reliable/none tx=880 dl=1006 dr=0 rt=0 rounds=13 dur=0x1.04p+5 ev=1790 ab51230ceb91dbe6bbbf85e843347614";
    "legacy/reliable/crashes tx=774 dl=827 dr=1 rt=0 rounds=13 dur=0x1.04p+5 ev=1581 a5f0315491db4d1563871398fdaeade9";
    "legacy/reliable/partition tx=802 dl=850 dr=78 rt=0 rounds=13 dur=0x1.04p+5 ev=2534 ab51230ceb91dbe6bbbf85e843347614";
    "legacy/bernoulli/none tx=808 dl=778 dr=170 rt=0 rounds=13 dur=0x1.04p+5 ev=1566 02e397c19e6bbdf7be7611b16fdfe714";
    "legacy/bernoulli/crashes tx=726 dl=653 dr=146 rt=0 rounds=13 dur=0x1.04p+5 ev=1412 641f735bbe0cc595129f58e1d3803ac2";
    "legacy/bernoulli/partition tx=746 dl=673 dr=229 rt=0 rounds=13 dur=0x1.04p+5 ev=2367 820dd5220d21afd3078b6962ca83e1b8";
    "legacy/burst/none tx=812 dl=792 dr=146 rt=0 rounds=13 dur=0x1.04p+5 ev=1576 0ddfaa9f45a63d8fe12ca960630348ef";
    "legacy/burst/crashes tx=728 dl=681 dr=101 rt=0 rounds=13 dur=0x1.04p+5 ev=1434 43e4f2289ac3886f254c358e7be8314a";
    "legacy/burst/partition tx=766 dl=728 dr=164 rt=0 rounds=13 dur=0x1.04p+5 ev=2412 e20bb9ec2941f99d550151d1c7acfce1";
    "hardened/reliable/none tx=7532 dl=8910 dr=0 rt=2688 rounds=13 dur=0x1.ca7cp+9 ev=12402 033029a1693587e9977ab800c541af0d";
    "hardened/reliable/crashes tx=6266 dl=6944 dr=0 rt=2440 rounds=13 dur=0x1.ca7cp+9 ev=10122 1269fe145f3365eeb684241ab3f9748c";
    "hardened/reliable/partition tx=7532 dl=8910 dr=0 rt=2688 rounds=13 dur=0x1.ca7cp+9 ev=13302 033029a1693587e9977ab800c541af0d";
    "hardened/bernoulli/none tx=6661 dl=6485 dr=1561 rt=2692 rounds=13 dur=0x1.cc3cp+9 ev=9981 033029a1693587e9977ab800c541af0d";
    "hardened/bernoulli/crashes tx=5624 dl=5097 dr=1213 rt=2442 rounds=13 dur=0x1.cc3cp+9 ev=8277 1269fe145f3365eeb684241ab3f9748c";
    "hardened/bernoulli/partition tx=6661 dl=6485 dr=1561 rt=2692 rounds=13 dur=0x1.cc3cp+9 ev=10881 033029a1693587e9977ab800c541af0d";
    "hardened/burst/none tx=6323 dl=5585 dr=2116 rt=2700 rounds=13 dur=0x1.eb28p+9 ev=9089 033029a1693587e9977ab800c541af0d";
    "hardened/burst/crashes tx=5309 dl=4310 dr=1682 rt=2444 rounds=13 dur=0x1.cebcp+9 ev=7492 1269fe145f3365eeb684241ab3f9748c";
    "hardened/burst/partition tx=6323 dl=5585 dr=2116 rt=2700 rounds=13 dur=0x1.eb28p+9 ev=9989 033029a1693587e9977ab800c541af0d";
    "legacy/reliable/spread tx=836 dl=928 dr=0 rt=0 rounds=13 dur=0x1.23dff0daf29bfp+5 ev=1702 324c84f56daafe83c77399f5a12d04cd";
    "legacy/bernoulli/repeats2 tx=1819 dl=1889 dr=448 rt=0 rounds=13 dur=0x1.7cp+5 ev=3041 603df2fe72090c628fb725e5e7a18ce6";
    "hardened/burst/crashes/seeded tx=5214 dl=4281 dr=1711 rt=2392 rounds=13 dur=0x1.c93cp+9 ev=7394 log=6322031f26674f091e45051ced2d2a25 87a27a2f2a047610cba9fd99cae3690b";
  ]

let test_distributed_pins () =
  Alcotest.(check (list string))
    "Distributed.run observables" expected_distributed (distributed_lines ())

(* ---------- Reconfig ---------- *)

let kind_tag = function
  | Cbtc.Reconfig.Join -> "J"
  | Cbtc.Reconfig.Leave -> "L"
  | Cbtc.Reconfig.Achange -> "A"

let events_digest evs =
  md5
    (String.concat ";"
       (List.map
          (fun (e : Cbtc.Reconfig.event) ->
            Fmt.str "%h,%d,%d,%s" e.time e.node e.about (kind_tag e.kind))
          evs))

let discovery_digest (d : Cbtc.Discovery.t) =
  let b = Buffer.create 4096 in
  for u = 0 to Cbtc.Discovery.nb_nodes d - 1 do
    Buffer.add_string b
      (Fmt.str "%d:%h:%b|" u d.power.(u) d.boundary.(u));
    for i = d.off.(u) to d.off.(u + 1) - 1 do
      Buffer.add_string b
        (Fmt.str "%d,%h,%h,%h;" d.ids.(i) d.dirs.(i) d.links.(i) d.tags.(i))
    done
  done;
  md5 (Buffer.contents b)

(* Random-waypoint motion in 20-unit epochs, node [seed mod n] crashed
   in epoch 2 and recovered in epoch 4, then a frozen settle. *)
let reconfig_line ?(channel = reliable) ?(params = Cbtc.Reconfig.default_params)
    ~seed () =
  let pl, positions = scenario ~seed in
  let config =
    Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) Geom.Angle.five_pi_six
  in
  let rc = Cbtc.Reconfig.create ~channel:(channel ()) ~seed ~params config pl positions in
  let field = Workload.Placement.field ~width:1500. ~height:1500. in
  let mob =
    Workload.Mobility.create (Prng.create ~seed) ~field
      ~params:{ Workload.Mobility.speed_lo = 10.; speed_hi = 40.; pause = 5. }
      positions
  in
  let victim = seed mod n in
  for epoch = 1 to 6 do
    Workload.Mobility.step mob ~dt:20.;
    Array.iteri (Cbtc.Reconfig.set_position rc) (Workload.Mobility.positions mob);
    if epoch = 2 then Cbtc.Reconfig.crash rc victim;
    if epoch = 4 then Cbtc.Reconfig.recover rc victim;
    Cbtc.Reconfig.run_for rc ~duration:20.
  done;
  Workload.Mobility.freeze mob;
  Cbtc.Reconfig.run_for rc ~duration:300.;
  let evs = Cbtc.Reconfig.events rc in
  Fmt.str "reconfig seed=%d events=%d %s %s" seed (List.length evs)
    (events_digest evs)
    (discovery_digest (Cbtc.Reconfig.discovery rc))

let reconfig_lines () =
  List.map (fun seed -> reconfig_line ~seed ()) [ 71; 72; 73 ]
  @ [
      reconfig_line ~channel:(fun () -> Dsim.Channel.make ~loss:0.1 ())
        ~params:{ Cbtc.Reconfig.default_params with hello_repeats = 3 }
        ~seed:74 ();
    ]

let expected_reconfig =
  [
    "reconfig seed=71 events=1693 653ed0ed91c327a525c7e34d647aac88 5f1e17f0e859aa3fa7eb6d2acb5fa88f";
    "reconfig seed=72 events=1438 a6a6264732bdc66453eca485b49b243f a064d9405838c8d6e4380af0b38d3f00";
    "reconfig seed=73 events=1663 648be11ef13eaf23fe3c26eb720ad45d fb0bf6e8f6319d321d0d87625299add5";
    "reconfig seed=74 events=1835 3f889346f91b04a6180e7f26f18cdfd0 4b91ebab62b5201b9200643ef60d651f";
  ]

let test_reconfig_pins () =
  Alcotest.(check (list string))
    "Reconfig observables" expected_reconfig (reconfig_lines ())

let () =
  Alcotest.run "growth"
    [
      ( "pinned observables",
        [
          Alcotest.test_case "distributed" `Quick test_distributed_pins;
          Alcotest.test_case "reconfig" `Quick test_reconfig_pins;
        ] );
    ]
