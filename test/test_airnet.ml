(* Tests for the simulated radio network: the paper's bcast/send/recv
   primitives, reception metadata, crash-stop failures, and accounting. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let pl = Radio.Pathloss.make ~max_range:100. ()

(* Four nodes on a line at x = 0, 10, 50, 150. *)
let line_positions =
  [| Geom.Vec2.make 0. 0.; Geom.Vec2.make 10. 0.; Geom.Vec2.make 50. 0.;
     Geom.Vec2.make 150. 0. |]

let make_net ?(channel = Dsim.Channel.reliable) () =
  let sim = Dsim.Sim.create () in
  let net =
    Airnet.Net.create ~sim ~pathloss:pl ~channel ~prng:(Prng.create ~seed:5)
      ~positions:line_positions ()
  in
  (sim, net)

let collect net =
  let log = ref [] in
  for u = 0 to Airnet.Net.nb_nodes net - 1 do
    Airnet.Net.set_handler net u (fun r -> log := r :: !log)
  done;
  log

let test_bcast_range_semantics () =
  let sim, net = make_net () in
  let log = collect net in
  (* power p(50) = 2500 reaches nodes 1 and 2 but not 3 (at 150 > 100=R
     anyway) nor beyond. *)
  let reached = Airnet.Net.bcast net ~src:0 ~power:2500. "hello" in
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "physically reached" 2 reached;
  let dsts =
    List.sort Int.compare (List.map (fun r -> r.Airnet.Net.dst) !log)
  in
  Alcotest.(check (list int)) "delivered to 1 and 2" [ 1; 2 ] dsts;
  Alcotest.(check int) "transmissions" 1 (Airnet.Net.transmissions net);
  Alcotest.(check int) "deliveries" 2 (Airnet.Net.deliveries net)

let test_recv_metadata () =
  let sim, net = make_net () in
  let log = collect net in
  ignore (Airnet.Net.bcast net ~src:0 ~power:200. "ping");
  ignore (Dsim.Sim.run sim);
  match !log with
  | [ r ] ->
      Alcotest.(check int) "dst" 1 r.Airnet.Net.dst;
      Alcotest.(check int) "src" 0 r.Airnet.Net.src;
      check_float "tx power" 200. r.Airnet.Net.tx_power;
      (* rx power = tx / d^2 at d = 10 *)
      check_float "rx power" 2. r.Airnet.Net.rx_power;
      (* node 1 sees node 0 to its west *)
      check_float "angle of arrival" Geom.Angle.pi r.Airnet.Net.rx_dir;
      Alcotest.(check string) "payload" "ping" r.Airnet.Net.payload;
      (* the receiver can recover p(d) exactly, per the paper *)
      check_float "estimated link power" 100.
        (Radio.Pathloss.estimate_link_power pl ~tx_power:r.Airnet.Net.tx_power
           ~rx_power:r.Airnet.Net.rx_power)
  | l -> Alcotest.failf "expected exactly one delivery, got %d" (List.length l)

let test_send_unicast () =
  let sim, net = make_net () in
  let log = collect net in
  Alcotest.(check bool) "in range" true
    (Airnet.Net.send net ~src:0 ~dst:2 ~power:2500. "direct");
  Alcotest.(check bool) "out of range" false
    (Airnet.Net.send net ~src:0 ~dst:2 ~power:100. "too-weak");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "only the reachable unicast arrives" 1 (List.length !log);
  Alcotest.(check int) "unicast does not hit bystanders" 2
    (List.hd !log).Airnet.Net.dst

let test_crash_stop () =
  let sim, net = make_net () in
  let log = collect net in
  Airnet.Net.crash net 1;
  Alcotest.(check bool) "dead" false (Airnet.Net.is_alive net 1);
  ignore (Airnet.Net.bcast net ~src:0 ~power:2500. "x");
  (* crashed node transmits nothing *)
  Alcotest.(check int) "crashed bcast reaches nobody" 0
    (Airnet.Net.bcast net ~src:1 ~power:2500. "y");
  ignore (Dsim.Sim.run sim);
  let dsts = List.map (fun r -> r.Airnet.Net.dst) !log in
  Alcotest.(check (list int)) "only node 2 hears" [ 2 ] dsts

let test_crash_between_send_and_delivery () =
  let sim, net = make_net () in
  let log = collect net in
  ignore (Airnet.Net.bcast net ~src:0 ~power:2500. "x");
  Airnet.Net.crash net 2;
  (* before delivery events fire *)
  ignore (Dsim.Sim.run sim);
  let dsts = List.map (fun r -> r.Airnet.Net.dst) !log in
  Alcotest.(check (list int)) "dead receiver dropped" [ 1 ] dsts

let test_mobility_updates_geometry () =
  let sim, net = make_net () in
  let log = collect net in
  Airnet.Net.set_position net 3 (Geom.Vec2.make 20. 0.);
  check_float "distance updated" 20. (Airnet.Net.distance net 0 3);
  ignore (Airnet.Net.bcast net ~src:0 ~power:500. "now-close");
  ignore (Dsim.Sim.run sim);
  let dsts = List.sort Int.compare (List.map (fun r -> r.Airnet.Net.dst) !log) in
  Alcotest.(check (list int)) "moved node now hears" [ 1; 3 ] dsts

let test_power_validation () =
  let _, net = make_net () in
  Alcotest.check_raises "zero power" (Invalid_argument "Net: non-positive power")
    (fun () -> ignore (Airnet.Net.bcast net ~src:0 ~power:0. "x"));
  Alcotest.check_raises "excess power"
    (Invalid_argument "Net: power exceeds maximum") (fun () ->
      ignore (Airnet.Net.bcast net ~src:0 ~power:1e9 "x"));
  Alcotest.check_raises "self send" (Invalid_argument "Net.send: src = dst")
    (fun () -> ignore (Airnet.Net.send net ~src:0 ~dst:0 ~power:1. "x"))

let test_lossy_channel_drops () =
  let channel = Dsim.Channel.make ~loss:0.5 () in
  let sim, net = make_net ~channel () in
  let log = collect net in
  for _ = 1 to 200 do
    ignore (Airnet.Net.bcast net ~src:0 ~power:200. "x")
  done;
  ignore (Dsim.Sim.run sim);
  let got = List.length !log in
  if got < 60 || got > 140 then
    Alcotest.failf "lossy deliveries %d too far from 100" got

let () =
  Alcotest.run "airnet"
    [
      ( "net",
        [
          Alcotest.test_case "bcast range semantics" `Quick test_bcast_range_semantics;
          Alcotest.test_case "recv metadata" `Quick test_recv_metadata;
          Alcotest.test_case "send unicast" `Quick test_send_unicast;
          Alcotest.test_case "crash stop" `Quick test_crash_stop;
          Alcotest.test_case "crash before delivery" `Quick
            test_crash_between_send_and_delivery;
          Alcotest.test_case "mobility" `Quick test_mobility_updates_geometry;
          Alcotest.test_case "power validation" `Quick test_power_validation;
          Alcotest.test_case "lossy channel" `Quick test_lossy_channel_drops;
        ] );
    ]
