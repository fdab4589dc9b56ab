(* Message-level walkthrough of the distributed protocol on a tiny
   network, tracing every Hello/Ack through the simulated radio — useful
   for understanding (and demonstrating) the algorithm's mechanics.

   Run with: dune exec examples/protocol_trace.exe *)

type msg = Hello | Ack

let () =
  (* A five-node network: a center, two near nodes, one far node, one out
     of range.  The center closes its cones with the near ring. *)
  let positions =
    [| Geom.Vec2.make 500. 500.; Geom.Vec2.make 560. 500.;
       Geom.Vec2.make 500. 570.; Geom.Vec2.make 380. 460.;
       Geom.Vec2.make 900. 900. |]
  in
  let pathloss = Radio.Pathloss.make ~max_range:300. () in
  let sim = Dsim.Sim.create () in
  (* one timestamped line per radio event, printed as it happens *)
  let trace fmt = Fmt.pr ("[%10.3f] " ^^ fmt ^^ "@.") (Dsim.Sim.now sim) in
  let net =
    Airnet.Net.create ~sim ~pathloss ~channel:Dsim.Channel.reliable
      ~prng:(Prng.create ~seed:1) ~positions ()
  in
  (* Hand-rolled two-round protocol so every message is visible: each
     node broadcasts Hello at two growing powers; receivers Ack. *)
  let alpha = Geom.Angle.five_pi_six in
  let dirs = Array.make 5 [] in
  Array.iteri
    (fun u _ ->
      Airnet.Net.set_handler net u (fun r ->
          match r.Airnet.Net.payload with
          | Hello ->
              trace "node %d hears Hello from %d (rx power %.3f)"
                r.Airnet.Net.dst r.Airnet.Net.src r.Airnet.Net.rx_power;
              let reply_power =
                Radio.Pathloss.estimate_link_power pathloss
                  ~tx_power:r.Airnet.Net.tx_power ~rx_power:r.Airnet.Net.rx_power
              in
              ignore
                (Airnet.Net.send net ~src:r.Airnet.Net.dst ~dst:r.Airnet.Net.src
                   ~power:reply_power Ack)
          | Ack ->
              trace "node %d got Ack from %d (direction %.0f deg)"
                r.Airnet.Net.dst r.Airnet.Net.src
                (Geom.Angle.to_degrees r.Airnet.Net.rx_dir);
              dirs.(r.Airnet.Net.dst) <- r.Airnet.Net.rx_dir :: dirs.(r.Airnet.Net.dst)))
    positions;
  List.iteri
    (fun round power ->
      trace "--- round %d: everyone broadcasts Hello at power %.0f ---"
        (round + 1) power;
      Array.iteri
        (fun u _ ->
          let reached = Airnet.Net.bcast net ~src:u ~power Hello in
          trace "node %d bcast Hello p=%.0f (reaches %d nodes)" u power
            reached)
        positions;
      ignore (Dsim.Sim.run sim))
    [ 10_000.; 90_000. ];
  Fmt.pr "@.";
  Array.iteri
    (fun u ds ->
      Fmt.pr "node %d: %d directions heard, %s@." u (List.length ds)
        (if Geom.Dirset.has_gap ~alpha ds then
           "still has a 5pi/6-gap (would keep growing)"
         else "cones covered (would stop here)"))
    dirs;
  Fmt.pr "@.full protocol on the same network:@.";
  let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 10_000.) alpha in
  let outcome = Cbtc.Distributed.run config pathloss positions in
  let d = outcome.Cbtc.Distributed.discovery in
  for u = 0 to Cbtc.Discovery.nb_nodes d - 1 do
    let ids = ref [] in
    Cbtc.Discovery.iter_neighbors d u (fun ~id ~dir:_ ~link_power:_ ~tag:_ ->
        ids := string_of_int id :: !ids);
    Fmt.pr "  node %d: power %.0f%s, neighbors {%s}@." u d.power.(u)
      (if d.boundary.(u) then " (boundary)" else "")
      (String.concat ", " (List.rev !ids))
  done
