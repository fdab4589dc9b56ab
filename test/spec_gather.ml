(* Passive many-to-one data gathering stated directly, as the oracle
   Lifetime.Schedule.run's passive policy is tested against: every
   round each live node Dijkstra-routes one packet to the sink over the
   current topology, the sender paying for its configured radius, the
   addressee for reception and every live bystander inside the disk for
   overhearing; a node whose battery empties crash-stops and the
   topology is rebuilt over the survivors at the next round boundary.
   No ledger, no scheduler, no observability: the differential property
   in test/test_schedule.ml pins Schedule.run's milestones to this one
   bit for bit. *)

open Lifetime
open Gather

let run ?(params = default_params) pathloss positions ~sink ~topology =
  let n = Array.length positions in
  if sink < 0 || sink >= n then
    invalid_arg "Spec_gather.run: sink out of range";
  if params.max_rounds < 0 then
    invalid_arg "Spec_gather.run: negative max_rounds";
  let battery = Battery.create ~n ~capacity:params.capacity in
  let first_death = ref None in
  let half_dead = ref None in
  let sink_partition = ref None in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let deaths = ref [] in
  let non_sink = n - 1 in
  let alive_non_sink () = Battery.nb_alive battery - 1 in
  (* The sink is mains-powered: draining it is free. *)
  let drain u amount round =
    if u = sink then true
    else begin
      let was_alive = Battery.is_alive battery u in
      let still = Battery.drain battery u amount in
      if was_alive && not still then begin
        deaths := (round, u) :: !deaths;
        if !first_death = None then first_death := Some round;
        if !half_dead = None && 2 * alive_non_sink () <= non_sink then
          half_dead := Some round
      end;
      still
    end
  in
  let rebuild () = topology ~alive:(Battery.alive_mask battery) positions in
  let control = ref (rebuild ()) in
  let dirty = ref false in
  (* Transmitting one packet from [a]: the sender pays for its configured
     radius, the addressee pays reception, and (optionally) every other
     live node inside the disk overhears. *)
  let transmit a b round =
    let radius = !control.radius.(a) in
    let tx_cost =
      Radio.Pathloss.power_for_distance pathloss radius +. params.tx_overhead
    in
    let sender_alive = drain a tx_cost round in
    if not sender_alive then dirty := true;
    if params.overhearing then
      for w = 0 to n - 1 do
        if
          w <> a && w <> b && w <> sink
          && Battery.is_alive battery w
          && Geom.Vec2.dist positions.(a) positions.(w) <= radius
        then if not (drain w params.rx_overhead round) then dirty := true
      done;
    let receiver_alive = drain b params.rx_overhead round in
    if not receiver_alive then dirty := true;
    receiver_alive
  in
  let round = ref 0 in
  while
    !round < params.max_rounds
    && alive_non_sink () > 0
    && !sink_partition = None
  do
    incr round;
    if !dirty then begin
      control := rebuild ();
      dirty := false
    end;
    (* Cheapest routes toward the sink.  The cost of traversing (a -> b)
       is borne by the transmitter [a]; building the tree from the sink
       traverses edges reversed, so the cost of relaxing (x -> y) is the
       forward cost at [y]. *)
    let hop_cost x y =
      ignore x;
      Radio.Pathloss.power_for_distance pathloss !control.radius.(y)
      +. params.tx_overhead +. params.rx_overhead
    in
    let _, prev =
      Graphkit.Shortest.dijkstra_tree !control.graph ~cost:hop_cost ~src:sink
    in
    let reachable = ref 0 in
    for src = 0 to n - 1 do
      if src <> sink && Battery.is_alive battery src then begin
        match Graphkit.Shortest.path_to ~prev ~src:sink src with
        | None -> incr dropped
        | Some sink_to_src ->
            incr reachable;
            let path = List.rev sink_to_src in
            let rec forward = function
              | a :: (b :: _ as rest) ->
                  if Battery.is_alive battery a || a = sink then begin
                    if transmit a b !round then forward rest else incr dropped
                  end
                  else incr dropped
              | [ _ ] -> incr delivered
              | [] -> ()
            in
            forward path
      end
    done;
    if !sink_partition = None && alive_non_sink () > 0
       && 2 * !reachable < alive_non_sink ()
    then sink_partition := Some !round
  done;
  {
    first_death = !first_death;
    half_dead = !half_dead;
    sink_partition = !sink_partition;
    rounds_completed = !round;
    packets_delivered = !delivered;
    packets_dropped = !dropped;
    deaths = List.rev !deaths;
  }
