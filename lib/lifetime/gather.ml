type control = { graph : Graphkit.Ugraph.t; radius : float array }

type topology_builder = alive:bool array -> Geom.Vec2.t array -> control

(* Run a full-array pipeline on the live-node subset and translate edges
   and radii back to global ids; dead nodes end up isolated at radius 0.
   [build] also receives the local-to-global id map so env-aware callers
   can [Radio.Env.relabel] the survivor subset back to original ids. *)
let induce ~alive positions build =
  let n = Array.length positions in
  let to_local = Array.make n (-1) in
  let to_global = ref [] in
  let count = ref 0 in
  for u = 0 to n - 1 do
    if alive.(u) then begin
      to_local.(u) <- !count;
      to_global := u :: !to_global;
      incr count
    end
  done;
  let to_global = Array.of_list (List.rev !to_global) in
  let local_positions = Array.map (fun u -> positions.(u)) to_global in
  let local_graph, local_radius = build to_global local_positions in
  let graph = Graphkit.Ugraph.create n in
  Graphkit.Ugraph.iter_edges
    (fun a b -> Graphkit.Ugraph.add_edge graph to_global.(a) to_global.(b))
    local_graph;
  let radius = Array.make n 0. in
  Array.iteri (fun local r -> radius.(to_global.(local)) <- r) local_radius;
  { graph; radius }

let local_env ?env pathloss to_global =
  Radio.Env.relabel ~labels:to_global (Radio.Env.resolve ?env pathloss)

let cbtc_builder ?pool ?env plan pathloss ~alive positions =
  induce ~alive positions (fun to_global local ->
      if Array.length local = 0 then (Graphkit.Ugraph.create 0, [||])
      else
        let env = local_env ?env pathloss to_global in
        let r = Cbtc.Pipeline.run_oracle ?pool ~env pathloss local plan in
        (r.Cbtc.Pipeline.graph, r.Cbtc.Pipeline.radius))

let max_power_builder ?pool ?env pathloss ~alive positions =
  induce ~alive positions (fun to_global local ->
      let env = local_env ?env pathloss to_global in
      let g = Baselines.Proximity.max_power ?pool ~env pathloss local in
      (g, Array.make (Array.length local) (Radio.Pathloss.max_range pathloss)))

type params = {
  capacity : float;
  tx_overhead : float;
  rx_overhead : float;
  overhearing : bool;
  max_rounds : int;
}

let default_params =
  {
    capacity = 5e7;
    tx_overhead = 5000.;
    rx_overhead = 2000.;
    overhearing = true;
    max_rounds = 5000;
  }

type outcome = {
  first_death : int option;
  half_dead : int option;
  sink_partition : int option;
  rounds_completed : int;
  packets_delivered : int;
  packets_dropped : int;
  deaths : (int * int) list;
}

let run ?(params = default_params) pathloss positions ~sink ~topology =
  let n = Array.length positions in
  if sink < 0 || sink >= n then invalid_arg "Gather.run: sink out of range";
  if params.max_rounds < 0 then invalid_arg "Gather.run: negative max_rounds";
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

let pp_option ppf = function
  | None -> Fmt.string ppf "-"
  | Some r -> Fmt.int ppf r

let pp_outcome ppf o =
  Fmt.pf ppf
    "rounds=%d first-death=%a half-dead=%a sink-partition=%a delivered=%d \
     dropped=%d deaths=%d"
    o.rounds_completed pp_option o.first_death pp_option o.half_dead pp_option
    o.sink_partition o.packets_delivered o.packets_dropped
    (List.length o.deaths)
