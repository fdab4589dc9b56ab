(* The lifetime simulator: many-to-one data gathering over the Gather
   cost model, passive or under the energy-aware cover-set scheduler.
   The passive path (the default policy) is the classic simulation — a
   per-round Dijkstra toward the sink over the current topology — and
   its milestones are pinned bit for bit against the plain statement of
   that simulation kept in test/spec_gather.ml.  The active path
   replaces the per-round Dijkstra with an epoch-elected gather tree and
   a duty-cycled awake set. *)

type policy = {
  rotation_period : int;
  duty : float;
  idle_listen : float;
  seed : int;
}

let passive = { rotation_period = 0; duty = 1.; idle_listen = 0.; seed = 0 }
let default_policy = { rotation_period = 25; duty = 0.; idle_listen = 0.; seed = 0 }

let validate_policy p =
  if p.rotation_period < 0 then Error "rotation period must be >= 0"
  else if not (Float.is_finite p.duty) || p.duty < 0. || p.duty > 1. then
    Error "duty fraction must lie in [0, 1]"
  else if not (Float.is_finite p.idle_listen) || p.idle_listen < 0. then
    Error "idle-listen cost must be a finite number >= 0"
  else if p.duty < 1. && p.rotation_period = 0 then
    Error "duty-cycling (duty < 1) requires a rotation period >= 1"
  else Ok ()

type category = Tx | Rx | Overhear | Idle

type ledger = {
  tx : float array;
  rx : float array;
  overhear : float array;
  idle : float array;
  residual : float array;
}

type report = {
  outcome : Gather.outcome;
  epochs : int;
  cover_sets : int;
  service_rounds : int;
  awake_node_rounds : int;
  tx_total : float;
  rx_total : float;
  overhear_total : float;
  idle_total : float;
  initial_energy : float;
  consumed_energy : float;
  residual_energy : float;
  energy_per_delivered : float;
  energy_per_bit : float;
  ledger : ledger;
}

let packet_bits = 4096.

(* Pure splitmix64-style hash, same spelling as Prng / Radio.Env: the
   rotation tie-break and the duty-cycle wake pattern must be
   deterministic functions of (seed, ...) with no hidden state. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash2 seed a b =
  let open Int64 in
  let z = mix (of_int seed) in
  let z = mix (add z (mul golden_gamma (of_int (a + 1)))) in
  mix (add z (mul golden_gamma (of_int (b + 1))))

let unit_of bits = Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1p-53

let duty_awake ~seed ~duty u t =
  if duty >= 1. then true
  else if duty <= 0. then false
  else unit_of (hash2 seed u t) < duty

(* Rotation offset for epoch [e]: shifts the id-order round robin that
   breaks exact residual-energy ties (all candidates tie on epoch 0). *)
let rotation_of ~seed e =
  Int64.to_int (Int64.logand (hash2 seed e 0x7ec0) 0x3FFFFFFFL)

let run ?(params = Gather.default_params) ?(policy = passive)
    ?(obs = Obs.Recorder.nil) ?(on_charge = fun _ _ _ -> ()) pathloss
    positions ~sink ~topology =
  let n = Array.length positions in
  if sink < 0 || sink >= n then invalid_arg "Schedule.run: sink out of range";
  if params.Gather.max_rounds < 0 then
    invalid_arg "Schedule.run: negative max_rounds";
  (match validate_policy policy with
  | Ok () -> ()
  | Error e -> invalid_arg ("Schedule.run: " ^ e));
  let active = policy.rotation_period > 0 in
  let battery = Battery.create ~n ~capacity:params.Gather.capacity in
  let led =
    {
      tx = Array.make n 0.;
      rx = Array.make n 0.;
      overhear = Array.make n 0.;
      idle = Array.make n 0.;
      residual = Array.make n 0.;
    }
  in
  let first_death = ref None in
  let half_dead = ref None in
  let sink_partition = ref None in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let deaths = ref [] in
  let non_sink = n - 1 in
  let alive_non_sink () = Battery.nb_alive battery - 1 in
  (* The battery drain, with the category ledger recorded first.  The sink
     is mains-powered; dead nodes absorb nothing (and record nothing);
     the killing charge is recorded in full — the ledger keeps the
     overdraw the battery clamps away. *)
  let drain cat u amount round =
    if u = sink then true
    else begin
      let was_alive = Battery.is_alive battery u in
      if was_alive then begin
        (match cat with
        | Tx -> led.tx.(u) <- led.tx.(u) +. amount
        | Rx -> led.rx.(u) <- led.rx.(u) +. amount
        | Overhear -> led.overhear.(u) <- led.overhear.(u) +. amount
        | Idle -> led.idle.(u) <- led.idle.(u) +. amount);
        on_charge cat u amount
      end;
      let still = Battery.drain battery u amount in
      if was_alive && not still then begin
        Obs.Recorder.incr obs "schedule.deaths";
        deaths := (round, u) :: !deaths;
        if !first_death = None then first_death := Some round;
        if !half_dead = None && 2 * alive_non_sink () <= non_sink then
          half_dead := Some round
      end;
      still
    end
  in
  let rebuild () =
    Obs.Recorder.incr obs "schedule.rebuilds";
    topology ~alive:(Battery.alive_mask battery) positions
  in
  let control = ref (rebuild ()) in
  let dirty = ref false in
  (* Transmitting one packet from [a]: the sender pays for its
     configured radius, the addressee pays reception, and (optionally)
     every other live node inside the disk overhears.  Sleeping nodes
     are deaf: only awake bystanders pay the overhearing tax; in
     passive mode [awake] is constantly true. *)
  let transmit awake a b round =
    let radius = !control.Gather.radius.(a) in
    let tx_cost =
      Radio.Pathloss.power_for_distance pathloss radius
      +. params.Gather.tx_overhead
    in
    let sender_alive = drain Tx a tx_cost round in
    if not sender_alive then dirty := true;
    if params.Gather.overhearing then
      for w = 0 to n - 1 do
        if
          w <> a && w <> b && w <> sink
          && Battery.is_alive battery w
          && awake w
          && Geom.Vec2.dist positions.(a) positions.(w) <= radius
        then
          if not (drain Overhear w params.Gather.rx_overhead round) then
            dirty := true
      done;
    let receiver_alive = drain Rx b params.Gather.rx_overhead round in
    if not receiver_alive then dirty := true;
    receiver_alive
  in
  (* Routing potential shared by both modes: the cost of relaxing
     (x -> y) toward the sink is the forward cost at [y]. *)
  let hop_cost x y =
    ignore x;
    Radio.Pathloss.power_for_distance pathloss !control.Gather.radius.(y)
    +. params.Gather.tx_overhead +. params.Gather.rx_overhead
  in
  (* Cover-set election: each node adopts the {e downhill} neighbor (in
     the Dijkstra potential toward the sink, so routes stay cost-aware
     and progress is guaranteed) with the most projected residual
     energy, ties broken by a seeded round robin over ids.  Neighbor
     enumeration is in increasing id order (Ugraph), so the election is
     independent of construction history. *)
  let epochs = ref 0 in
  let cover_digests = Hashtbl.create 16 in
  let awake_node_rounds = ref 0 in
  let elect epoch =
    Obs.Recorder.incr obs "schedule.epochs";
    let dist, _ =
      Graphkit.Shortest.dijkstra_tree !control.Gather.graph ~cost:hop_cost
        ~src:sink
    in
    let rot = rotation_of ~seed:policy.seed epoch in
    let parents = Array.make n (-1) in
    let relay = Array.make n false in
    (* Projected residual: as children are assigned (in id order), a
       candidate's effective energy is debited by the relaying cost it
       is already committed to for this epoch, so the greedy election
       spreads a neighborhood's children across its relay candidates
       instead of herding them all onto the single richest one. *)
    let projected = Array.make n 0. in
    for v = 0 to n - 1 do
      projected.(v) <- Battery.level battery v
    done;
    let relay_cost v =
      (Radio.Pathloss.power_for_distance pathloss !control.Gather.radius.(v)
      +. params.Gather.tx_overhead +. params.Gather.rx_overhead)
      *. float_of_int (max 1 policy.rotation_period)
    in
    (* Waking one more relay costs the network that relay's listening
       budget for the whole epoch (overhearing every transmission, plus
       idle listening), so a child only opens a fresh relay when every
       already-awake candidate has fallen that much behind — the greedy
       step toward the small rotating cover sets the exemplars build. *)
    let activation_fee =
      float_of_int (max 1 policy.rotation_period)
      *. ((if params.Gather.overhearing then
             float_of_int (alive_non_sink ()) *. params.Gather.rx_overhead
           else 0.)
         +. policy.idle_listen)
    in
    for u = 0 to n - 1 do
      if
        u <> sink
        && Battery.is_alive battery u
        && Float.is_finite dist.(u)
      then begin
        let best = ref (-1) in
        let best_level = ref Float.neg_infinity in
        let best_tie = ref max_int in
        Graphkit.Ugraph.iter_neighbors !control.Gather.graph u (fun v ->
            if
              dist.(v) < dist.(u)
              && (v = sink || Battery.is_alive battery v)
            then begin
              let level =
                if v = sink then Float.infinity
                else if relay.(v) then projected.(v)
                else projected.(v) -. activation_fee
              in
              let tie = (v + rot) mod n in
              if
                level > !best_level
                || (level = !best_level && tie < !best_tie)
              then begin
                best := v;
                best_level := level;
                best_tie := tie
              end
            end);
        parents.(u) <- !best;
        if !best >= 0 && !best <> sink then begin
          relay.(!best) <- true;
          projected.(!best) <- projected.(!best) -. relay_cost !best
        end
      end
    done;
    (* count the distinct cover sets this run generated *)
    let buf = Buffer.create 64 in
    for v = 0 to n - 1 do
      if relay.(v) then begin
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ','
      end
    done;
    Hashtbl.replace cover_digests (Buffer.contents buf) ();
    (parents, relay)
  in
  let round = ref 0 in
  let service_rounds = ref 0 in
  let schedule = ref None in
  let epoch_rounds = ref 0 in
  while
    !round < params.Gather.max_rounds
    && alive_non_sink () > 0
    && !sink_partition = None
  do
    incr round;
    if !dirty then begin
      control := rebuild ();
      dirty := false;
      schedule := None
    end;
    if active then begin
      (match !schedule with
      | Some _ when !epoch_rounds < policy.rotation_period -> ()
      | _ ->
          schedule := Some (elect !epochs);
          incr epochs;
          epoch_rounds := 0);
      incr epoch_rounds
    end;
    match !schedule with
    | None ->
        (* Passive round: cheapest routes toward the sink, recomputed
           every round over the current topology. *)
        let _, prev =
          Graphkit.Shortest.dijkstra_tree !control.Gather.graph ~cost:hop_cost
            ~src:sink
        in
        let awake _ = true in
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
                        if transmit awake a b !round then forward rest
                        else incr dropped
                      end
                      else incr dropped
                  | [ _ ] -> incr delivered
                  | [] -> ()
                in
                forward path
          end
        done;
        awake_node_rounds := !awake_node_rounds + alive_non_sink ();
        if 2 * !reachable >= non_sink then incr service_rounds;
        if
          !sink_partition = None
          && alive_non_sink () > 0
          && 2 * !reachable < alive_non_sink ()
        then sink_partition := Some !round
    | Some (parents, relay) ->
        let awake w =
          relay.(w)
          || duty_awake ~seed:policy.seed ~duty:policy.duty w !round
        in
        let reachable = ref 0 in
        for src = 0 to n - 1 do
          if src <> sink && Battery.is_alive battery src then begin
            if parents.(src) < 0 then incr dropped
            else begin
              incr reachable;
              (* walk the tree; depth strictly decreases so the chain
                 terminates at the sink *)
              let rec forward a =
                if not (Battery.is_alive battery a) then incr dropped
                else begin
                  let b = parents.(a) in
                  if b < 0 then incr dropped
                  else if transmit awake a b !round then begin
                    if b = sink then incr delivered else forward b
                  end
                  else incr dropped
                end
              in
              forward src
            end
          end
        done;
        if policy.idle_listen > 0. then
          for u = 0 to n - 1 do
            if u <> sink && Battery.is_alive battery u && awake u then
              if not (drain Idle u policy.idle_listen !round) then
                dirty := true
          done;
        for u = 0 to n - 1 do
          if u <> sink && Battery.is_alive battery u && awake u then
            incr awake_node_rounds
        done;
        if 2 * !reachable >= non_sink then incr service_rounds;
        (* A death mid-round leaves this epoch's tree stale; partition
           is only ever declared against a freshly elected schedule. *)
        if
          (not !dirty)
          && !sink_partition = None
          && alive_non_sink () > 0
          && 2 * !reachable < alive_non_sink ()
        then sink_partition := Some !round
  done;
  let outcome =
    {
      Gather.first_death = !first_death;
      half_dead = !half_dead;
      sink_partition = !sink_partition;
      rounds_completed = !round;
      packets_delivered = !delivered;
      packets_dropped = !dropped;
      deaths = List.rev !deaths;
    }
  in
  (* Canonical combination order: per node ((tx + rx) + overhear) + idle,
     nodes in index order — the float-exact conservation identity the
     property suite replays. *)
  for u = 0 to n - 1 do
    led.residual.(u) <-
      params.Gather.capacity
      -. (((led.tx.(u) +. led.rx.(u)) +. led.overhear.(u)) +. led.idle.(u))
  done;
  led.residual.(sink) <- 0.;
  let sum a =
    let acc = ref 0. in
    for u = 0 to n - 1 do
      acc := !acc +. a.(u)
    done;
    !acc
  in
  let tx_total = sum led.tx in
  let rx_total = sum led.rx in
  let overhear_total = sum led.overhear in
  let idle_total = sum led.idle in
  let consumed_energy =
    ((tx_total +. rx_total) +. overhear_total) +. idle_total
  in
  let initial_energy = float_of_int non_sink *. params.Gather.capacity in
  let energy_per_delivered =
    if !delivered = 0 then Float.infinity
    else consumed_energy /. float_of_int !delivered
  in
  Obs.Recorder.set_int obs "schedule.rounds" outcome.Gather.rounds_completed;
  Obs.Recorder.set_int obs "schedule.delivered" !delivered;
  {
    outcome;
    epochs = !epochs;
    cover_sets = Hashtbl.length cover_digests;
    service_rounds = !service_rounds;
    awake_node_rounds = !awake_node_rounds;
    tx_total;
    rx_total;
    overhear_total;
    idle_total;
    initial_energy;
    consumed_energy;
    residual_energy = initial_energy -. consumed_energy;
    energy_per_delivered;
    energy_per_bit = energy_per_delivered /. packet_bits;
    ledger = led;
  }

let total_lifetime r = r.service_rounds

let deaths_plan ?(round_time = 1.) r =
  if not (Float.is_finite round_time) || round_time < 0. then
    invalid_arg "Schedule.deaths_plan: bad round time";
  Faults.Plan.make
    (List.map
       (fun (round, u) ->
         {
           Faults.Plan.time = round_time *. float_of_int round;
           kind = Faults.Plan.Crash u;
         })
       r.outcome.Gather.deaths)

(* Topology families *)

type family =
  | Max_power
  | Cbtc of float
  | Yao of int
  | Rng
  | Gabriel
  | Knn of int
  | Mst

let five_pi_six = 5. *. Float.pi /. 6.
let two_pi_three = 2. *. Float.pi /. 3.

let families =
  [
    Max_power;
    Cbtc five_pi_six;
    Cbtc two_pi_three;
    Yao 6;
    Rng;
    Gabriel;
    Knn 6;
  ]

let family_label = function
  | Max_power -> "max power"
  | Cbtc a ->
      if Float.abs (a -. five_pi_six) < 1e-9 then "cbtc 5pi/6"
      else if Float.abs (a -. two_pi_three) < 1e-9 then "cbtc 2pi/3"
      else Fmt.str "cbtc %.4f" a
  | Yao k -> Fmt.str "yao %d" k
  | Rng -> "rng"
  | Gabriel -> "gabriel"
  | Knn k -> Fmt.str "knn %d" k
  | Mst -> "mst"

let family_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let base, arg =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let int_arg ~default ~what =
    match arg with
    | None -> Ok default
    | Some a -> (
        match int_of_string_opt a with
        | Some k when k > 0 -> Ok k
        | _ -> Error (Fmt.str "bad %s %S" what a))
  in
  let alpha_arg () =
    match arg with
    | None -> Ok five_pi_six
    | Some "5pi/6" -> Ok five_pi_six
    | Some "2pi/3" -> Ok two_pi_three
    | Some "pi/2" -> Ok (Float.pi /. 2.)
    | Some a -> (
        match float_of_string_opt a with
        | Some f when Float.is_finite f && f > 0. && f <= 2. *. Float.pi ->
            Ok f
        | _ -> Error (Fmt.str "bad alpha %S" a))
  in
  match base with
  | "max-power" | "max_power" | "maxpower" -> Ok Max_power
  | "cbtc" -> Result.map (fun a -> Cbtc a) (alpha_arg ())
  | "yao" -> Result.map (fun k -> Yao k) (int_arg ~default:6 ~what:"sector count")
  | "rng" -> Ok Rng
  | "gabriel" -> Ok Gabriel
  | "knn" -> Result.map (fun k -> Knn k) (int_arg ~default:6 ~what:"k")
  | "mst" -> Ok Mst
  | _ -> Error (Fmt.str "unknown topology family %S" s)

let proximity_builder ?pool ?env
    (build :
      ?pool:Parallel.Pool.t -> ?env:Radio.Env.t -> Radio.Pathloss.t ->
      Geom.Vec2.t array -> Graphkit.Ugraph.t) pathloss ~alive positions =
  Gather.induce ~alive positions (fun to_global local ->
      if Array.length local = 0 then (Graphkit.Ugraph.create 0, [||])
      else begin
        let env = Gather.local_env ?env pathloss to_global in
        let g = build ?pool ~env pathloss local in
        (g, Baselines.Proximity.radius_of pathloss local g)
      end)

let family_builder ?pool ?env family pathloss =
  match family with
  | Max_power -> Gather.max_power_builder ?pool ?env pathloss
  | Cbtc alpha ->
      Gather.cbtc_builder ?pool ?env
        (Cbtc.Pipeline.all_ops (Cbtc.Config.make alpha))
        pathloss
  | Yao k ->
      proximity_builder ?pool ?env
        (fun ?pool ?env pl local -> Baselines.Yao.yao ?pool ?env pl local ~k)
        pathloss
  | Rng -> proximity_builder ?pool ?env Baselines.Proximity.rng pathloss
  | Gabriel ->
      proximity_builder ?pool ?env Baselines.Proximity.gabriel pathloss
  | Knn k ->
      proximity_builder ?pool ?env
        (fun ?pool ?env pl local ->
          Baselines.Proximity.knn ?pool ?env pl local ~k)
        pathloss
  | Mst ->
      proximity_builder ?pool ?env
        (fun ?pool ?env pl local ->
          ignore pool;
          Baselines.Proximity.euclidean_mst ?env pl local)
        pathloss

let pp_report ppf r =
  Fmt.pf ppf
    "%a@,# cover sets generated: %d (epochs: %d)@,# total network lifetime: \
     %d rounds@,# total energy consumed: %.6g@,# energy per delivered \
     packet: %.6g (per bit: %.6g)"
    Gather.pp_outcome r.outcome r.cover_sets r.epochs (total_lifetime r)
    r.consumed_energy r.energy_per_delivered r.energy_per_bit
