module IMap = Map.Make (Int)

type params = {
  beacon_interval : float;
  miss_limit : int;
  dir_tolerance : float;
  hello_repeats : int;
}

let default_params =
  { beacon_interval = 10.; miss_limit = 3; dir_tolerance = 0.05;
    hello_repeats = 1 }

type event_kind = Join | Leave | Achange

type event = { time : float; node : int; about : int; kind : event_kind }

type msg = Hello | Ack | Beacon

type nstate = {
  id : int;
  mutable epoch : int;  (* bumped on recovery; invalidates old NDP timers *)
  mutable growing : bool;
  mutable power : float;  (* current data power (may shrink) *)
  mutable basic_power : float;  (* last completed basic-growth power: beacon floor *)
  mutable schedule : float list;
  mutable neighbors : Neighbor.t IMap.t;
  mutable last_heard : float IMap.t;
  mutable acked : float IMap.t;
  mutable boundary : bool;
}

type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  params : params;
  channel : Dsim.Channel.t;
  sim : Dsim.Sim.t;
  net : msg Airnet.Net.t;
  nodes : nstate array;
  mutable events : event list;  (* newest first *)
  mutable last_activity : float;
  growth_factor : float;
  p0 : float;
  obs : Obs.Recorder.t;
}

let nb_nodes t = Array.length t.nodes

let now t = Dsim.Sim.now t.sim

let alive t u = Airnet.Net.is_alive t.net u

let positions t =
  Array.init (nb_nodes t) (fun u -> Airnet.Net.position t.net u)

let events t = List.rev t.events

let quiescent t ~for_ = now t -. t.last_activity >= for_

let touch t = t.last_activity <- now t

let log_event t node about kind =
  Obs.Recorder.incr t.obs
    (match kind with
    | Join -> "ndp.joins"
    | Leave -> "ndp.leaves"
    | Achange -> "ndp.achanges");
  t.events <- { time = now t; node; about; kind } :: t.events;
  touch t

let growth_params (config : Config.t) =
  match config.growth with
  | Config.Exact ->
      invalid_arg "Reconfig: Exact growth needs global knowledge; use Double \
                   or Mult"
  | Config.Double p0 -> (p0, 2.)
  | Config.Mult { p0; factor } -> (p0, factor)

let alpha t = t.config.Config.alpha

let directions node =
  IMap.fold (fun _ (nb : Neighbor.t) acc -> nb.dir :: acc) node.neighbors []

let has_gap t node = Geom.Dirset.has_gap ~alpha:(alpha t) (directions node)

let max_power t = Radio.Pathloss.max_power t.pathloss

(* p(rad-_{u,alpha}): power to reach the farthest current N_alpha member. *)
let out_reach_power node =
  IMap.fold
    (fun _ (nb : Neighbor.t) acc -> Float.max acc nb.link_power)
    node.neighbors 0.

(* Section 4: beacon with the basic-algorithm power joined with the power
   needed to reach everyone we acked (the incoming E_alpha edges). *)
let beacon_power t node =
  let incoming = IMap.fold (fun _ p acc -> Float.max acc p) node.acked 0. in
  Float.min (max_power t) (Float.max t.p0 (Float.max node.basic_power incoming))

let eval_delay t =
  (Stdlib.float_of_int t.params.hello_repeats
  *. t.channel.Dsim.Channel.max_delay)
  +. t.channel.Dsim.Channel.max_delay +. 0.5

(* Stepped schedule from [start] (exclusive of powers below it) up to P. *)
let schedule_from t ~start =
  let p = Float.max t.p0 start in
  let rec build acc power =
    if power >= max_power t then List.rev (max_power t :: acc)
    else build (power :: acc) (power *. t.growth_factor)
  in
  build [] p

(* Growth closures carry the epoch they were started in and go inert
   once the node is recovered into a later epoch: a crash/recover cycle
   quicker than [eval_delay] would otherwise leave the dead run's
   pending hello/evaluate callbacks firing into the fresh epoch's
   growth (same guard discipline as the NDP timers in [start_ndp]). *)
let rec growth_step t node ~epoch =
  if node.epoch = epoch then
    match node.schedule with
    | [] ->
        node.growing <- false;
        node.boundary <- true;
        node.basic_power <- node.power;
        touch t
    | power :: rest ->
        node.schedule <- rest;
        node.power <- power;
        for i = 0 to t.params.hello_repeats - 1 do
          ignore
            (Dsim.Sim.schedule t.sim
               ~delay:(Stdlib.float_of_int i *. t.channel.Dsim.Channel.max_delay)
               (fun () ->
                 if node.epoch = epoch then begin
                   Obs.Recorder.incr t.obs "msg.hello";
                   ignore (Airnet.Net.bcast t.net ~src:node.id ~power Hello)
                 end))
        done;
        ignore
          (Dsim.Sim.schedule t.sim ~delay:(eval_delay t) (fun () ->
               evaluate t node ~epoch))

and evaluate t node ~epoch =
  if node.epoch = epoch && node.growing then
    if not (has_gap t node) then begin
      node.growing <- false;
      node.boundary <- false;
      node.basic_power <- node.power;
      touch t
    end
    else if node.schedule = [] then begin
      node.growing <- false;
      node.boundary <- true;
      node.basic_power <- node.power;
      touch t
    end
    else growth_step t node ~epoch

let trigger_growth t node ~start =
  if (not node.growing) && alive t node.id then begin
    Obs.Recorder.incr t.obs "reconfig.growth_triggers";
    node.growing <- true;
    node.schedule <- schedule_from t ~start;
    touch t;
    growth_step t node ~epoch:node.epoch
  end

(* Shrink-back pass used by join / aChange handling: trim farthest tags
   while coverage is unchanged, and lower the data power accordingly. *)
let shrink t node =
  let listed = IMap.fold (fun _ nb acc -> nb :: acc) node.neighbors [] in
  match Optimize.shrink_neighbors ~alpha:(alpha t) listed with
  | kept, Some _ ->
      let needed =
        List.fold_left
          (fun acc (nb : Neighbor.t) -> Float.max acc nb.link_power)
          0. kept
      in
      (* Trimming preserves coverage, so the kept set has an alpha-gap
         iff the node currently does.  While the gap persists the node
         is a boundary node and must hold max power; a join that just
         closed the gap ends its boundary status and lets it shrink to
         the power reaching its farthest kept neighbor. *)
      let gap = has_gap t node in
      let power =
        if gap then max_power t
        else Float.max t.p0 (Float.min (max_power t) needed)
      in
      (* Every kept neighbor is reachable at the recomputed power, so its
         effective selection class is at most that power; without the
         clamp a growth-step tag can stay above the shrunk power. *)
      node.neighbors <-
        List.fold_left
          (fun m (nb : Neighbor.t) ->
            IMap.add nb.id { nb with Neighbor.tag = Float.min nb.tag power } m)
          IMap.empty kept;
      node.boundary <- gap;
      node.power <- power
  | _, None -> ()

let heard t node src = node.last_heard <- IMap.add src (now t) node.last_heard

let ndp_timeout t =
  Stdlib.float_of_int t.params.miss_limit *. t.params.beacon_interval

(* [v] is a join for [node] when nothing was heard from [v] during the
   previous timeout interval.  Any message carries liveness, so the check
   runs on hellos and acks too, not just beacons: a recovered node floods
   hellos while re-growing, and those refresh [last_heard] long before
   its first beacon — without this, the rejoin would never be logged. *)
let fresh_contact t node src =
  match IMap.find_opt src node.last_heard with
  | None -> true
  | Some when_ -> now t -. when_ > ndp_timeout t

let note_join t node src =
  if fresh_contact t node src then log_event t node.id src Join

let on_hello t (r : msg Airnet.Net.recv) =
  let me = t.nodes.(r.dst) in
  note_join t me r.src;
  heard t me r.src;
  let link_power =
    Radio.Pathloss.estimate_link_power t.pathloss ~tx_power:r.tx_power
      ~rx_power:r.rx_power
  in
  me.acked <- IMap.add r.src link_power me.acked;
  Obs.Recorder.incr t.obs "msg.ack";
  ignore (Airnet.Net.send t.net ~src:r.dst ~dst:r.src ~power:link_power Ack)

let on_ack t (r : msg Airnet.Net.recv) =
  let me = t.nodes.(r.dst) in
  note_join t me r.src;
  heard t me r.src;
  let link_power =
    Radio.Pathloss.estimate_link_power t.pathloss ~tx_power:r.tx_power
      ~rx_power:r.rx_power
  in
  let tag =
    match IMap.find_opt r.src me.neighbors with
    | Some old -> Float.min old.Neighbor.tag me.power
    | None -> me.power
  in
  me.neighbors <-
    IMap.add r.src
      (Neighbor.make ~id:r.src ~dir:r.rx_dir ~link_power ~tag)
      me.neighbors

(* NDP semantics (Section 4): a beacon from [v] is a join iff nothing was
   heard from [v] during the previous timeout interval — not merely "[v]
   is not currently a selected neighbor", which would make every beacon
   from a shrunk-away node a fresh join. *)
let on_beacon t (r : msg Airnet.Net.recv) =
  let me = t.nodes.(r.dst) in
  let is_join = fresh_contact t me r.src in
  heard t me r.src;
  let link_power =
    Radio.Pathloss.estimate_link_power t.pathloss ~tx_power:r.tx_power
      ~rx_power:r.rx_power
  in
  if is_join then begin
    log_event t r.dst r.src Join;
    me.neighbors <-
      IMap.add r.src
        (Neighbor.make ~id:r.src ~dir:r.rx_dir ~link_power ~tag:link_power)
        me.neighbors;
    shrink t me
  end
  else
    match IMap.find_opt r.src me.neighbors with
    | None -> ()
    | Some nb ->
        if link_power > Radio.Pathloss.reach_cap ~power:me.power then begin
          (* The neighbor slid beyond what [me] can reach at its current
             data power.  A purely radial move never trips the direction
             test below, and the neighbor's own beacons keep refreshing
             [last_heard], so the expire path never fires either: the
             stale link record would silently linger (and violate the
             "every neighbor within converged power" guarantee).  NDP
             semantics for a reachability-boundary crossing are
             leave-then-join: relog the neighbor from the fresh estimate
             and re-cover the cone. *)
          log_event t r.dst r.src Leave;
          log_event t r.dst r.src Join;
          me.neighbors <-
            IMap.add r.src
              (Neighbor.make ~id:r.src ~dir:r.rx_dir ~link_power
                 ~tag:link_power)
              me.neighbors;
          if has_gap t me then
            trigger_growth t me ~start:(out_reach_power me)
          else
            (* directions still cover: shrink recomputes the data power
               from the kept set, which *raises* it to the new link *)
            shrink t me
        end
        else if
          Geom.Angle.diff nb.Neighbor.dir r.rx_dir > t.params.dir_tolerance
        then begin
          log_event t r.dst r.src Achange;
          me.neighbors <-
            IMap.add r.src
              (Neighbor.make ~id:r.src ~dir:r.rx_dir ~link_power
                 ~tag:(Float.min nb.Neighbor.tag link_power))
              me.neighbors;
          if has_gap t me then
            trigger_growth t me ~start:(out_reach_power me)
          else shrink t me
        end

let on_recv t (r : msg Airnet.Net.recv) =
  match r.payload with
  | Hello -> on_hello t r
  | Ack -> on_ack t r
  | Beacon -> on_beacon t r

let expire t node =
  let timeout = ndp_timeout t in
  let stale src =
    match IMap.find_opt src node.last_heard with
    | Some when_ -> now t -. when_ > timeout
    | None -> true
  in
  let left = IMap.filter (fun src _ -> stale src) node.neighbors in
  if not (IMap.is_empty left) then begin
    IMap.iter (fun src _ -> log_event t node.id src Leave) left;
    node.neighbors <- IMap.filter (fun src _ -> not (stale src)) node.neighbors;
    if has_gap t node then trigger_growth t node ~start:(out_reach_power node)
  end;
  node.acked <- IMap.filter (fun src _ -> not (stale src)) node.acked;
  (* Drop stale liveness records so a re-appearing node counts as a join. *)
  node.last_heard <-
    IMap.filter (fun _ when_ -> now t -. when_ <= timeout) node.last_heard

(* A node's NDP timers: beacon every interval, expire-check offset by
   half an interval.  Both stop themselves when the node crashes or when
   the node has been recovered since they were started (the epoch guard:
   recovery starts fresh timers, and without the guard a crash/recover
   cycle quicker than one beacon interval would leave two live timer
   pairs beaconing at double rate). *)
let start_ndp t node =
  let epoch = node.epoch in
  let live () = alive t node.id && node.epoch = epoch in
  let rec beacon = lazy
    (Dsim.Periodic.start t.sim ~initial_delay:0.
       ~interval:t.params.beacon_interval (fun () ->
         if live () then begin
           Obs.Recorder.incr t.obs "msg.beacon";
           ignore
             (Airnet.Net.bcast t.net ~src:node.id
                ~power:(beacon_power t node) Beacon)
         end
         else Dsim.Periodic.stop (Lazy.force beacon)))
  in
  let rec expire_timer = lazy
    (Dsim.Periodic.start t.sim
       ~initial_delay:(t.params.beacon_interval /. 2.)
       ~interval:t.params.beacon_interval (fun () ->
         if live () then expire t node
         else Dsim.Periodic.stop (Lazy.force expire_timer)))
  in
  ignore (Lazy.force beacon);
  ignore (Lazy.force expire_timer)

let create ?(obs = Obs.Recorder.nil) ?(channel = Dsim.Channel.reliable)
    ?(seed = 1) ?(params = default_params) ?(policy = Dsim.Eventq.Fifo) config
    pathloss positions =
  let p0, growth_factor = growth_params config in
  if params.beacon_interval <= 0. || params.miss_limit < 1
     || params.hello_repeats < 1
  then invalid_arg "Reconfig.create: bad params";
  let sim = Dsim.Sim.create ~obs ~policy () in
  let prng = Prng.create ~seed in
  let net =
    Airnet.Net.create ~obs ~sim ~pathloss ~channel ~prng:(Prng.split prng)
      ~positions ()
  in
  let nodes =
    Array.init (Array.length positions) (fun id ->
        {
          id;
          epoch = 0;
          growing = false;
          power = p0;
          basic_power = p0;
          schedule = [];
          neighbors = IMap.empty;
          last_heard = IMap.empty;
          acked = IMap.empty;
          boundary = false;
        })
  in
  let t =
    {
      config;
      pathloss;
      params;
      channel;
      sim;
      net;
      nodes;
      events = [];
      last_activity = 0.;
      growth_factor;
      p0;
      obs;
    }
  in
  Array.iteri (fun u _ -> Airnet.Net.set_handler net u (on_recv t)) nodes;
  (* Initial CBTC(alpha) run to convergence, then start the NDP.  The
     bootstrap hellos all register as first contacts; those are initial
     discovery, not reconfiguration, so the event log starts empty. *)
  Array.iter (fun node -> trigger_growth t node ~start:t.p0) nodes;
  ignore (Dsim.Sim.run sim);
  t.events <- [];
  let t0 = now t in
  Array.iter
    (fun node ->
      node.last_heard <- IMap.map (fun _ -> t0) node.last_heard;
      start_ndp t node)
    nodes;
  t.last_activity <- t0;
  t

let run_for t ~duration =
  if duration < 0. then invalid_arg "Reconfig.run_for: negative duration";
  ignore (Dsim.Sim.run_until t.sim ~time:(now t +. duration))

let set_position t u p = Airnet.Net.set_position t.net u p

let crash t u = Airnet.Net.crash t.net u

let recover t u =
  if not (alive t u) then begin
    Airnet.Net.recover t.net u;
    let node = t.nodes.(u) in
    node.epoch <- node.epoch + 1;
    node.growing <- false;
    node.power <- t.p0;
    node.basic_power <- t.p0;
    node.schedule <- [];
    node.neighbors <- IMap.empty;
    node.last_heard <- IMap.empty;
    node.acked <- IMap.empty;
    node.boundary <- false;
    (* Rejoin like a fresh node: grow from p0, then resume beaconing —
       peers see the beacons as NDP joins. *)
    trigger_growth t node ~start:t.p0;
    start_ndp t node;
    touch t
  end

let neighbor_list t node =
  if not (alive t node.id) then []
  else
    IMap.fold
      (fun _ nb acc -> if alive t nb.Neighbor.id then nb :: acc else acc)
      node.neighbors []
    |> List.sort Neighbor.compare_by_link_power

let discovery t =
  Discovery.pack ~config:t.config ~pathloss:t.pathloss ~positions:(positions t)
    ~power:(Array.map (fun node -> node.power) t.nodes)
    ~boundary:(Array.map (fun node -> node.boundary) t.nodes)
    (Array.map (neighbor_list t) t.nodes)

let topology t = Discovery.closure (discovery t)

(* Invariant adapter for the schedule-exploration harness: after the
   network has settled, the survivors' converged state must satisfy the
   CBTC guarantees whatever order the NDP/growth events interleaved in. *)
let check_stable t =
  let alive_arr = Array.init (nb_nodes t) (alive t) in
  match Verify.surviving ~alive:alive_arr (discovery t) with
  | () -> Ok ()
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
