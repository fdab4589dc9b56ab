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
  g : Growth.node;  (* growth state; its epoch also guards the NDP timers *)
  mutable basic_power : float;  (* last completed basic-growth power: beacon floor *)
  mutable last_heard : float IMap.t;
}

type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  params : params;
  sim : Dsim.Sim.t;
  net : msg Airnet.Net.t;
  growth : msg Growth.t;
  nodes : nstate array;
  mutable events : event list;  (* newest first *)
  last_activity : float ref;
  p0 : float;
  obs : Obs.Recorder.t;
}

let nb_nodes t = Array.length t.nodes

let now t = Dsim.Sim.now t.sim

let alive t u = Airnet.Net.is_alive t.net u

let positions t =
  Array.init (nb_nodes t) (fun u -> Airnet.Net.position t.net u)

let events t = List.rev t.events

let quiescent t ~for_ = now t -. !(t.last_activity) >= for_

let touch t = t.last_activity := now t

let log_event t node about kind =
  Obs.Recorder.incr t.obs
    (match kind with
    | Join -> "ndp.joins"
    | Leave -> "ndp.leaves"
    | Achange -> "ndp.achanges");
  t.events <- { time = now t; node; about; kind } :: t.events;
  touch t

let alpha t = t.config.Config.alpha

let has_gap t node = Growth.has_gap t.growth node.g

let max_power t = Radio.Pathloss.max_power t.pathloss

(* p(rad-_{u,alpha}): power to reach the farthest current N_alpha member. *)
let out_reach_power node =
  IMap.fold
    (fun _ (nb : Neighbor.t) acc -> Float.max acc nb.link_power)
    node.g.neighbors 0.

(* Section 4: beacon with the basic-algorithm power joined with the power
   needed to reach everyone we acked (the incoming E_alpha edges). *)
let beacon_power t node =
  let incoming = IMap.fold (fun _ p acc -> Float.max acc p) node.g.acked 0. in
  Float.min (max_power t) (Float.max t.p0 (Float.max node.basic_power incoming))

(* Section 4's "rerun CBTC(alpha)" from [start]: the stepped schedule
   restarted there, walked by the same machine as the bootstrap. *)
let trigger_growth t node ~start =
  if node.g.phase <> Growth.Growing && alive t node.g.id then begin
    Obs.Recorder.incr t.obs "reconfig.growth_triggers";
    touch t;
    Growth.start t.growth node.g
      ~schedule:
        (Config.power_steps ~from:start t.config ~pathloss:t.pathloss
           ~link_powers:[])
  end

(* Shrink-back pass used by join / aChange handling: trim farthest tags
   while coverage is unchanged, and lower the data power accordingly. *)
let shrink t node =
  let listed = IMap.fold (fun _ nb acc -> nb :: acc) node.g.neighbors [] in
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
      node.g.neighbors <-
        List.fold_left
          (fun m (nb : Neighbor.t) ->
            IMap.add nb.id { nb with Neighbor.tag = Float.min nb.tag power } m)
          IMap.empty kept;
      node.g.boundary <- gap;
      node.g.power <- power
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
  if fresh_contact t node src then log_event t node.g.id src Join

let on_hello t (r : msg Airnet.Net.recv) ~link_power =
  let me = t.nodes.(r.dst) in
  note_join t me r.src;
  heard t me r.src;
  Growth.answer t.growth me.g r ~link_power

let on_ack t (r : msg Airnet.Net.recv) ~link_power =
  let me = t.nodes.(r.dst) in
  note_join t me r.src;
  heard t me r.src;
  let tag =
    match IMap.find_opt r.src me.g.neighbors with
    | Some old -> Float.min old.Neighbor.tag me.g.power
    | None -> me.g.power
  in
  Growth.discover me.g r ~link_power ~tag

(* NDP semantics (Section 4): a beacon from [v] is a join iff nothing was
   heard from [v] during the previous timeout interval — not merely "[v]
   is not currently a selected neighbor", which would make every beacon
   from a shrunk-away node a fresh join. *)
let on_beacon t (r : msg Airnet.Net.recv) ~link_power =
  let me = t.nodes.(r.dst) in
  let is_join = fresh_contact t me r.src in
  heard t me r.src;
  if is_join then begin
    log_event t r.dst r.src Join;
    Growth.discover me.g r ~link_power ~tag:link_power;
    shrink t me
  end
  else
    match IMap.find_opt r.src me.g.neighbors with
    | None -> ()
    | Some nb ->
        if link_power > Radio.Pathloss.reach_cap ~power:me.g.power then begin
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
          Growth.discover me.g r ~link_power ~tag:link_power;
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
          Growth.discover me.g r ~link_power
            ~tag:(Float.min nb.Neighbor.tag link_power);
          if has_gap t me then
            trigger_growth t me ~start:(out_reach_power me)
          else shrink t me
        end

let on_recv t (r : msg Airnet.Net.recv) =
  let link_power =
    Radio.Pathloss.estimate_link_power t.pathloss ~tx_power:r.tx_power
      ~rx_power:r.rx_power
  in
  match r.payload with
  | Hello -> on_hello t r ~link_power
  | Ack -> on_ack t r ~link_power
  | Beacon -> on_beacon t r ~link_power

let expire t node =
  let timeout = ndp_timeout t in
  let stale src =
    match IMap.find_opt src node.last_heard with
    | Some when_ -> now t -. when_ > timeout
    | None -> true
  in
  let left = IMap.filter (fun src _ -> stale src) node.g.neighbors in
  if not (IMap.is_empty left) then begin
    IMap.iter (fun src _ -> log_event t node.g.id src Leave) left;
    node.g.neighbors <- IMap.filter (fun src _ -> not (stale src)) node.g.neighbors;
    if has_gap t node then trigger_growth t node ~start:(out_reach_power node)
  end;
  node.g.acked <- IMap.filter (fun src _ -> not (stale src)) node.g.acked;
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
  let epoch = node.g.epoch in
  let live () = alive t node.g.id && node.g.epoch = epoch in
  let rec beacon = lazy
    (Dsim.Periodic.start t.sim ~initial_delay:0.
       ~interval:t.params.beacon_interval (fun () ->
         if live () then begin
           Obs.Recorder.incr t.obs "msg.beacon";
           ignore
             (Airnet.Net.bcast t.net ~src:node.g.id
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
  let p0 =
    match config.Config.growth with
    | Config.Exact ->
        invalid_arg "Reconfig: Exact growth needs global knowledge; use Double \
                     or Mult"
    | Config.Double p0 | Config.Mult { p0; _ } -> p0
  in
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
          g = Growth.node id ~power:p0;
          basic_power = p0;
          last_heard = IMap.empty;
        })
  in
  let last_activity = ref 0. in
  (* Every completed growth, gap closed or boundary, sets the beacon
     floor to the power it reached. *)
  let on_settled (g : Growth.node) =
    nodes.(g.id).basic_power <- g.power;
    last_activity := Dsim.Sim.now sim
  in
  let growth =
    Growth.create ~net ~obs ~alpha:config.Config.alpha ~channel
      ~hello_repeats:params.hello_repeats ~reliability:Growth.legacy
      ~hello:Hello ~ack:Ack ~on_settled ()
  in
  let t =
    {
      config;
      pathloss;
      params;
      sim;
      net;
      growth;
      nodes;
      events = [];
      last_activity;
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
  touch t;
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
    Growth.reset node.g ~power:t.p0;
    node.basic_power <- t.p0;
    node.last_heard <- IMap.empty;
    (* Rejoin like a fresh node: grow from p0, then resume beaconing —
       peers see the beacons as NDP joins. *)
    trigger_growth t node ~start:t.p0;
    start_ndp t node;
    touch t
  end

let neighbor_list t node =
  if not (alive t node.g.id) then []
  else
    IMap.fold
      (fun _ nb acc -> if alive t nb.Neighbor.id then nb :: acc else acc)
      node.g.neighbors []
    |> List.sort Neighbor.compare_by_link_power

let discovery t =
  Discovery.pack ~config:t.config ~pathloss:t.pathloss ~positions:(positions t)
    ~power:(Array.map (fun node -> node.g.power) t.nodes)
    ~boundary:(Array.map (fun node -> node.g.boundary) t.nodes)
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
