module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type msg = Hello | Ack | Remove of int | RemoveAck of int

type reliability = Growth.reliability = {
  hello_attempts : int;
  settle_rounds : int;
  remove_attempts : int;
  backoff : float;
  backoff_factor : float;
}

let legacy = Growth.legacy

let hardened = Growth.hardened

type stats = {
  transmissions : int;
  deliveries : int;
  drops : int;
  retransmissions : int;
  max_rounds : int;
  duration : float;
}

type outcome = {
  discovery : Discovery.t;
  core_neighbors : int list array;
  removals : int;
  alive : bool array;
  injected : Faults.Inject.stats;
  stats : stats;
  schedule_log : int array;
}

type node = {
  g : Growth.node;
  mutable last_ack_src : int;  (* highest new-ack src this round (mutant only) *)
  mutable removed_by : ISet.t;  (* senders of Remove notifications *)
}

let check_growth (config : Config.t) =
  match config.growth with
  | Config.Exact ->
      invalid_arg
        "Distributed.run: Exact growth needs global knowledge; use Double or \
         Mult"
  | Config.Double _ | Config.Mult _ -> ()

let check_reliability r =
  if
    r.hello_attempts < 1 || r.settle_rounds < 0 || r.remove_attempts < 1
    || r.backoff <= 0. || r.backoff_factor < 1.
  then invalid_arg "Distributed.run: bad reliability parameters"

let run ?(obs = Obs.Recorder.nil) ?(channel = Dsim.Channel.reliable)
    ?(hello_repeats = 1) ?(seed = 1) ?(start_spread = 0.)
    ?(reliability = legacy) ?(faults = Faults.Plan.empty)
    ?(policy = Dsim.Eventq.Fifo) ?(mutant = false) ?env config pathloss
    positions =
  check_growth config;
  if hello_repeats < 1 then invalid_arg "Distributed.run: hello_repeats < 1";
  if start_spread < 0. then invalid_arg "Distributed.run: negative spread";
  check_reliability reliability;
  let n = Array.length positions in
  let sim = Dsim.Sim.create ~obs ~policy () in
  let prng = Prng.create ~seed in
  let net =
    Airnet.Net.create ~obs ?env ~sim ~pathloss ~channel ~prng:(Prng.split prng)
      ~positions ()
  in
  let steps = Config.power_steps config ~pathloss ~link_powers:[] in
  let nodes =
    Array.init n (fun id ->
        {
          g = Growth.node id ~power:0.;
          last_ack_src = -1;
          removed_by = ISet.empty;
        })
  in
  let alive u = Airnet.Net.is_alive net u in
  let growth =
    Growth.create ~net ~obs ~alpha:config.Config.alpha ~channel ~hello_repeats
      ~reliability ~hello:Hello ~ack:Ack
      ~on_round:(fun g -> nodes.(g.Growth.id).last_ack_src <- -1)
      ()
  in
  (* Crash recovery wiring.  [Airnet.Net.on_fault] plays the role of the
     failure detector that Section 4's NDP implements in-band with
     beacons: on a crash every survivor forgets the dead node and, if
     that reopened its cone, resumes growing from the next scheduled
     power (the paper's "grow from p(rad-)" rule); a recovered node
     restarts discovery from scratch in a new epoch. *)
  let on_crash v =
    Array.iter
      (fun u ->
        let g = u.g in
        if g.id <> v && alive g.id then begin
          let had = IMap.mem v g.neighbors in
          g.neighbors <- IMap.remove v g.neighbors;
          g.acked <- IMap.remove v g.acked;
          if had && g.phase <> Growth.Growing && (not g.boundary)
             && Growth.has_gap growth g
          then
            if g.schedule = [] then g.boundary <- true
            else Growth.start growth g ~schedule:g.schedule
        end)
      nodes
  in
  let on_recover v =
    let node = nodes.(v) in
    Growth.reset node.g ~power:0.;
    node.removed_by <- ISet.empty;
    Growth.start growth node.g ~schedule:steps
  in
  Airnet.Net.on_fault net (function
    | Airnet.Net.Crashed v -> on_crash v
    | Airnet.Net.Recovered v -> on_recover v);
  (* Ack-tracking for the Remove phase: seq -> delivered flag. *)
  let remove_acked : (int, bool ref) Hashtbl.t = Hashtbl.create 64 in
  let on_recv (r : msg Airnet.Net.recv) =
    let me = nodes.(r.dst) in
    (* Ignore messages from nodes the failure detector has declared dead:
       a wave already in flight when its sender crashed must not
       resurrect the sender in anyone's neighbor set. *)
    if alive r.src then
      let link_power =
        Radio.Pathloss.estimate_link_power pathloss ~tx_power:r.tx_power
          ~rx_power:r.rx_power
      in
      match r.payload with
      | Hello ->
          (* Always answer, whatever our phase: the sender needs the Ack,
             and the link power estimate comes from (tx, rx) powers. *)
          Growth.answer growth me.g r ~link_power
      | Ack ->
          if not (IMap.mem r.src me.g.neighbors) then
            (* [mutant] is the deliberate reordering bug the schedule
               explorer must catch (see Check.Explore's mutation smoke
               test): it assumes first-time acks arrive in ascending src
               order and discards "late" ones.  Under the default FIFO
               tie-break and a reliable channel that assumption actually
               holds — broadcasts deliver to an audience sorted by id, so
               each step's ack batch comes back ascending — which is
               precisely what makes the bug invisible to every
               single-schedule test and a fair target for exploration. *)
            if mutant && r.src < me.last_ack_src then
              Obs.Recorder.incr obs "mutant.dropped_acks"
            else begin
              if r.src > me.last_ack_src then me.last_ack_src <- r.src;
              Growth.discover me.g r ~link_power ~tag:me.g.power
            end
      | Remove seq ->
          (* Idempotent: duplicates re-add to a set and re-ack. *)
          me.removed_by <- ISet.add r.src me.removed_by;
          Obs.Recorder.incr obs "msg.remove_ack";
          ignore
            (Airnet.Net.send net ~src:r.dst ~dst:r.src ~power:link_power
               (RemoveAck seq))
      | RemoveAck seq -> (
          match Hashtbl.find_opt remove_acked seq with
          | Some flag -> flag := true
          | None -> ())
  in
  for u = 0 to n - 1 do
    Airnet.Net.set_handler net u on_recv
  done;
  let injected = Faults.Inject.arm faults net in
  (* Start every node, optionally staggered (asynchronous starts); a
     node recovered before its start time has started already. *)
  Array.iter
    (fun node ->
      let delay = if start_spread = 0. then 0. else Prng.float prng start_spread in
      ignore
        (Dsim.Sim.schedule sim ~delay (fun () ->
             if node.g.epoch = 0 then Growth.start growth node.g ~schedule:steps)))
    nodes;
  Obs.Recorder.span obs "discovery" (fun () -> ignore (Dsim.Sim.run sim));
  (* Section 3.2 Remove phase: u notifies every node it acked but did not
     select.  Run after global convergence — and only when asymmetric
     edge removal is applicable (alpha <= 2pi/3), since the
     notifications exist solely to build E-_alpha.  Each notification is
     acknowledged and retransmitted with bounded exponential backoff:
     a silently lost Remove would leave a stale edge in E-_alpha. *)
  let removals = ref 0 in
  let seq = ref 0 in
  let send_remove u v link_power =
    incr removals;
    let id = !seq in
    incr seq;
    let delivered = ref false in
    Hashtbl.replace remove_acked id delivered;
    let rec attempt k =
      if (not !delivered) && alive u && alive v then begin
        if k > 1 then Airnet.Net.note_retransmit net u;
        Obs.Recorder.incr obs "msg.remove";
        ignore (Airnet.Net.send net ~src:u ~dst:v ~power:link_power (Remove id));
        if k < reliability.remove_attempts then
          ignore
            (Dsim.Sim.schedule sim ~delay:(Growth.retry_delay growth k) (fun () ->
                 attempt (k + 1)))
      end
    in
    attempt 1
  in
  if Config.allows_asymmetric_removal config then
    Obs.Recorder.span obs "asym-removal" (fun () ->
        Array.iter
          (fun node ->
            let u = node.g.id in
            if alive u then
              IMap.iter
                (fun v link_power ->
                  if (not (IMap.mem v node.g.neighbors)) && alive v then
                    send_remove u v link_power)
                node.g.acked)
          nodes;
        ignore (Dsim.Sim.run sim));
  let alive_arr = Array.init n (fun u -> alive u) in
  (* A crashed node's converged state is unreachable; report it empty. *)
  let neighbors =
    Array.map
      (fun { g; _ } ->
        if not alive_arr.(g.id) then []
        else
          IMap.bindings g.neighbors
          |> List.map snd
          |> List.sort Neighbor.compare_by_link_power)
      nodes
  in
  let discovery =
    Discovery.pack ~config ~pathloss ~positions:(Array.copy positions)
      ~power:(Array.map (fun node -> node.g.power) nodes)
      ~boundary:(Array.map (fun node -> node.g.boundary) nodes)
      neighbors
  in
  let core_neighbors =
    Array.map
      (fun node ->
        if not alive_arr.(node.g.id) then []
        else
          IMap.bindings node.g.neighbors
          |> List.filter_map (fun (v, _) ->
                 if ISet.mem v node.removed_by then None else Some v))
      nodes
  in
  {
    discovery;
    core_neighbors;
    removals = !removals;
    alive = alive_arr;
    injected;
    schedule_log = Dsim.Sim.schedule_log sim;
    stats =
      {
        transmissions = Airnet.Net.transmissions net;
        deliveries = Airnet.Net.deliveries net;
        drops = Airnet.Net.drops net;
        retransmissions = Airnet.Net.retransmits net;
        max_rounds =
          Array.fold_left (fun acc node -> Stdlib.max acc node.g.rounds) 0 nodes;
        duration = Dsim.Sim.now sim;
      };
  }
