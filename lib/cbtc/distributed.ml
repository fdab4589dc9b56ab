module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type msg = Hello | Ack | Remove of int | RemoveAck of int

type reliability = {
  hello_attempts : int;
  settle_rounds : int;
  remove_attempts : int;
  backoff : float;
  backoff_factor : float;
}

let legacy =
  {
    hello_attempts = 1;
    settle_rounds = 0;
    remove_attempts = 1;
    backoff = 1.;
    backoff_factor = 2.;
  }

let hardened =
  {
    hello_attempts = 8;
    settle_rounds = 6;
    remove_attempts = 8;
    backoff = 1.;
    backoff_factor = 1.5;
  }

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

type phase = Growing | Settling | Done

type node = {
  id : int;
  mutable phase : phase;
  mutable power : float;  (* current broadcast power *)
  mutable schedule : float list;  (* remaining steps *)
  mutable rounds : int;
  mutable attempt : int;  (* hello broadcasts used at the current step *)
  mutable settle_left : int;
  mutable neighbors : Neighbor.t IMap.t;  (* N_u, keyed by id *)
  mutable last_ack_src : int;  (* highest new-ack src this step (mutant only) *)
  mutable acked : float IMap.t;  (* nodes I acked -> estimated link power *)
  mutable removed_by : ISet.t;  (* senders of Remove notifications *)
  mutable boundary : bool;
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
  let alpha = config.Config.alpha in
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
          id;
          phase = Growing;
          power = 0.;
          schedule = steps;
          rounds = 0;
          attempt = 0;
          settle_left = 0;
          neighbors = IMap.empty;
          last_ack_src = -1;
          acked = IMap.empty;
          removed_by = ISet.empty;
          boundary = false;
        })
  in
  let alive u = Airnet.Net.is_alive net u in
  let max_delay = channel.Dsim.Channel.max_delay in
  (* Delay after which a broadcast's acks must have arrived: hello
     propagation + ack propagation, for the last repeat. *)
  let eval_delay =
    (Stdlib.float_of_int hello_repeats *. max_delay) +. max_delay +. 0.5
  in
  (* Wait before the [k]-th retransmission (k >= 1): one hello/ack round
     trip stretched by bounded exponential backoff. *)
  let retry_delay k =
    let factor =
      reliability.backoff
      *. (reliability.backoff_factor ** Stdlib.float_of_int (k - 1))
    in
    (Float.min 32. factor *. (2. *. max_delay)) +. 0.5
  in
  let directions node =
    IMap.fold (fun _ (nb : Neighbor.t) acc -> nb.dir :: acc) node.neighbors []
  in
  let has_gap node = Geom.Dirset.has_gap ~alpha (directions node) in
  let hello node =
    Obs.Recorder.incr obs "msg.hello";
    ignore (Airnet.Net.bcast net ~src:node.id ~power:node.power Hello)
  in
  let rec start_step node =
    match node.schedule with
    | [] ->
        (* Exhausted at maximum power with a gap remaining: boundary. *)
        node.phase <- Done;
        node.boundary <- true
    | power :: rest ->
        node.schedule <- rest;
        node.power <- power;
        node.rounds <- node.rounds + 1;
        Obs.Recorder.incr obs "protocol.power_steps";
        node.attempt <- 1;
        node.last_ack_src <- -1;
        for i = 0 to hello_repeats - 1 do
          ignore
            (Dsim.Sim.schedule sim
               ~delay:(Stdlib.float_of_int i *. max_delay)
               (fun () -> if alive node.id then hello node))
        done;
        ignore (Dsim.Sim.schedule sim ~delay:eval_delay (fun () -> evaluate node))
  and evaluate node =
    if alive node.id && node.phase = Growing then
      if not (has_gap node) then settle node
      else if node.attempt < reliability.hello_attempts then begin
        (* The gap may be a lost probe rather than a real hole: retry the
           same power before paying for a bigger radius. *)
        node.attempt <- node.attempt + 1;
        node.last_ack_src <- -1;
        Airnet.Net.note_retransmit net node.id;
        hello node;
        ignore
          (Dsim.Sim.schedule sim
             ~delay:(retry_delay (node.attempt - 1))
             (fun () -> evaluate node))
      end
      else if node.schedule = [] then begin
        node.phase <- Done;
        node.boundary <- true
      end
      else start_step node
  and settle node =
    (* Gap closed at the current power.  Under a lossy channel some
       in-range nodes may still be unheard; confirm the final power with
       [settle_rounds] extra probes (acks only ever add neighbors, so
       this cannot reopen the gap) before declaring convergence. *)
    if reliability.settle_rounds = 0 then node.phase <- Done
    else begin
      node.phase <- Settling;
      node.settle_left <- reliability.settle_rounds;
      settle_tick node
    end
  and settle_tick node =
    if alive node.id && node.phase = Settling then begin
      if node.settle_left = 0 then node.phase <- Done
      else begin
        node.settle_left <- node.settle_left - 1;
        node.last_ack_src <- -1;
        Airnet.Net.note_retransmit net node.id;
        hello node;
        ignore
          (Dsim.Sim.schedule sim ~delay:eval_delay (fun () -> settle_tick node))
      end
    end
  in
  (* Crash recovery wiring.  [Airnet.Net.on_fault] plays the role of the
     failure detector that Section 4's NDP implements in-band with
     beacons: on a crash every survivor forgets the dead node and, if
     that reopened its cone, resumes growing from the next scheduled
     power (the paper's "grow from p(rad-)" rule); a recovered node
     restarts discovery from scratch. *)
  let on_crash v =
    Array.iter
      (fun u ->
        if u.id <> v && alive u.id then begin
          let had = IMap.mem v u.neighbors in
          u.neighbors <- IMap.remove v u.neighbors;
          u.acked <- IMap.remove v u.acked;
          if had && u.phase <> Growing && not u.boundary && has_gap u then
            if u.schedule = [] then u.boundary <- true
            else begin
              u.phase <- Growing;
              start_step u
            end
        end)
      nodes
  in
  let on_recover v =
    let node = nodes.(v) in
    node.phase <- Growing;
    node.power <- 0.;
    node.schedule <- steps;
    node.attempt <- 0;
    node.settle_left <- 0;
    node.neighbors <- IMap.empty;
    node.last_ack_src <- -1;
    node.acked <- IMap.empty;
    node.removed_by <- ISet.empty;
    node.boundary <- false;
    start_step node
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
      match r.payload with
      | Hello ->
          (* Always answer, whatever our phase: the sender needs the Ack,
             and the link power estimate comes from (tx, rx) powers. *)
          let link_power =
            Radio.Pathloss.estimate_link_power pathloss ~tx_power:r.tx_power
              ~rx_power:r.rx_power
          in
          me.acked <- IMap.add r.src link_power me.acked;
          Obs.Recorder.incr obs "msg.ack";
          ignore
            (Airnet.Net.send net ~src:r.dst ~dst:r.src ~power:link_power Ack)
      | Ack ->
          if not (IMap.mem r.src me.neighbors) then
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
              let link_power =
                Radio.Pathloss.estimate_link_power pathloss
                  ~tx_power:r.tx_power ~rx_power:r.rx_power
              in
              me.neighbors <-
                IMap.add r.src
                  (Neighbor.make ~id:r.src ~dir:r.rx_dir ~link_power
                     ~tag:me.power)
                  me.neighbors
            end
      | Remove seq ->
          (* Idempotent: duplicates re-add to a set and re-ack. *)
          me.removed_by <- ISet.add r.src me.removed_by;
          let link_power =
            Radio.Pathloss.estimate_link_power pathloss ~tx_power:r.tx_power
              ~rx_power:r.rx_power
          in
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
  (* Start every node, optionally staggered (asynchronous starts). *)
  Array.iter
    (fun node ->
      let delay = if start_spread = 0. then 0. else Prng.float prng start_spread in
      ignore (Dsim.Sim.schedule sim ~delay (fun () -> start_step node)))
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
            (Dsim.Sim.schedule sim ~delay:(retry_delay k) (fun () ->
                 attempt (k + 1)))
      end
    in
    attempt 1
  in
  if Config.allows_asymmetric_removal config then
    Obs.Recorder.span obs "asym-removal" (fun () ->
        Array.iter
          (fun node ->
            if alive node.id then
              IMap.iter
                (fun v link_power ->
                  if (not (IMap.mem v node.neighbors)) && alive v then
                    send_remove node.id v link_power)
                node.acked)
          nodes;
        ignore (Dsim.Sim.run sim));
  let alive_arr = Array.init n (fun u -> alive u) in
  (* A crashed node's converged state is unreachable; report it empty. *)
  let neighbors =
    Array.map
      (fun node ->
        if not alive_arr.(node.id) then []
        else
          IMap.bindings node.neighbors
          |> List.map snd
          |> List.sort Neighbor.compare_by_link_power)
      nodes
  in
  let discovery =
    Discovery.pack ~config ~pathloss ~positions:(Array.copy positions)
      ~power:(Array.map (fun node -> node.power) nodes)
      ~boundary:(Array.map (fun node -> node.boundary) nodes)
      neighbors
  in
  let core_neighbors =
    Array.map
      (fun node ->
        if not alive_arr.(node.id) then []
        else
          IMap.bindings node.neighbors
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
        max_rounds = Array.fold_left (fun acc node -> Stdlib.max acc node.rounds) 0 nodes;
        duration = Dsim.Sim.now sim;
      };
  }
