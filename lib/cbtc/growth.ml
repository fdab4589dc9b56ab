module IMap = Map.Make (Int)

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

type phase = Growing | Settling | Done

type node = {
  id : int;
  mutable epoch : int;
  mutable phase : phase;
  mutable power : float;
  mutable schedule : float list;
  mutable rounds : int;
  mutable attempt : int;
  mutable settle_left : int;
  mutable boundary : bool;
  mutable neighbors : Neighbor.t IMap.t;
  mutable acked : float IMap.t;
}

let node id ~power =
  {
    id;
    epoch = 0;
    phase = Done;
    power;
    schedule = [];
    rounds = 0;
    attempt = 0;
    settle_left = 0;
    boundary = false;
    neighbors = IMap.empty;
    acked = IMap.empty;
  }

let reset node ~power =
  node.epoch <- node.epoch + 1;
  node.phase <- Done;
  node.power <- power;
  node.schedule <- [];
  node.attempt <- 0;
  node.settle_left <- 0;
  node.boundary <- false;
  node.neighbors <- IMap.empty;
  node.acked <- IMap.empty

let discover node (r : _ Airnet.Net.recv) ~link_power ~tag =
  node.neighbors <-
    IMap.add r.src
      (Neighbor.make ~id:r.src ~dir:r.rx_dir ~link_power ~tag)
      node.neighbors

type 'msg t = {
  net : 'msg Airnet.Net.t;
  sim : Dsim.Sim.t;
  obs : Obs.Recorder.t;
  alpha : float;
  hello : 'msg;
  ack : 'msg;
  hello_repeats : int;
  reliability : reliability;
  max_delay : float;
  eval_delay : float;
  on_round : node -> unit;
  on_settled : node -> unit;
}

let create ~net ~obs ~alpha ~channel ~hello_repeats ~reliability ~hello ~ack
    ?(on_round = ignore) ?(on_settled = ignore) () =
  let max_delay = channel.Dsim.Channel.max_delay in
  {
    net;
    sim = Airnet.Net.sim net;
    obs;
    alpha;
    hello;
    ack;
    hello_repeats;
    reliability;
    max_delay;
    (* Delay after which a broadcast's acks must have arrived: hello
       propagation + ack propagation, for the last repeat. *)
    eval_delay =
      (Stdlib.float_of_int hello_repeats *. max_delay) +. max_delay +. 0.5;
    on_round;
    on_settled;
  }

let retry_delay m k =
  let factor =
    m.reliability.backoff
    *. (m.reliability.backoff_factor ** Stdlib.float_of_int (k - 1))
  in
  (Float.min 32. factor *. (2. *. m.max_delay)) +. 0.5

let has_gap m node =
  Geom.Dirset.has_gap ~alpha:m.alpha
    (IMap.fold (fun _ (nb : Neighbor.t) acc -> nb.dir :: acc) node.neighbors [])

(* The guard every scheduled callback passes first. *)
let live m node ~epoch = Airnet.Net.is_alive m.net node.id && node.epoch = epoch

let hello m node ~power =
  Obs.Recorder.incr m.obs "msg.hello";
  ignore (Airnet.Net.bcast m.net ~src:node.id ~power m.hello)

(* A hello round beyond a step's first broadcast: a retry or a settle
   probe, at the current power. *)
let probe m node =
  m.on_round node;
  Airnet.Net.note_retransmit m.net node.id;
  hello m node ~power:node.power

let answer m node (r : _ Airnet.Net.recv) ~link_power =
  node.acked <- IMap.add r.src link_power node.acked;
  Obs.Recorder.incr m.obs "msg.ack";
  ignore (Airnet.Net.send m.net ~src:node.id ~dst:r.src ~power:link_power m.ack)

let finish m node =
  node.phase <- Done;
  m.on_settled node

let rec step m node =
  match node.schedule with
  | [] ->
      (* Exhausted at maximum power with a gap remaining: boundary. *)
      node.boundary <- true;
      finish m node
  | power :: rest ->
      node.schedule <- rest;
      node.power <- power;
      node.rounds <- node.rounds + 1;
      Obs.Recorder.incr m.obs "protocol.power_steps";
      node.attempt <- 1;
      m.on_round node;
      let epoch = node.epoch in
      for i = 0 to m.hello_repeats - 1 do
        ignore
          (Dsim.Sim.schedule m.sim
             ~delay:(Stdlib.float_of_int i *. m.max_delay)
             (fun () -> if live m node ~epoch then hello m node ~power))
      done;
      ignore
        (Dsim.Sim.schedule m.sim ~delay:m.eval_delay (fun () ->
             evaluate m node ~epoch))

and evaluate m node ~epoch =
  if live m node ~epoch && node.phase = Growing then
    if not (has_gap m node) then begin
      node.boundary <- false;
      settle m node ~epoch
    end
    else if node.attempt < m.reliability.hello_attempts then begin
      (* The gap may be a lost probe rather than a real hole: retry the
         same power before paying for a bigger radius. *)
      node.attempt <- node.attempt + 1;
      probe m node;
      ignore
        (Dsim.Sim.schedule m.sim
           ~delay:(retry_delay m (node.attempt - 1))
           (fun () -> evaluate m node ~epoch))
    end
    else step m node

and settle m node ~epoch =
  (* Gap closed at the current power.  Under a lossy channel some
     in-range nodes may still be unheard; confirm the final power with
     [settle_rounds] extra probes (acks only ever add neighbors, so
     this cannot reopen the gap) before declaring convergence. *)
  if m.reliability.settle_rounds = 0 then finish m node
  else begin
    node.phase <- Settling;
    node.settle_left <- m.reliability.settle_rounds;
    settle_tick m node ~epoch
  end

and settle_tick m node ~epoch =
  if live m node ~epoch && node.phase = Settling then
    if node.settle_left = 0 then finish m node
    else begin
      node.settle_left <- node.settle_left - 1;
      probe m node;
      ignore
        (Dsim.Sim.schedule m.sim ~delay:m.eval_delay (fun () ->
             settle_tick m node ~epoch))
    end

let start m node ~schedule =
  node.schedule <- schedule;
  node.phase <- Growing;
  step m node
