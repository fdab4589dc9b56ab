type 'msg recv = {
  dst : int;
  src : int;
  tx_power : float;
  rx_power : float;
  rx_dir : float;
  payload : 'msg;
}

type 'msg handler = 'msg recv -> unit

type fault = Crashed of int | Recovered of int

type 'msg t = {
  sim : Dsim.Sim.t;
  pathloss : Radio.Pathloss.t;
  (* Propagation environment: every reachability test, probe radius and
     rx power goes through it.  Without [?env] at [create] it is the
     trivial one, bit-identical to the pure pathloss model. *)
  env : Radio.Env.t;
  channel : Dsim.Channel.t;
  prng : Prng.t;
  positions : Geom.Vec2.t array;
  grid : Geom.Grid.t;
  (* Spatial index over [positions]; kept in sync by [set_position].  It
     deliberately still lists crashed nodes: the grid is a pure position
     index (a dead radio still occupies a point in space), [bcast]
     re-checks [alive] on every candidate before scheduling a delivery —
     so a dead node can never look like a live receiver — and [recover]
     would otherwise have to re-insert the node.  The alive check is
     exact, not a prefilter, hence no grid-level skipping is needed. *)
  alive : bool array;
  handlers : 'msg handler option array;
  link_loss : (int * int, float) Hashtbl.t;
  mutable drops : int;
  mutable retransmits : int;  (* credited by protocols *)
  mutable fault_hooks : (fault -> unit) list;
  mutable transmissions : int;
  mutable deliveries : int;
  obs : Obs.Recorder.t;
}

let create ?(obs = Obs.Recorder.nil) ?env ~sim ~pathloss ~channel ~prng
    ~positions () =
  let n = Array.length positions in
  let env = Radio.Env.resolve ?env pathloss in
  {
    sim;
    pathloss;
    env;
    channel;
    prng;
    positions = Array.copy positions;
    grid =
      Geom.Grid.create ~range:(Radio.Pathloss.max_range pathloss) positions;
    alive = Array.make n true;
    handlers = Array.make n None;
    link_loss = Hashtbl.create 16;
    drops = 0;
    retransmits = 0;
    fault_hooks = [];
    transmissions = 0;
    deliveries = 0;
    obs;
  }

let nb_nodes t = Array.length t.positions

let sim t = t.sim

let pathloss t = t.pathloss

let check t u =
  if u < 0 || u >= nb_nodes t then invalid_arg "Net: node out of range"

let position t u =
  check t u;
  t.positions.(u)

let set_position t u p =
  check t u;
  t.positions.(u) <- p;
  Geom.Grid.move t.grid u p

let distance t u v =
  check t u;
  check t v;
  Geom.Vec2.dist t.positions.(u) t.positions.(v)

let set_handler t u h =
  check t u;
  t.handlers.(u) <- Some h

let on_fault t hook = t.fault_hooks <- t.fault_hooks @ [ hook ]

let fire_fault t ev = List.iter (fun hook -> hook ev) t.fault_hooks

let crash t u =
  check t u;
  if t.alive.(u) then begin
    t.alive.(u) <- false;
    Obs.Recorder.incr t.obs "net.crashes";
    fire_fault t (Crashed u)
  end

let recover t u =
  check t u;
  if not t.alive.(u) then begin
    t.alive.(u) <- true;
    Obs.Recorder.incr t.obs "net.recoveries";
    fire_fault t (Recovered u)
  end

let is_alive t u =
  check t u;
  t.alive.(u)

let set_link_loss t ~src ~dst ~loss =
  check t src;
  check t dst;
  if loss < 0. || loss > 1. then
    invalid_arg "Net.set_link_loss: loss out of [0,1]";
  if loss = 0. then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) loss

let link_loss t ~src ~dst =
  match Hashtbl.find_opt t.link_loss (src, dst) with
  | Some p -> p
  | None -> 0.

let transmissions t = t.transmissions

let deliveries t = t.deliveries

let drops t = t.drops

let note_retransmit t u =
  check t u;
  Obs.Recorder.incr t.obs "net.retransmissions";
  t.retransmits <- t.retransmits + 1

let retransmits t = t.retransmits

let check_power t power =
  if power <= 0. then invalid_arg "Net: non-positive power";
  if power > Radio.Pathloss.max_power t.pathloss *. (1. +. 1e-9) then
    invalid_arg "Net: power exceeds maximum"

(* Schedule delivery of one copy to [dst]; reception metadata is computed
   at transmission time (geometry when the wave leaves the antenna).  A
   logical delivery counts as a drop when the per-link loss eats it, the
   channel drops every copy, or the receiver is dead at reception time. *)
let drop t =
  t.drops <- t.drops + 1;
  Obs.Recorder.incr t.obs "net.drops"

let deliver_to t ~src ~dst ~power payload =
  let extra_loss = link_loss t ~src ~dst in
  if extra_loss > 0. && Prng.bool t.prng ~p:extra_loss then drop t
  else begin
    let dist = distance t src dst in
    let rx_power =
      Radio.Env.rx_power t.env ~tx_power:power ~u:src ~v:dst
        ~pu:t.positions.(src) ~pv:t.positions.(dst) ~dist
    in
    let rx_dir =
      Geom.Vec2.direction ~from:t.positions.(dst) ~toward:t.positions.(src)
    in
    let event () =
      if t.alive.(dst) then
        match t.handlers.(dst) with
        | None -> ()
        | Some h ->
            t.deliveries <- t.deliveries + 1;
            Obs.Recorder.incr t.obs "net.deliveries";
            h { dst; src; tx_power = power; rx_power; rx_dir; payload }
      else drop t
    in
    let copies =
      Dsim.Channel.deliver t.channel ~link:(src, dst) t.sim t.prng event
    in
    if copies = 0 then drop t
  end

let reaches t ~power ~src ~dst =
  Radio.Env.reaches t.env ~power ~u:src ~v:dst ~pu:t.positions.(src)
    ~pv:t.positions.(dst) ~dist:(distance t src dst)

let radiate t =
  t.transmissions <- t.transmissions + 1;
  Obs.Recorder.incr t.obs "net.transmissions"

(* The spatial index prefilters receivers; the exact [reaches] test below
   decides, so the audience is identical to a full scan.  Deliveries are
   issued in increasing node id (as the full scan did): the channel model
   draws from the PRNG per delivery, so ordering is part of determinism. *)
let bcast t ~src ~power msg =
  check t src;
  check_power t power;
  if not t.alive.(src) then 0
  else begin
    radiate t;
    let reach = Radio.Env.probe_radius t.env ~power in
    let audience =
      Geom.Grid.fold_in_range t.grid t.positions.(src) ~dist:reach ~init:[]
        ~f:(fun acc dst ->
          if dst <> src && t.alive.(dst) && reaches t ~power ~src ~dst then
            dst :: acc
          else acc)
    in
    let audience = List.sort Int.compare audience in
    List.iter (fun dst -> deliver_to t ~src ~dst ~power msg) audience;
    List.length audience
  end

let send t ~src ~dst ~power msg =
  check t src;
  check t dst;
  check_power t power;
  if src = dst then invalid_arg "Net.send: src = dst";
  if not t.alive.(src) then false
  else begin
    radiate t;
    if t.alive.(dst) && reaches t ~power ~src ~dst then begin
      deliver_to t ~src ~dst ~power msg;
      true
    end
    else false
  end
