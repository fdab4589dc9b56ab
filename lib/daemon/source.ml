(* Deterministic join/leave/move stream.

   All randomness flows from one seed: node motion from a split PRNG
   inside [Workload.Mobility], move sampling (which node reports, when)
   from the source's own stream, crashes/recoveries from the fault plan
   built by the caller.  Nodes advance lazily — [Mobility.step_one] up
   to each event's time — so a tick costs O(events), not O(n), and the
   stream depends only on the sequence of [tick ~until] boundaries.
   Replaying the same boundaries (checkpoint recovery) reproduces the
   stream bit-for-bit. *)

type t = {
  prng : Prng.t;  (* move sampling: (node, time) draws *)
  mob : Workload.Mobility.t;
  n : int;
  move_rate : float;  (* network-wide position reports per time unit *)
  storm : (float * float * float) option;  (* t0, t1, rate multiplier *)
  mutable churn : Faults.Plan.event list;  (* due crash/recover, sorted *)
  true_alive : bool array;
  last_advance : float array;
  mutable now : float;
  mutable credit : float;  (* fractional move budget carried across ticks *)
}

let create ~seed ~field ~params ~move_rate ?storm ~churn positions =
  if move_rate < 0. then invalid_arg "Daemon.Source.create: negative move_rate";
  (match storm with
  | Some (t0, t1, mult) ->
      if t0 < 0. || t1 < t0 || mult < 0. then
        invalid_arg "Daemon.Source.create: bad storm window"
  | None -> ());
  let prng = Prng.create ~seed in
  let mob_prng = Prng.split prng in
  let n = Array.length positions in
  {
    prng;
    mob = Workload.Mobility.create mob_prng ~field ~params positions;
    n;
    move_rate;
    storm;
    churn =
      (* links have no meaning for a topology-state daemon *)
      List.filter
        (fun (e : Faults.Plan.event) ->
          match e.kind with
          | Crash _ | Recover _ -> true
          | Link_loss _ -> false)
        (Faults.Plan.events churn);
    true_alive = Array.make n true;
    last_advance = Array.make n 0.;
    now = 0.;
    credit = 0.;
  }

let time t = t.now

(* Bring node [u]'s motion up to stream time [until]. *)
let advance t u ~until =
  let dt = until -. t.last_advance.(u) in
  if dt > 0. then begin
    Workload.Mobility.step_one t.mob u ~dt;
    t.last_advance.(u) <- until
  end

let in_storm t at =
  match t.storm with
  | Some (t0, t1, _) -> at >= t0 && at < t1
  | None -> false

let tick t ~until =
  if until < t.now then invalid_arg "Daemon.Source.tick: time going backwards";
  let span = until -. t.now in
  (* Effective rate is sampled once per tick (at the epoch start): a
     storm that begins mid-epoch kicks in at the next boundary. *)
  let mult =
    match t.storm with
    | Some (_, _, m) when in_storm t t.now -> m
    | _ -> 1.
  in
  t.credit <- t.credit +. (t.move_rate *. mult *. span);
  let k = int_of_float (Float.floor t.credit) in
  t.credit <- t.credit -. float_of_int k;
  (* Draw all (node, time) move samples in generation order, then order
     by time with the draw index as tie-break — a stable, seed-only
     ordering. *)
  let moves =
    if k = 0 || span <= 0. then []
    else
      List.init k (fun i ->
          let u = Prng.int t.prng t.n in
          let at = Prng.uniform t.prng ~lo:t.now ~hi:until in
          (at, i, u))
  in
  let moves =
    List.sort
      (fun (a, i, _) (b, j, _) ->
        match Float.compare a b with 0 -> Int.compare i j | c -> c)
      moves
  in
  let due, later =
    List.partition
      (fun (e : Faults.Plan.event) -> e.time <= until)
      t.churn
  in
  t.churn <- later;
  (* Merge, churn first on time ties: a crash at time x silences the
     node before a simultaneous position report. *)
  let churn_event acc (e : Faults.Plan.event) =
    match e.kind with
    | Faults.Plan.Crash u when t.true_alive.(u) ->
        t.true_alive.(u) <- false;
        { Event.time = e.time; node = u; kind = Event.Leave } :: acc
    | Faults.Plan.Recover u when not t.true_alive.(u) ->
        advance t u ~until:e.time;
        t.true_alive.(u) <- true;
        let p = Workload.Mobility.position t.mob u in
        { Event.time = e.time; node = u; kind = Event.Join p } :: acc
    | _ -> acc  (* duplicate crash/recover, or filtered kinds *)
  in
  let move_event acc (at, _, u) =
    (* dead nodes keep reporting positions: the daemon must track them
       so a later recovery joins at the right place *)
    advance t u ~until:at;
    let p = Workload.Mobility.position t.mob u in
    { Event.time = at; node = u; kind = Event.Move p } :: acc
  in
  let rec emit acc (due : Faults.Plan.event list) moves =
    match (due, moves) with
    | [], [] -> List.rev acc
    | e :: due', [] -> emit (churn_event acc e) due' []
    | [], m :: moves' -> emit (move_event acc m) [] moves'
    | e :: due', ((at, _, _) :: _ as ms) when e.time <= at ->
        emit (churn_event acc e) due' ms
    | _, m :: moves' -> emit (move_event acc m) due moves'
  in
  let events = emit [] due moves in
  t.now <- until;
  events

let fast_forward t ~until = ignore (tick t ~until : Event.t list)

(* Ground truth for degradation reporting: where every node really is
   (lazily advanced to its last event) and who is really alive. *)
let true_positions t = Workload.Mobility.positions t.mob

let true_alive t = Array.copy t.true_alive
