type handle = { mutable cancelled : bool; action : unit -> unit }

type t = {
  mutable now : float;
  queue : handle Eventq.t;
  mutable fired : int;
  obs : Obs.Recorder.t;
}

let create ?(obs = Obs.Recorder.nil) ?(policy = Eventq.Fifo) () =
  { now = 0.; queue = Eventq.create ~policy (); fired = 0; obs }

let now t = t.now

let policy t = Eventq.policy t.queue

let schedule_log t = Eventq.log t.queue

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Sim.schedule_at: time in the past";
  let h = { cancelled = false; action = f } in
  Eventq.push t.queue ~time h;
  h

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) f

let cancel h = h.cancelled <- true

let fire t time h =
  t.now <- time;
  if not h.cancelled then begin
    t.fired <- t.fired + 1;
    Obs.Recorder.incr t.obs "sim.events_fired";
    h.action ()
  end

let step t =
  match Eventq.pop t.queue with
  | exception Not_found -> false
  | time, h ->
      fire t time h;
      true

let run t =
  let before = t.fired in
  while step t do
    ()
  done;
  t.fired - before

let run_until t ~time =
  if time < t.now then invalid_arg "Sim.run_until: time in the past";
  let before = t.fired in
  let continue = ref true in
  while !continue do
    match Eventq.peek_time t.queue with
    | Some next when next <= time ->
        let fire_time, h = Eventq.pop t.queue in
        fire t fire_time h
    | Some _ | None -> continue := false
  done;
  t.now <- time;
  t.fired - before
