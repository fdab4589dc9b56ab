type t = {
  sim : Sim.t;
  interval : float;
  action : unit -> unit;
  mutable active : bool;
  mutable fires : int;
  mutable pending : Sim.handle option;
}

let rec arm t ~delay =
  t.pending <-
    Some
      (Sim.schedule t.sim ~delay (fun () ->
           if t.active then begin
             t.fires <- t.fires + 1;
             t.action ();
             (* the action may have stopped us *)
             if t.active then arm t ~delay:t.interval
           end))

let start sim ?initial_delay ~interval action =
  if interval <= 0. then invalid_arg "Periodic.start: non-positive interval";
  let initial = Option.value ~default:interval initial_delay in
  if initial < 0. then invalid_arg "Periodic.start: negative initial delay";
  let t = { sim; interval; action; active = true; fires = 0; pending = None } in
  arm t ~delay:initial;
  t

let stop t =
  t.active <- false;
  Option.iter Sim.cancel t.pending;
  t.pending <- None

let fires t = t.fires
