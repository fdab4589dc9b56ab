type loss_model =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
    }

type t = {
  loss : loss_model;
  duplicate : float;
  min_delay : float;
  max_delay : float;
  burst_state : (int * int, bool) Hashtbl.t;
}

let check_common ~duplicate ~min_delay ~max_delay =
  if duplicate < 0. || duplicate > 1. then
    invalid_arg "Channel.make: duplicate out of [0,1]";
  if min_delay < 0. || max_delay < min_delay then
    invalid_arg "Channel.make: bad delay range"

let reliable =
  {
    loss = Bernoulli 0.;
    duplicate = 0.;
    min_delay = 1.;
    max_delay = 1.;
    burst_state = Hashtbl.create 1;
  }

let make ?(loss = 0.) ?(duplicate = 0.) ?(min_delay = 1.) ?(max_delay = 1.) () =
  if loss < 0. || loss >= 1. then invalid_arg "Channel.make: loss out of [0,1)";
  check_common ~duplicate ~min_delay ~max_delay;
  { loss = Bernoulli loss; duplicate; min_delay; max_delay;
    burst_state = Hashtbl.create 1 }

let gilbert_elliott ~p_gb ~p_bg ?(loss_good = 0.) ~loss_bad ?(duplicate = 0.)
    ?(min_delay = 1.) ?(max_delay = 1.) () =
  if p_gb <= 0. || p_gb > 1. then
    invalid_arg "Channel.gilbert_elliott: p_gb out of (0,1]";
  if p_bg <= 0. || p_bg > 1. then
    invalid_arg "Channel.gilbert_elliott: p_bg out of (0,1]";
  if loss_good < 0. || loss_good >= 1. then
    invalid_arg "Channel.gilbert_elliott: loss_good out of [0,1)";
  if loss_bad < 0. || loss_bad > 1. then
    invalid_arg "Channel.gilbert_elliott: loss_bad out of [0,1]";
  check_common ~duplicate ~min_delay ~max_delay;
  {
    loss = Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad };
    duplicate;
    min_delay;
    max_delay;
    burst_state = Hashtbl.create 64;
  }

let copy t = { t with burst_state = Hashtbl.create 64 }

let mean_loss t =
  match t.loss with
  | Bernoulli p -> p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      let pi_bad = p_gb /. (p_gb +. p_bg) in
      (loss_good *. (1. -. pi_bad)) +. (loss_bad *. pi_bad)

(* Drop decision for one copy over [link]: sample the loss in the chain's
   current state, then advance the chain — so a burst that starts on this
   copy affects the next one.  The Bernoulli draw is unconditional (even
   at loss 0) to keep PRNG streams identical to earlier releases. *)
let dropped t ~link prng =
  match t.loss with
  | Bernoulli p -> Prng.bool prng ~p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      let bad =
        match Hashtbl.find_opt t.burst_state link with
        | Some b -> b
        | None -> false
      in
      let p = if bad then loss_bad else loss_good in
      let lost = p > 0. && Prng.bool prng ~p in
      let flip = Prng.bool prng ~p:(if bad then p_bg else p_gb) in
      if flip then Hashtbl.replace t.burst_state link (not bad);
      lost

let random_delay t prng =
  if t.max_delay = t.min_delay then t.min_delay
  else Prng.uniform prng ~lo:t.min_delay ~hi:t.max_delay

let deliver t ?(link = (-1, -1)) sim prng f =
  let copies = ref 0 in
  let attempt () =
    if not (dropped t ~link prng) then begin
      incr copies;
      ignore (Sim.schedule sim ~delay:(random_delay t prng) f)
    end
  in
  attempt ();
  if t.duplicate > 0. && Prng.bool prng ~p:t.duplicate then attempt ();
  !copies
