type kind =
  | Crash of int
  | Recover of int
  | Link_loss of { src : int; dst : int; loss : float }

type event = { time : float; kind : kind }

type t = { events : event list }

let empty = { events = [] }

let check_event e =
  if e.time < 0. || not (Float.is_finite e.time) then
    invalid_arg "Faults.Plan: negative or non-finite event time";
  match e.kind with
  | Link_loss { loss; _ } when loss < 0. || loss > 1. ->
      invalid_arg "Faults.Plan: link loss out of [0,1]"
  | _ -> ()

let sort_events events =
  List.stable_sort (fun a b -> Float.compare a.time b.time) events

let make events =
  List.iter check_event events;
  { events = sort_events events }

let events t = t.events

let union a b = { events = sort_events (a.events @ b.events) }

let nb_events t = List.length t.events

let crashed_nodes t =
  List.filter_map (function { kind = Crash u; _ } -> Some u | _ -> None) t.events
  |> List.sort_uniq Int.compare

let random_crashes ~prng ~n ~fraction ~window:(w0, w1) ?recover_after () =
  if n < 0 then invalid_arg "Faults.Plan.random_crashes: n < 0";
  if fraction < 0. || fraction > 1. then
    invalid_arg "Faults.Plan.random_crashes: fraction out of [0,1]";
  if w0 < 0. || w1 < w0 then
    invalid_arg "Faults.Plan.random_crashes: bad window";
  (match recover_after with
  | Some d when d < 0. ->
      invalid_arg "Faults.Plan.random_crashes: negative recover_after"
  | Some d when not (Float.is_finite d) ->
      invalid_arg "Faults.Plan.random_crashes: non-finite recover_after"
  | _ -> ());
  let victims = Stdlib.min n (int_of_float (Float.round (fraction *. Stdlib.float_of_int n))) in
  let ids = Array.init n Fun.id in
  Prng.shuffle prng ids;
  let events = ref [] in
  for i = 0 to victims - 1 do
    let u = ids.(i) in
    let at = if w1 = w0 then w0 else Prng.uniform prng ~lo:w0 ~hi:w1 in
    events := { time = at; kind = Crash u } :: !events;
    match recover_after with
    | Some d -> events := { time = at +. d; kind = Recover u } :: !events
    | None -> ()
  done;
  make !events

let partition ~left ~right ~from_ ~until =
  if from_ < 0. || until < from_ then
    invalid_arg "Faults.Plan.partition: bad interval";
  let events = ref [] in
  let sever time loss =
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            if u <> v then begin
              events := { time; kind = Link_loss { src = u; dst = v; loss } } :: !events;
              events := { time; kind = Link_loss { src = v; dst = u; loss } } :: !events
            end)
          right)
      left
  in
  sever from_ 1.;
  sever until 0.;
  make !events

let random_asymmetric_loss ~prng ~n ~pairs ~loss:(lo, hi) ~time =
  if n < 2 then invalid_arg "Faults.Plan.random_asymmetric_loss: n < 2";
  if pairs < 0 then invalid_arg "Faults.Plan.random_asymmetric_loss: pairs < 0";
  if time < 0. then invalid_arg "Faults.Plan.random_asymmetric_loss: negative time";
  if lo < 0. || hi < lo || hi > 1. then
    invalid_arg "Faults.Plan.random_asymmetric_loss: loss interval out of [0,1]";
  let events = ref [] in
  for _ = 1 to pairs do
    let src = Prng.int prng n in
    let dst = (src + 1 + Prng.int prng (n - 1)) mod n in
    let loss = if hi = lo then lo else Prng.uniform prng ~lo ~hi in
    events := { time; kind = Link_loss { src; dst; loss } } :: !events
  done;
  make !events

let restrict ~keep t =
  let node u = keep u in
  let events =
    List.filter_map
      (fun e ->
        match e.kind with
        | Crash u -> Option.map (fun u' -> { e with kind = Crash u' }) (node u)
        | Recover u ->
            Option.map (fun u' -> { e with kind = Recover u' }) (node u)
        | Link_loss { src; dst; loss } -> (
            match (node src, node dst) with
            | Some src, Some dst ->
                Some { e with kind = Link_loss { src; dst; loss } }
            | _ -> None))
      t.events
  in
  { events }

let pp_kind ppf = function
  | Crash u -> Fmt.pf ppf "crash %d" u
  | Recover u -> Fmt.pf ppf "recover %d" u
  | Link_loss { src; dst; loss } ->
      Fmt.pf ppf "link %d->%d loss=%.2f" src dst loss

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list (fun ppf e -> Fmt.pf ppf "t=%.1f %a" e.time pp_kind e.kind))
    t.events
