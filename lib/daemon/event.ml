type kind = Move of Geom.Vec2.t | Leave | Join of Geom.Vec2.t

type t = { time : float; node : int; kind : kind }

let is_move e = match e.kind with Move _ -> true | Leave | Join _ -> false

let kind_label = function Move _ -> "move" | Leave -> "leave" | Join _ -> "join"

let to_json e =
  let pos =
    match e.kind with
    | Leave -> []
    | Move p | Join p ->
        [ ("x", Obs.Jsonl.Float p.Geom.Vec2.x);
          ("y", Obs.Jsonl.Float p.Geom.Vec2.y) ]
  in
  Obs.Jsonl.Obj
    ([ ("t", Obs.Jsonl.Float e.time);
       ("node", Obs.Jsonl.Int e.node);
       ("kind", Obs.Jsonl.Str (kind_label e.kind)) ]
    @ pos)

(* Jsonl prints floats with the shortest round-tripping decimal, so an
   integral float comes back as [Int]: accept both. *)
let num field = function
  | Some (Obs.Jsonl.Float f) -> f
  | Some (Obs.Jsonl.Int i) -> Stdlib.float_of_int i
  | _ -> failwith ("Daemon.Event.of_json: bad or missing field " ^ field)

let of_json j =
  let get k = Obs.Jsonl.member k j in
  let time = num "t" (get "t") in
  let node =
    match get "node" with
    | Some (Obs.Jsonl.Int i) -> i
    | _ -> failwith "Daemon.Event.of_json: bad or missing field node"
  in
  let kind =
    match get "kind" with
    | Some (Obs.Jsonl.Str "leave") -> Leave
    | Some (Obs.Jsonl.Str (("move" | "join") as k)) ->
        let p = Geom.Vec2.make (num "x" (get "x")) (num "y" (get "y")) in
        if k = "move" then Move p else Join p
    | _ -> failwith "Daemon.Event.of_json: bad or missing field kind"
  in
  { time; node; kind }

let pp ppf e =
  match e.kind with
  | Leave -> Fmt.pf ppf "@[%g leave %d@]" e.time e.node
  | Move p -> Fmt.pf ppf "@[%g move %d -> %a@]" e.time e.node Geom.Vec2.pp p
  | Join p -> Fmt.pf ppf "@[%g join %d @@ %a@]" e.time e.node Geom.Vec2.pp p
