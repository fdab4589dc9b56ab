let format_tag = "cbtc-daemon-checkpoint"

let version = 1

type t = {
  time : float;
  epoch : int;
  positions : Geom.Vec2.t array;
  alive : bool array;
  backlog : Event.t list;
  counters : (string * int) list;
}

let to_json c =
  let open Obs.Jsonl in
  let vec (p : Geom.Vec2.t) = List [ Float p.x; Float p.y ] in
  Obj
    [
      ("format", Str format_tag);
      ("version", Int version);
      ("time", Float c.time);
      ("epoch", Int c.epoch);
      ("positions", List (Array.to_list (Array.map vec c.positions)));
      ("alive", List (Array.to_list (Array.map (fun b -> Bool b) c.alive)));
      ("backlog", List (List.map Event.to_json c.backlog));
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) c.counters));
    ]

let fail what = failwith ("Daemon.Checkpoint: malformed checkpoint: " ^ what)

let num what = function
  | Obs.Jsonl.Float f -> f
  | Obs.Jsonl.Int i -> Stdlib.float_of_int i
  | _ -> fail what

let of_json j =
  let open Obs.Jsonl in
  let get k = match member k j with Some v -> v | None -> fail ("missing " ^ k) in
  (match get "format" with
  | Str s when s = format_tag -> ()
  | _ -> fail "wrong format tag");
  (match get "version" with
  | Int v when v = version -> ()
  | _ -> fail "unsupported version");
  let time = num "time" (get "time") in
  let epoch =
    match get "epoch" with Int e when e >= 0 -> e | _ -> fail "epoch"
  in
  let positions =
    match get "positions" with
    | List ps ->
        Array.of_list
          (List.map
             (function
               | List [ x; y ] -> Geom.Vec2.make (num "x" x) (num "y" y)
               | _ -> fail "positions entry")
             ps)
    | _ -> fail "positions"
  in
  let alive =
    match get "alive" with
    | List bs ->
        Array.of_list
          (List.map (function Bool b -> b | _ -> fail "alive entry") bs)
    | _ -> fail "alive"
  in
  if Array.length alive <> Array.length positions then
    fail "alive/positions length mismatch";
  let n = Array.length positions in
  (* a restored event is applied to the engine verbatim: reject here
     what [Engine.apply] would reject mid-stream *)
  let event j =
    let e = Event.of_json j in
    if e.Event.node < 0 || e.Event.node >= n then
      fail (Printf.sprintf "backlog event node %d outside [0, %d)" e.Event.node n);
    e
  in
  let backlog =
    match get "backlog" with
    | List es -> List.map event es
    | _ -> fail "backlog"
  in
  let counters =
    match get "counters" with
    | Obj kvs ->
        List.map (function k, Int v -> (k, v) | k, _ -> fail k) kvs
    | _ -> fail "counters"
  in
  { time; epoch; positions; alive; backlog; counters }

(* Write-then-rename: a crash or write error mid-save leaves at most a
   stray temporary, never a truncated checkpoint at [path]. *)
let save path c =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Obs.Jsonl.to_string (to_json c));
      output_char oc '\n';
      close_out oc);
  Sys.rename tmp path

let load path =
  let ic =
    try open_in path
    with Sys_error m -> failwith ("Daemon.Checkpoint: cannot open: " ^ m)
  in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Jsonl.of_string (String.trim text) with
  | j -> of_json j
  | exception Obs.Jsonl.Parse_error m ->
      failwith ("Daemon.Checkpoint: malformed checkpoint: " ^ m)
