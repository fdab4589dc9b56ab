type invariant = Oracle | Guarantees | Powers_grow

type t = {
  alpha : float;
  exponent : float;
  coeff : float;
  max_range : float;
  p0 : float;
  positions : Geom.Vec2.t array;
  start_spread : float;
  loss : float;
  hello_repeats : int;
  hardened : bool;
  run_seed : int;
  faults : Faults.Plan.t;
  mutant : bool;
  invariant : invariant;
}

let nb_nodes t = Array.length t.positions

let make ?(alpha = Geom.Angle.five_pi_six) ?(side = 1500.) ?(range = 500.)
    ?(p0 = 100.) ?(start_spread = 0.) ?(loss = 0.) ?(hello_repeats = 1)
    ?(hardened = false) ?(run_seed = 1) ?(faults = Faults.Plan.empty)
    ?(mutant = false) ?(invariant = Oracle) ~n ~seed () =
  if n < 2 then invalid_arg "Check.Scenario.make: n < 2";
  if loss < 0. || loss >= 1. then
    invalid_arg "Check.Scenario.make: loss out of [0,1)";
  let sc =
    Workload.Scenario.make ~n ~width:side ~height:side ~max_range:range ~seed
      ()
  in
  let pl = Workload.Scenario.pathloss sc in
  {
    alpha;
    exponent = Radio.Pathloss.exponent pl;
    coeff = Radio.Pathloss.coeff pl;
    max_range = Radio.Pathloss.max_range pl;
    p0;
    positions = Workload.Scenario.positions sc;
    start_spread;
    loss;
    hello_repeats;
    hardened;
    run_seed;
    faults;
    mutant;
    invariant;
  }

let config t = Cbtc.Config.make ~growth:(Cbtc.Config.Double t.p0) t.alpha

let pathloss t =
  Radio.Pathloss.make ~exponent:t.exponent ~coeff:t.coeff
    ~max_range:t.max_range ()

let channel t =
  if t.loss = 0. then Dsim.Channel.reliable
  else Dsim.Channel.make ~loss:t.loss ()

let run ?obs ?(policy = Dsim.Eventq.Fifo) t =
  let reliability =
    if t.hardened then Cbtc.Distributed.hardened else Cbtc.Distributed.legacy
  in
  Cbtc.Distributed.run ?obs ~channel:(channel t)
    ~hello_repeats:t.hello_repeats ~seed:t.run_seed
    ~start_spread:t.start_spread ~reliability ~faults:t.faults ~policy
    ~mutant:t.mutant (config t) (pathloss t) t.positions

let oracle t = Cbtc.Geo.run_flat (config t) (pathloss t) t.positions

(* Under loss or injected faults a node may legitimately discover fewer
   reachable peers than the fault-free oracle, so completeness is only
   demanded of reliable fault-free runs. *)
let complete t = t.loss = 0. && Faults.Plan.nb_events t.faults = 0

let powers_grow ~oracle (o : Cbtc.Distributed.outcome) =
  let n = Array.length o.Cbtc.Distributed.alive in
  let err = ref None in
  for u = n - 1 downto 0 do
    if
      o.Cbtc.Distributed.alive.(u)
      && o.Cbtc.Distributed.discovery.Cbtc.Discovery.power.(u)
         < oracle.Cbtc.Discovery.power.(u) -. 1e-9
    then
      err :=
        Some
          (Fmt.str "node %d: power shrank below oracle (%g < %g)" u
             o.Cbtc.Distributed.discovery.Cbtc.Discovery.power.(u)
             oracle.Cbtc.Discovery.power.(u))
  done;
  match !err with None -> Ok () | Some msg -> Error msg

let check ?oracle:orc t o =
  let orc = match orc with Some d -> d | None -> oracle t in
  match t.invariant with
  | Oracle -> Cbtc.Verify.check_oracle ~oracle:orc o
  | Guarantees -> Cbtc.Verify.check_guarantees ~complete:(complete t) o
  | Powers_grow -> powers_grow ~oracle:orc o

(* Canonical run fingerprint: converged neighbor ids, powers, boundary
   and liveness flags, and the Remove count.  Two runs with the same
   digest reached the same converged state — the cross-[-j] determinism
   contract of Check.Explore is stated in terms of this. *)
let digest (o : Cbtc.Distributed.outcome) =
  let d = o.Cbtc.Distributed.discovery in
  let b = Buffer.create 1024 in
  for u = 0 to Cbtc.Discovery.nb_nodes d - 1 do
    Buffer.add_string b (Printf.sprintf "n%d:" u);
    Cbtc.Discovery.iter_neighbors d u (fun ~id ~dir:_ ~link_power:_ ~tag:_ ->
        Buffer.add_string b (string_of_int id);
        Buffer.add_char b ',');
    Buffer.add_string b
      (Printf.sprintf "p=%.17g;b=%b;a=%b\n"
         d.Cbtc.Discovery.power.(u)
         d.Cbtc.Discovery.boundary.(u)
         o.Cbtc.Distributed.alive.(u))
  done;
  Buffer.add_string b (Printf.sprintf "removals=%d" o.Cbtc.Distributed.removals);
  Digest.to_hex (Digest.string (Buffer.contents b))

let drop_nodes t ~keep =
  let n = nb_nodes t in
  if Array.length keep <> n then
    invalid_arg "Check.Scenario.drop_nodes: keep length mismatch";
  let mapping = Array.make n None in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if keep.(u) then begin
      mapping.(u) <- Some !next;
      incr next
    end
  done;
  if !next < 2 then invalid_arg "Check.Scenario.drop_nodes: < 2 nodes kept";
  let positions =
    Array.of_list
      (List.filteri (fun u _ -> keep.(u)) (Array.to_list t.positions))
  in
  {
    t with
    positions;
    faults = Faults.Plan.restrict ~keep:(fun u -> mapping.(u)) t.faults;
  }

(* ---- JSON (de)serialization for replay artifacts ---- *)

let invariant_to_string = function
  | Oracle -> "oracle"
  | Guarantees -> "guarantees"
  | Powers_grow -> "powers-grow"

let invariant_of_string = function
  | "oracle" -> Oracle
  | "guarantees" -> Guarantees
  | "powers-grow" -> Powers_grow
  | s -> invalid_arg ("Check.Scenario: unknown invariant " ^ s)

let json_of_fault (e : Faults.Plan.event) =
  let open Obs.Jsonl in
  let kind =
    match e.Faults.Plan.kind with
    | Faults.Plan.Crash u -> [ ("kind", Str "crash"); ("node", Int u) ]
    | Faults.Plan.Recover u -> [ ("kind", Str "recover"); ("node", Int u) ]
    | Faults.Plan.Link_loss { src; dst; loss } ->
        [
          ("kind", Str "link-loss"); ("src", Int src); ("dst", Int dst);
          ("loss", Float loss);
        ]
  in
  Obj (("time", Float e.Faults.Plan.time) :: kind)

let jget k j =
  match Obs.Jsonl.member k j with
  | Some v -> v
  | None -> invalid_arg ("Check.Scenario: missing field " ^ k)

let jfloat = function
  | Obs.Jsonl.Float f -> f
  | Obs.Jsonl.Int i -> Stdlib.float_of_int i
  | _ -> invalid_arg "Check.Scenario: expected number"

let jint = function
  | Obs.Jsonl.Int i -> i
  | _ -> invalid_arg "Check.Scenario: expected int"

let jbool = function
  | Obs.Jsonl.Bool b -> b
  | _ -> invalid_arg "Check.Scenario: expected bool"

let jstr = function
  | Obs.Jsonl.Str s -> s
  | _ -> invalid_arg "Check.Scenario: expected string"

let jlist = function
  | Obs.Jsonl.List l -> l
  | _ -> invalid_arg "Check.Scenario: expected list"

let fault_of_json j =
  let time = jfloat (jget "time" j) in
  let kind =
    match jstr (jget "kind" j) with
    | "crash" -> Faults.Plan.Crash (jint (jget "node" j))
    | "recover" -> Faults.Plan.Recover (jint (jget "node" j))
    | "link-loss" ->
        Faults.Plan.Link_loss
          {
            src = jint (jget "src" j);
            dst = jint (jget "dst" j);
            loss = jfloat (jget "loss" j);
          }
    | s -> invalid_arg ("Check.Scenario: unknown fault kind " ^ s)
  in
  { Faults.Plan.time; kind }

let to_json t =
  let open Obs.Jsonl in
  Obj
    [
      ("alpha", Float t.alpha);
      ("exponent", Float t.exponent);
      ("coeff", Float t.coeff);
      ("max_range", Float t.max_range);
      ("p0", Float t.p0);
      ( "positions",
        List
          (Array.to_list t.positions
          |> List.map (fun (p : Geom.Vec2.t) ->
                 List [ Float p.Geom.Vec2.x; Float p.Geom.Vec2.y ])) );
      ("start_spread", Float t.start_spread);
      ("loss", Float t.loss);
      ("hello_repeats", Int t.hello_repeats);
      ("hardened", Bool t.hardened);
      ("run_seed", Int t.run_seed);
      ("faults", List (List.map json_of_fault (Faults.Plan.events t.faults)));
      ("mutant", Bool t.mutant);
      ("invariant", Str (invariant_to_string t.invariant));
    ]

let of_json j =
  let positions =
    jlist (jget "positions" j)
    |> List.map (fun p ->
           match jlist p with
           | [ x; y ] -> Geom.Vec2.make (jfloat x) (jfloat y)
           | _ -> invalid_arg "Check.Scenario: bad position")
    |> Array.of_list
  in
  {
    alpha = jfloat (jget "alpha" j);
    exponent = jfloat (jget "exponent" j);
    coeff = jfloat (jget "coeff" j);
    max_range = jfloat (jget "max_range" j);
    p0 = jfloat (jget "p0" j);
    positions;
    start_spread = jfloat (jget "start_spread" j);
    loss = jfloat (jget "loss" j);
    hello_repeats = jint (jget "hello_repeats" j);
    hardened = jbool (jget "hardened" j);
    run_seed = jint (jget "run_seed" j);
    faults =
      Faults.Plan.make (List.map fault_of_json (jlist (jget "faults" j)));
    mutant = jbool (jget "mutant" j);
    invariant = invariant_of_string (jstr (jget "invariant" j));
  }
