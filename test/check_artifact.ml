(* Declarative checker for the results documents bench/main.exe writes
   to <out>/ (and commits to bench_out/):

     check_artifact KIND FILE      KIND = perf | daemon | shadowing
                                          | lifetime | parallel

   Each kind's contract is its schema number, a table of header and row
   columns (name, type, range, nullable; a dotted name reaches into a
   nested object) and named semantic pins: row pins hold on every row,
   document pins relate rows to each other.  A broken column or pin
   exits 1 with a message naming the row; a bad command line or an
   unreadable file exits 2. *)

module J = Obs.Jsonl

type ty = Int | Num | Str | Bool | One_of of string list

type range =
  | Any
  | At_least of float
  | Above of float
  | Within of float * float  (* closed *)
  | Above_upto of float * float  (* half-open (lo, hi] *)

type column = { name : string; ty : ty; range : range; nullable : bool }

type pin =
  | Row of string * (J.t -> bool)
  | Doc of string * (J.t list -> string option)
      (* the failure detail, naming the offending row or cell *)

type contract = {
  schema : int;
  header : column list;
  columns : column list;
  label : string list;  (* the columns that name a row in messages *)
  pins : pin list;
}

exception Broken of string

let fail msg = raise (Broken msg)

let col ?(range = Any) ?(nullable = false) ty name =
  { name; ty; range; nullable }

let field v name =
  List.fold_left
    (fun v k -> Option.bind v (J.member k))
    (Some v)
    (String.split_on_char '.' name)

let number = function
  | J.Int i -> Some (Float.of_int i)
  | J.Float f -> Some f
  | _ -> None

(* pin accessors: the columns they read are checked before any pin *)
let num row name =
  Option.value ~default:Float.nan (Option.bind (field row name) number)

let str row name =
  match field row name with Some (J.Str s) -> s | _ -> ""

let describe c =
  let ty =
    match c.ty with
    | Int -> "an integer"
    | Num -> "a number"
    | Str -> "a string"
    | Bool -> "a boolean"
    | One_of ss -> "one of " ^ String.concat ", " (List.map (Fmt.str "%S") ss)
  in
  let range =
    match c.range with
    | Any -> ""
    | At_least lo -> Fmt.str " >= %g" lo
    | Above lo -> Fmt.str " > %g" lo
    | Within (lo, hi) -> Fmt.str " in [%g, %g]" lo hi
    | Above_upto (lo, hi) -> Fmt.str " in (%g, %g]" lo hi
  in
  ty ^ range ^ if c.nullable then " or null" else ""

let column_ok c v =
  match (c.ty, v) with
  | _, J.Null -> c.nullable
  | (Int, J.Int _ | Num, (J.Int _ | J.Float _) | Str, J.Str _ | Bool, J.Bool _)
    -> (
      match (number v, c.range) with
      | None, _ | _, Any -> true
      | Some x, At_least lo -> x >= lo
      | Some x, Above lo -> x > lo
      | Some x, Within (lo, hi) -> lo <= x && x <= hi
      | Some x, Above_upto (lo, hi) -> lo < x && x <= hi)
  | One_of ss, J.Str s -> List.mem s ss
  | _ -> false

let check_column c v =
  match field v c.name with
  | None -> Some (Fmt.str "missing %S (%s)" c.name (describe c))
  | Some x when column_ok c x -> None
  | Some _ -> Some (Fmt.str "%S must be %s" c.name (describe c))

let check contract doc =
  (match J.member "schema" doc with
  | Some (J.Int v) when v = contract.schema -> ()
  | Some (J.Int v) ->
      fail (Fmt.str "unsupported schema %d (expected %d)" v contract.schema)
  | _ -> fail "missing integer field \"schema\"");
  List.iter (fun c -> Option.iter fail (check_column c doc)) contract.header;
  let rows =
    match J.member "results" doc with
    | Some (J.List []) -> fail "\"results\" is empty"
    | Some (J.List rows) -> rows
    | _ -> fail "missing list field \"results\""
  in
  List.iteri
    (fun i row ->
      let named =
        List.filter_map
          (fun k ->
            Option.map (fun v -> k ^ "=" ^ J.to_string v) (field row k))
          contract.label
      in
      let ctx = Fmt.str "results[%d] (%s)" i (String.concat " " named) in
      List.iter
        (fun c -> Option.iter (fun m -> fail (ctx ^ ": " ^ m)) (check_column c row))
        contract.columns;
      List.iter
        (function
          | Row (name, holds) when not (holds row) ->
              fail (Fmt.str "%s: pin %S fails" ctx name)
          | _ -> ())
        contract.pins)
    rows;
  List.iter
    (function
      | Doc (name, find) ->
          Option.iter (fun m -> fail (Fmt.str "pin %S fails: %s" name m)) (find rows)
      | Row _ -> ())
    contract.pins;
  List.length rows

(* ---------- the contracts ---------- *)

let count = col Int ~range:(At_least 0.)

let positive_int = col Int ~range:(At_least 1.)

let nonneg = col Num ~range:(At_least 0.)

let positive = col Num ~range:(Above 0.)

let fraction = col Num ~range:(Within (0., 1.))

let number_or_null = col Num ~nullable:true

let seconds_unit = col (One_of [ "seconds" ]) "unit"

let perf =
  {
    schema = 2;
    header = [ seconds_unit ];
    columns =
      [ col Str "bench"; positive_int "n"; nonneg "grid_s";
        col Int ~nullable:true "peak_rss_kb" ]
      @ List.map number_or_null [ "brute_s"; "speedup"; "allocations_mb" ];
    label = [ "bench"; "n" ];
    pins = [];
  }

let daemon =
  {
    schema = 2;
    header = [];
    columns =
      [ col Str "bench"; positive_int "n"; fraction "incremental_fraction";
        col Int ~nullable:true "peak_rss_kb"; col Str "topology_digest" ]
      @ List.map count
          [ "events"; "regrown"; "commits"; "full_recomputes"; "grid.drifted";
            "grid.overflow"; "grid.compactions" ]
      @ List.map number_or_null [ "allocations_mb"; "events_per_s"; "wall_s" ];
    label = [ "n" ];
    pins =
      [
        Row
          ( "full_recomputes <= commits",
            fun r -> num r "full_recomputes" <= num r "commits" );
      ];
  }

let shadowing =
  {
    schema = 1;
    header = [];
    columns =
      [ col Str "bench"; nonneg "sigma_db";
        col Num ~range:(Above_upto (0., 2. *. Float.pi)) "alpha";
        col Str "alpha_label"; positive_int "n"; positive "side";
        positive "target_degree"; positive_int "trials"; count "ref_connected";
        count "preserved"; fraction "preserved_frac"; nonneg "avg_degree" ];
    label = [ "sigma_db"; "alpha_label"; "target_degree" ];
    pins =
      [
        Row ("ref_connected <= trials", fun r -> num r "ref_connected" <= num r "trials");
        Row ("preserved <= trials", fun r -> num r "preserved" <= num r "trials");
        Row
          ( "preserved_frac = preserved/trials",
            fun r ->
              Float.abs
                (num r "preserved_frac" -. (num r "preserved" /. num r "trials"))
              < 1e-9 );
        (* the paper's own guarantee: a loss in this cell is a harness
           bug, not an empirical finding *)
        Row
          ( "sigma = 0 and alpha <= 5pi/6 preserve connectivity in every trial",
            fun r ->
              not
                (num r "sigma_db" = 0.
                && num r "alpha" <= (5. *. Float.pi /. 6.) +. 1e-12)
              || num r "preserved" = num r "trials" );
      ];
  }

let lifetime_of rows family mode =
  List.find_map
    (fun r ->
      if str r "family" = family && str r "mode" = mode then
        Some (num r "lifetime_rounds")
      else None)
    rows

let lifetime =
  {
    schema = 1;
    header = [];
    columns =
      [ col (One_of [ "lifetime" ]) "bench"; col Str "family";
        col (One_of [ "passive"; "scheduled" ]) "mode"; positive_int "n";
        positive_int "trials"; count "rotation_period"; fraction "duty" ]
      @ List.map positive [ "capacity"; "rx_overhead"; "energy_per_delivered" ]
      @ List.map nonneg
          [ "idle_listen"; "lifetime_rounds"; "first_death"; "delivered";
            "dropped"; "cover_sets"; "epochs"; "awake_node_rounds" ];
    label = [ "family"; "mode" ];
    pins =
      [
        Row
          ( "rotation_period = 0 exactly on passive rows",
            fun r -> (str r "mode" = "passive") = (num r "rotation_period" = 0.) );
        (* cover sets exist only when the scheduler elects *)
        Row
          ( "cover_sets = 0 on passive rows, > 0 on scheduled rows",
            fun r ->
              if str r "mode" = "passive" then num r "cover_sets" = 0.
              else num r "cover_sets" > 0. );
        Doc
          ( "each (family, mode) cell appears once",
            fun rows ->
              let seen = Hashtbl.create 16 in
              List.find_mapi
                (fun i r ->
                  let cell = (str r "family", str r "mode") in
                  if Hashtbl.mem seen cell then
                    Some
                      (Fmt.str "results[%d] repeats (%S, %s)" i (fst cell)
                         (snd cell))
                  else (
                    Hashtbl.add seen cell ();
                    None))
                rows );
        Doc
          ( "every family has both modes",
            fun rows ->
              List.find_map
                (fun r ->
                  let family = str r "family" in
                  List.find_map
                    (fun mode ->
                      match lifetime_of rows family mode with
                      | None -> Some (Fmt.str "family %S has no %s row" family mode)
                      | Some _ -> None)
                    [ "passive"; "scheduled" ])
                rows );
        (* the claim the scheduler exists to establish *)
        Doc
          ( "scheduled lifetime > passive for max power and cbtc*",
            fun rows ->
              List.find_map
                (fun r ->
                  let family = str r "family" in
                  let passive = num r "lifetime_rounds" in
                  match lifetime_of rows family "scheduled" with
                  | Some scheduled
                    when str r "mode" = "passive"
                         && (family = "max power"
                            || String.starts_with ~prefix:"cbtc" family)
                         && not (scheduled > passive) ->
                      Some
                        (Fmt.str "family %S: scheduled %g, passive %g" family
                           scheduled passive)
                  | _ -> None)
                rows );
      ];
  }

let parallel =
  {
    schema = 1;
    header = [ seconds_unit; positive_int "host_cores" ];
    columns =
      [ col Str "workload"; positive_int "jobs"; nonneg "wall_s";
        nonneg "speedup_vs_j1"; col Bool "identical" ];
    label = [ "workload"; "jobs" ];
    pins =
      [
        Row ("identical = true", fun r -> field r "identical" = Some (J.Bool true));
        Row
          ( "speedup_vs_j1 = 1 on jobs = 1 rows",
            fun r -> num r "jobs" <> 1. || num r "speedup_vs_j1" = 1. );
      ];
  }

let contracts =
  [
    ("perf", perf);
    ("daemon", daemon);
    ("shadowing", shadowing);
    ("lifetime", lifetime);
    ("parallel", parallel);
  ]

let () =
  let usage () =
    Fmt.epr "usage: check_artifact (%s) FILE@."
      (String.concat " | " (List.map fst contracts));
    exit 2
  in
  let kind, contract, path =
    match Sys.argv with
    | [| _; kind; path |] -> (
        match List.assoc_opt kind contracts with
        | Some c -> (kind, c, path)
        | None -> usage ())
    | _ -> usage ()
  in
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e ->
      Fmt.epr "check_artifact: %s@." e;
      exit 2
  in
  match check contract (J.of_string contents) with
  | rows -> Fmt.pr "check_artifact: %s %s OK (%d rows)@." kind path rows
  | exception (Broken msg | J.Parse_error msg) ->
      Fmt.epr "check_artifact: %s: %s@." path msg;
      exit 1
