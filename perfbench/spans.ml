(* Read back what a clocked [Obs.Recorder] holds: per-name span
   aggregates and histogram sums.  The recorder exposes its events only
   as JSON lines, so both are parsed from its own serialization. *)

type agg = {
  mutable count : int;
  mutable total : float;
  mutable self : float;  (* total minus the time child spans cover *)
  mutable durs : float list;  (* newest first *)
}

type t = (string, agg) Hashtbl.t

let fresh () = { count = 0; total = 0.; self = 0.; durs = [] }

let num = function
  | Some (Obs.Jsonl.Float f) -> f
  | Some (Obs.Jsonl.Int i) -> float_of_int i
  | _ -> failwith "perfbench: span without a duration (recorder not clocked?)"

let of_recorder obs : t =
  let tbl = Hashtbl.create 16 in
  (* one child-time accumulator per open span, innermost first *)
  let open_spans = ref [] in
  List.iter
    (fun line ->
      let j = Obs.Jsonl.of_string line in
      match Obs.Jsonl.member "ev" j with
      | Some (Obs.Jsonl.Str "span_begin") -> open_spans := ref 0. :: !open_spans
      | Some (Obs.Jsonl.Str "span_end") -> (
          let name =
            match Obs.Jsonl.member "name" j with
            | Some (Obs.Jsonl.Str s) -> s
            | _ -> failwith "perfbench: span without a name"
          in
          let dur = num (Obs.Jsonl.member "dur_s" j) in
          match !open_spans with
          | [] -> failwith "perfbench: unbalanced span trace"
          | children :: rest ->
              open_spans := rest;
              (match rest with parent :: _ -> parent := !parent +. dur | [] -> ());
              let a =
                match Hashtbl.find_opt tbl name with
                | Some a -> a
                | None ->
                    let a = fresh () in
                    Hashtbl.add tbl name a;
                    a
              in
              a.count <- a.count + 1;
              a.total <- a.total +. dur;
              a.self <- a.self +. (dur -. !children);
              a.durs <- dur :: a.durs)
      | _ -> ())
    (Obs.Recorder.trace_lines obs);
  tbl

let get (t : t) name =
  match Hashtbl.find_opt t name with Some a -> a | None -> fresh ()

let total t name = (get t name).total

let self t name = (get t name).self

let count t name = (get t name).count

(* Span durations in the order the spans ended. *)
let durations t name = List.rev (get t name).durs

(* [(count, sum)] of a recorder histogram, [(0, 0.)] when absent. *)
let hist obs name =
  let field k h = Option.bind h (Obs.Jsonl.member k) in
  let h =
    field name
      (Obs.Jsonl.member "histograms"
         (Obs.Jsonl.of_string (Obs.Recorder.summary_string obs)))
  in
  match field "count" h with
  | None -> (0, 0.)
  | count -> (int_of_float (num count), num (field "sum" h))
