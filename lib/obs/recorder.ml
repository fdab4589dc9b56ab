(* The recorder is the single handle threaded through the stack.  Two
   invariants shape the design:

   - Disabled must be near-free: [nil] is a constant constructor, every
     operation starts with a [Nil] match, and call sites pay one branch
     and no allocation.

   - Output must be byte-identical for every [-j]: timing fields exist
     only when the caller supplies a [clock] (the CLI default is
     clockless), object keys are sorted at serialization time, and
     parallel code records into per-trial recorders that the submitter
     merges in seed order.

   A recorder is single-domain by construction (one per trial, or the
   root used sequentially); nothing here takes a lock. *)

let version = "0.4.0"

let schema = 1

type event =
  | Span_begin of { name : string; depth : int; t : float option }
  | Span_end of { name : string; depth : int; dur_s : float option }
  | Point of {
      name : string;
      depth : int;
      fields : (string * Jsonl.t) list;
    }

type active = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  mutable manifest : (string * Jsonl.t) list;  (* reversed insertion order *)
  mutable events : event list;  (* reversed *)
  mutable depth : int;
  clock : (unit -> float) option;
}

type t = Nil | Active of active

let nil = Nil

let create ?clock () =
  Active
    {
      counters = Hashtbl.create 32;
      hists = Hashtbl.create 16;
      manifest = [];
      events = [];
      depth = 0;
      clock;
    }

let enabled = function Nil -> false | Active _ -> true

let now = function
  | Active { clock = Some c; _ } -> Some (c ())
  | Active { clock = None; _ } | Nil -> None

let incr ?(by = 1) t name =
  match t with
  | Nil -> ()
  | Active a -> (
      match Hashtbl.find_opt a.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add a.counters name (ref by))

let observe t name v =
  match t with
  | Nil -> ()
  | Active a -> (
      match Hashtbl.find_opt a.hists name with
      | Some h -> Hist.observe h v
      | None ->
          let h = Hist.create () in
          Hist.observe h v;
          Hashtbl.add a.hists name h)

let set t key v =
  match t with
  | Nil -> ()
  | Active a ->
      if List.mem_assoc key a.manifest then
        a.manifest <-
          List.map (fun (k, old) -> if k = key then (k, v) else (k, old)) a.manifest
      else a.manifest <- (key, v) :: a.manifest

let set_int t key i = set t key (Jsonl.Int i)

let set_str t key s = set t key (Jsonl.Str s)

let event ?(fields = []) t name =
  match t with
  | Nil -> ()
  | Active a -> a.events <- Point { name; depth = a.depth; fields } :: a.events

let span t name f =
  match t with
  | Nil -> f ()
  | Active a ->
      let t0 = Option.map (fun c -> c ()) a.clock in
      a.events <- Span_begin { name; depth = a.depth; t = t0 } :: a.events;
      a.depth <- a.depth + 1;
      Fun.protect
        ~finally:(fun () ->
          a.depth <- a.depth - 1;
          let dur_s =
            match (a.clock, t0) with
            | Some c, Some t0 -> Some (c () -. t0)
            | _ -> None
          in
          a.events <- Span_end { name; depth = a.depth; dur_s } :: a.events)
        f

let counter t name =
  match t with
  | Nil -> 0
  | Active a -> (
      match Hashtbl.find_opt a.counters name with Some r -> !r | None -> 0)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  match t with
  | Nil -> []
  | Active a -> sorted_bindings a.counters (fun r -> !r)

let merge_into ~into src =
  match (into, src) with
  | Nil, _ | _, Nil -> ()
  | Active dst, Active s ->
      List.iter
        (fun (k, r) -> incr ~by:!r into k)
        (List.sort (fun (a, _) (b, _) -> String.compare a b)
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.counters []));
      List.iter
        (fun (k, h) ->
          match Hashtbl.find_opt dst.hists k with
          | Some dh -> Hist.merge_into ~into:dh h
          | None ->
              let dh = Hist.create () in
              Hist.merge_into ~into:dh h;
              Hashtbl.add dst.hists k dh)
        (List.sort (fun (a, _) (b, _) -> String.compare a b)
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.hists []));
      (* source events, already newest-first, go on top so the merged
         chronological order is [into]'s events then [src]'s.  Depths
         are re-based at [dst]'s current depth, so a trial trace merged
         while the destination sits inside a span nests under it and
         the merged trace still validates (begin/end balance per
         depth). *)
      let rebase = function
        | Span_begin e -> Span_begin { e with depth = e.depth + dst.depth }
        | Span_end e -> Span_end { e with depth = e.depth + dst.depth }
        | Point e -> Point { e with depth = e.depth + dst.depth }
      in
      dst.events <-
        (if dst.depth = 0 then s.events else List.map rebase s.events)
        @ dst.events

let manifest_fields a =
  ("ev", Jsonl.Str "manifest")
  :: ("schema", Jsonl.Int schema)
  :: ("version", Jsonl.Str version)
  :: List.rev a.manifest

let event_json seq = function
  | Span_begin { name; depth; t } ->
      Jsonl.Obj
        (("ev", Jsonl.Str "span_begin")
        :: ("seq", Jsonl.Int seq)
        :: ("depth", Jsonl.Int depth)
        :: ("name", Jsonl.Str name)
        :: (match t with Some t -> [ ("t", Jsonl.Float t) ] | None -> []))
  | Span_end { name; depth; dur_s } ->
      Jsonl.Obj
        (("ev", Jsonl.Str "span_end")
        :: ("seq", Jsonl.Int seq)
        :: ("depth", Jsonl.Int depth)
        :: ("name", Jsonl.Str name)
        ::
        (match dur_s with
        | Some d -> [ ("dur_s", Jsonl.Float d) ]
        | None -> []))
  | Point { name; depth; fields } ->
      Jsonl.Obj
        [
          ("ev", Jsonl.Str "point");
          ("seq", Jsonl.Int seq);
          ("depth", Jsonl.Int depth);
          ("name", Jsonl.Str name);
          ("fields", Jsonl.Obj fields);
        ]

let trace_lines t =
  match t with
  | Nil -> []
  | Active a ->
      let events = List.rev a.events in
      Jsonl.to_string (Jsonl.Obj (manifest_fields a))
      :: List.mapi (fun i e -> Jsonl.to_string (event_json (i + 1) e)) events

let summary_json t =
  match t with
  | Nil -> Jsonl.Null
  | Active a ->
      Jsonl.Obj
        [
          ("schema", Jsonl.Int schema);
          ("version", Jsonl.Str version);
          ("manifest", Jsonl.Obj (List.rev a.manifest));
          ( "counters",
            Jsonl.Obj
              (List.map
                 (fun (k, v) -> (k, Jsonl.Int v))
                 (sorted_bindings a.counters (fun r -> !r))) );
          ( "histograms",
            Jsonl.Obj (sorted_bindings a.hists Hist.to_json) );
          ("events", Jsonl.Int (List.length a.events));
        ]

let summary_string t = Jsonl.to_string (summary_json t)

let write_trace t oc =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (trace_lines t)

let write_summary t oc =
  output_string oc (summary_string t);
  output_char oc '\n'
