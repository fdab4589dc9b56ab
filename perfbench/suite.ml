(* perfbench: the repository's benchmark (see README.md).

   suite.exe --workload NAME ...  measures one workload in this process
     and prints its metrics, the last line being one JSON object
     {"correct", "attempted", "failed", "metrics"}: the end-to-end
     metrics of BENCHMARK.json with --trace 0, its per-layer metrics
     with --trace 1.
   suite.exe all ...  runs every workload, each in a child process of
     its own (so peak RSS belongs to one workload), and writes
     <out>/benchmark.json and <out>/digests.txt.
   suite.exe compare --base FILE... --change FILE...  compares sets of
     benchmark.json files metric by metric against the bounds of
     BENCHMARK.json.

   Exit codes: 0 done and correct, 1 a check failed, 2 bad arguments. *)

let usage =
  {|usage:
  suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [-j N]
            [--smoke] [--out DIR] [--bench FILE]
  suite.exe all [--seed N] [--seconds S] [--trace 0|1] [-j N] [--smoke]
            [--out DIR] [--bench FILE]
  suite.exe compare [--bench FILE] --base FILE... --change FILE...
workloads: |}
  ^ String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all)

let die code fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("suite.exe: " ^ m);
      exit code)
    fmt

let now = Unix.gettimeofday

let host_cores = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; higher_better : bool; bound : float }

type bench = { end_to_end : metric list; per_layer : metric list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_json path =
  try Obs.Jsonl.of_string (read_file path) with
  | Sys_error m | Obs.Jsonl.Parse_error m -> die 2 "cannot read %s: %s" path m

let field path j k =
  match Obs.Jsonl.member k j with
  | Some v -> v
  | None -> die 2 "%s: missing %S" path k

let str path j k =
  match field path j k with Obs.Jsonl.Str s -> s | _ -> die 2 "%s: %S is not a string" path k

let num path j k =
  match field path j k with
  | Obs.Jsonl.Float f -> f
  | Obs.Jsonl.Int i -> float_of_int i
  | _ -> die 2 "%s: %S is not a number" path k

let list path j k =
  match field path j k with Obs.Jsonl.List l -> l | _ -> die 2 "%s: %S is not a list" path k

let load_bench path =
  let j = read_json path in
  let metrics k =
    List.map
      (fun m ->
        {
          name = str path m "name";
          unit = str path m "unit";
          higher_better = str path m "better" = "higher";
          bound =
            (match Obs.Jsonl.member "bound" m with
            | Some _ -> num path m "bound"
            | None -> Float.nan);
        })
      (list path j k)
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : Workloads.t option;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;
  smoke : bool;
  out_dir : string;
  bench : string;
}

let parse_opts args =
  let o =
    ref
      {
        workload = None;
        seed = 42;
        seconds = 10.;
        trace = false;
        jobs = 1;
        smoke = false;
        out_dir = "bench_out";
        bench = "BENCHMARK.json";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.find_opt (fun w -> w.Workloads.name = v) Workloads.all with
        | Some w -> o := { !o with workload = Some w }
        | None -> die 2 "unknown workload %S\n%s" v usage);
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s when s >= 0 -> o := { !o with seed = s }
        | _ -> die 2 "--seed expects a non-negative integer (got %S)" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when Float.is_finite s && s > 0. -> o := { !o with seconds = s }
        | _ -> die 2 "--seconds expects a positive number (got %S)" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> o := { !o with trace = false }
        | "1" -> o := { !o with trace = true }
        | _ -> die 2 "--trace expects 0 or 1 (got %S)" v);
        go rest
    | ("-j" | "--jobs") :: v :: rest ->
        (match int_of_string_opt v with
        | Some j when j >= 1 && j <= host_cores -> o := { !o with jobs = j }
        | _ -> die 2 "-j expects an integer in [1, %d] (got %S)" host_cores v);
        go rest
    | "--smoke" :: rest ->
        o := { !o with smoke = true };
        go rest
    | "--out" :: v :: rest when v <> "" ->
        o := { !o with out_dir = v };
        go rest
    | "--bench" :: v :: rest when v <> "" ->
        o := { !o with bench = v };
        go rest
    | a :: _ -> die 2 "bad argument %S\n%s" a usage
  in
  go args;
  !o

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile xs p = Stats.Summary.percentile (sorted xs) p

let median xs = quantile xs 50.

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  digest : string;
}

let outcome_json o =
  Obs.Jsonl.(
    Obj
      [
        ("correct", Bool o.correct);
        ("attempted", Int o.attempted);
        ("failed", Int o.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (n, v, u) -> (n, Obj [ ("value", Float v); ("unit", Str u) ]))
               o.metrics) );
      ])

(* [declared] keeps the metrics of BENCHMARK.json, in its order, with
   its units.  A per-layer metric the workload's layers do not include
   reads 0 (that layer did no work); a produced metric BENCHMARK.json
   does not declare is a bug. *)
let select ~declared ~zero_missing produced =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun m -> m.name = n) declared) then
        die 1 "metric %S is not declared in BENCHMARK.json" n)
    produced;
  List.map
    (fun m ->
      match List.assoc_opt m.name produced with
      | Some v -> (m.name, v, m.unit)
      | None when zero_missing -> (m.name, 0., m.unit)
      | None -> die 1 "no value for metric %S" m.name)
    declared

let measure (w : Workloads.t) o bench =
  let cfg =
    { Workloads.seed = o.seed; jobs = o.jobs; smoke = o.smoke; trace = o.trace;
      out_dir = o.out_dir }
  in
  let inst = w.start cfg in
  Fun.protect ~finally:inst.close @@ fun () ->
  let warm = inst.run ~rep:0 ~traced:false in
  let deadline = now () +. o.seconds in
  (* Timed reps; with tracing, every other one is traced so both kinds
     see the same conditions.  At least one of each kind always runs;
     a smoke run stops there.  Each rep starts from a compacted heap, so
     no rep pays for the garbage of the one before. *)
  let rec loop rep ops =
    let has traced = List.exists (fun (t, _) -> t = traced) ops in
    let missing = (not (has false)) || (o.trace && not (has true)) in
    if missing || ((not o.smoke) && now () < deadline) then begin
      let traced = o.trace && rep mod 2 = 0 in
      Gc.compact ();
      loop (rep + 1) ((traced, inst.run ~rep ~traced) :: ops)
    end
    else List.rev ops
  in
  let ops = loop 1 [] in
  let untraced = List.filter_map (fun (t, op) -> if t then None else Some op) ops in
  let traced = List.filter_map (fun (t, op) -> if t then Some op else None) ops in
  let all_ops = warm :: List.map snd ops in
  let pinned = o.seed = 42 && not o.smoke in
  let failures =
    List.concat_map (fun (op : Workloads.op) -> op.failures) all_ops
    @
    if pinned && warm.digest <> w.pin then
      [ Printf.sprintf "warm-up digest %s, pinned %s" warm.digest w.pin ]
    else []
  in
  let wall (op : Workloads.op) = op.wall_s in
  let per_item f = List.map (fun (op : Workloads.op) -> f op /. float_of_int op.items) in
  let items_per_s (op : Workloads.op) = float_of_int op.items /. op.wall_s in
  let metrics =
    if not o.trace then
      select ~declared:bench.end_to_end ~zero_missing:false
        [
          ("throughput", median (List.map items_per_s untraced));
          ("setup_s", median inst.setup_s);
          ( "peak_rss_mb",
            float_of_int (Option.value ~default:0 (Obs.Rss.peak_rss_kb ())) /. 1024. );
        ]
    else begin
      let steps = List.concat_map (fun (op : Workloads.op) -> op.steps_s) traced in
      let traced_wall = median (List.map wall traced) in
      let layer name =
        median (List.map (fun (op : Workloads.op) -> List.assoc name op.layers) traced)
      in
      select ~declared:bench.per_layer ~zero_missing:true
        ([
           ("trace.op_s", traced_wall);
           ("trace.overhead_frac", (traced_wall /. median (List.map wall untraced)) -. 1.);
           ("step.p50_ms", quantile steps 50. *. 1e3);
           ("step.p90_ms", quantile steps 90. *. 1e3);
           ("alloc.bytes_per_item", median (per_item (fun op -> op.alloc_bytes) untraced));
         ]
        @ List.map (fun (name, _) -> (name, layer name)) (List.hd traced).layers)
    end
  in
  let failures =
    failures
    @ List.filter_map
        (fun (n, v, _) ->
          if Float.is_finite v then None else Some (Printf.sprintf "metric %s is not finite" n))
        metrics
  in
  List.iter (fun m -> Printf.printf "  FAILED: %s\n" m) failures;
  Printf.printf "  set-ups (s): %s\n  untraced ops (s, %d %s each): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") inst.setup_s))
    (List.hd untraced).items w.item
    (String.concat " " (List.map (fun op -> Printf.sprintf "%.3f" (wall op)) untraced));
  if traced <> [] then
    Printf.printf "  traced ops (s): %s\n"
      (String.concat " " (List.map (fun op -> Printf.sprintf "%.3f" (wall op)) traced));
  let b = Buffer.create 256 in
  List.iter (fun (op : Workloads.op) -> Buffer.add_string b op.digest) all_ops;
  {
    correct = failures = [];
    attempted =
      List.fold_left (fun a (op : Workloads.op) -> a + op.checked) 0 all_ops
      + if pinned then 1 else 0;
    failed = List.length failures;
    metrics;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
  }

let run_one (w : Workloads.t) o =
  let bench = load_bench o.bench in
  mkdir_p o.out_dir;
  Printf.printf "perfbench %s: seed %d, %gs, -j %d of %d cores, trace %d%s\n%!"
    w.name o.seed o.seconds o.jobs host_cores (Bool.to_int o.trace)
    (if o.smoke then ", smoke" else "");
  let r = measure w o bench in
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %14.6g %s\n" n v u) r.metrics;
  Printf.printf "digest %s\n" r.digest;
  print_endline (Obs.Jsonl.to_string (outcome_json r));
  exit (if r.correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* all                                                                 *)
(* ------------------------------------------------------------------ *)

let git_describe () =
  (* only in a git checkout: git would otherwise search parent
     directories *)
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic =
        Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |]
      in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> l
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

(* Run one workload in a child process; returns its result object and
   digest.  The child's output is echoed as it arrives. *)
let child o (w : Workloads.t) ~trace =
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace";
      (if trace then "1" else "0"); "-j"; string_of_int o.jobs; "--out";
      o.out_dir; "--bench"; o.bench ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read last digest =
    match In_channel.input_line ic with
    | None -> (last, digest)
    | Some l ->
        print_endline l;
        let digest =
          if String.starts_with ~prefix:"digest " l then
            Some (String.sub l 7 (String.length l - 7))
          else digest
        in
        read (Some l) digest
  in
  let last, digest = read None None in
  match (Unix.close_process_in ic, last, digest) with
  | (Unix.WEXITED (0 | 1), Some l, Some d) -> (
      try (Obs.Jsonl.of_string l, d)
      with Obs.Jsonl.Parse_error m -> die 1 "%s: bad result line: %s" w.name m)
  | _ -> die 1 "%s (trace %b) did not produce a result" w.name trace

let run_all o =
  let bench = load_bench o.bench in
  mkdir_p o.out_dir;
  let traces = if o.trace then [ false; true ] else [ false ] in
  let runs =
    List.concat_map
      (fun w -> List.map (fun trace -> (w, trace, child o w ~trace)) traces)
      Workloads.all
  in
  (* every declared metric printed with its unit, every time measured
     (a layer a workload skips may read 0, but not a time), every check
     passed *)
  let ok = ref true in
  let problem fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("suite.exe all: " ^ m);
        ok := false)
      fmt
  in
  let check (w : Workloads.t) trace result =
    let path = w.name in
    let declared = if trace then bench.per_layer else bench.end_to_end in
    let metrics = field path result "metrics" in
    List.iter
      (fun m ->
        match Obs.Jsonl.member m.name metrics with
        | Some v when str path v "unit" = m.unit ->
            if List.mem m.unit [ "s"; "ms"; "us" ] && num path v "value" <= 0. then
              problem "%s: time %s reads %g" w.name m.name (num path v "value")
        | _ -> problem "%s: metric %s (%s) missing" w.name m.name m.unit)
      declared;
    if field path result "correct" <> Obs.Jsonl.Bool true then
      problem "%s (trace %b): a check failed" w.name trace
  in
  List.iter (fun (w, trace, (result, _)) -> check w trace result) runs;
  let manifest =
    Obs.Jsonl.(
      Obj
        [
          ("host_cores", Int host_cores);
          ("jobs", Int o.jobs);
          ("seed", Int o.seed);
          ("seconds", Float o.seconds);
          ("smoke", Bool o.smoke);
          ("ocaml", Str Sys.ocaml_version);
          ("git", Str (git_describe ()));
        ])
  in
  let doc =
    Obs.Jsonl.(
      Obj
        [
          ("manifest", manifest);
          ( "runs",
            List
              (List.map
                 (fun ((w : Workloads.t), trace, (result, digest)) ->
                   Obj
                     [
                       ("workload", Str w.name);
                       ("trace", Int (Bool.to_int trace));
                       ("digest", Str digest);
                       ("result", result);
                     ])
                 runs) );
        ])
  in
  let write name contents =
    Out_channel.with_open_bin (Filename.concat o.out_dir name) (fun oc ->
        output_string oc contents)
  in
  write "benchmark.json" (Obs.Jsonl.to_string doc ^ "\n");
  write "digests.txt"
    (String.concat ""
       (List.map
          (fun ((w : Workloads.t), trace, (_, d)) ->
            Printf.sprintf "%s trace=%d %s\n" w.name (Bool.to_int trace) d)
          runs));
  Printf.printf "wrote %s\n" (Filename.concat o.out_dir "benchmark.json");
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* (workload, metric) -> values, from the untraced runs of each file *)
let collect files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let j = read_json path in
      List.iter
        (fun run ->
          if num path run "trace" = 0. then begin
            let w = str path run "workload" in
            let result = field path run "result" in
            match field path result "metrics" with
            | Obs.Jsonl.Obj ms ->
                List.iter
                  (fun (name, v) ->
                    let key = (w, name) in
                    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
                    Hashtbl.replace tbl key (num path v "value" :: prev))
                  ms
            | _ -> die 2 "%s: metrics is not an object" path
          end)
        (list path j "runs"))
    files;
  tbl

let run_compare ~bench_path ~base ~change =
  if base = [] || change = [] then die 2 "compare needs --base and --change files";
  let bench = load_bench bench_path in
  let b = collect base and c = collect change in
  Printf.printf "%-17s %-12s %-38s %-38s %7s %6s  %s\n" "workload" "metric"
    "base median [q1, q3] (n)" "change median [q1, q3] (n)" "delta" "bound"
    "verdict";
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun m ->
          match (Hashtbl.find_opt b (w.name, m.name), Hashtbl.find_opt c (w.name, m.name)) with
          | Some bv, Some cv ->
              let summary xs =
                let md = median xs and q1 = quantile xs 25. and q3 = quantile xs 75. in
                (md, q1, q3, (q3 -. q1) /. md)
              in
              let bm, bq1, bq3, bspread = summary bv and cm, cq1, cq3, cspread = summary cv in
              (* signed improvement of the change, as a share of the base *)
              let gain x y = if m.higher_better then (y -. x) /. x else (x -. y) /. x in
              let d = gain bm cm in
              let pairs = List.concat_map (fun x -> List.map (fun y -> gain x y) cv) bv in
              let wins =
                float_of_int (List.length (List.filter (fun g -> g > 0.) pairs))
                /. float_of_int (List.length pairs)
              in
              let verdict =
                if Float.max bspread cspread > m.bound then "unresolved"
                else if d < -.m.bound then "worse"
                else if d > bspread && wins >= 0.9 then "better"
                else "within"
              in
              let side md q1 q3 n = Printf.sprintf "%.5g [%.5g, %.5g] (%d)" md q1 q3 n in
              Printf.printf "%-17s %-12s %-38s %-38s %+6.1f%% %5.1f%%  %s\n" w.name
                m.name (side bm bq1 bq3 (List.length bv)) (side cm cq1 cq3 (List.length cv))
                (100. *. d) (100. *. m.bound) verdict
          | _ -> ())
        bench.end_to_end)
    Workloads.all

let parse_compare args =
  let rec go bench base change side = function
    | [] -> (bench, List.rev base, List.rev change)
    | "--bench" :: v :: rest -> go v base change side rest
    | "--base" :: rest -> go bench base change `Base rest
    | "--change" :: rest -> go bench base change `Change rest
    | f :: rest when not (String.starts_with ~prefix:"-" f) -> (
        match side with
        | `Base -> go bench (f :: base) change side rest
        | `Change -> go bench base (f :: change) side rest
        | `None -> die 2 "%S: give files after --base or --change\n%s" f usage)
    | a :: _ -> die 2 "bad argument %S\n%s" a usage
  in
  go "BENCHMARK.json" [] [] `None args

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args ->
      let bench_path, base, change = parse_compare args in
      run_compare ~bench_path ~base ~change
  | "all" :: args ->
      let o = parse_opts args in
      if o.workload <> None then die 2 "all runs every workload; drop --workload";
      run_all o
  | args -> (
      let o = parse_opts args in
      match o.workload with
      | Some w -> run_one w o
      | None -> die 2 "--workload is required\n%s" usage)
