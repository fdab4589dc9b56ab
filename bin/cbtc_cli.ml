(* Command-line interface to the CBTC library.

   Subcommands:
     run        run a configuration on a random network and print metrics
     sweep      sweep alpha over a seed set, reporting degree/radius
     topology   write an SVG (and optional ASCII) rendering
     protocol   run the distributed protocol and print message statistics
     stress     sweep burst-loss x crash fault scenarios, JSON report
     check      explore event schedules, shrink and replay failures
     daemon     self-healing topology daemon over a continuous event stream
     daemon-sweep  equivalence sweep across seeded streams x fault grid
     theory     check the paper's two constructions
     compare    compare CBTC against the proximity-graph baselines
     route      greedy-forwarding and flow-load quality of a topology
     lifetime   duty-cycled gathering lifetime across topology families *)

open Cmdliner

(* ---------- argument vocabulary ---------- *)

(* Every value-checked flag is read by [number] or [split], so whether
   a value is valid is decided once, when the command line is parsed
   (exit 124).  A flag's names are written once: [opt_arg] and
   [some_arg] hand the long name ("--duration") to the converter for
   its messages and the names to [Arg.info].

   A literal's [syntax] also prints the default in the usage text, and
   both float printers are in use there: cmdliner's ("absent=500.")
   and [Fmt.float]'s ("absent=60"). *)
type 'a syntax = { of_string : string -> 'a option; pp : 'a Fmt.t }

let int_lit = { of_string = int_of_string_opt; pp = Fmt.int }
let float_lit = { of_string = float_of_string_opt; pp = Fmt.float }
let float_dot = { float_lit with pp = Arg.conv_printer Arg.float }

(* [number syntax ok reject]: a literal [syntax] reads and [ok] keeps.
   Any other VALUE is refused with [reject VALUE v], [v] the value
   read, or [None] when VALUE does not parse. *)
let number syntax ok reject =
  let parse s =
    match syntax.of_string s with
    | Some v when ok v -> Ok v
    | v -> Error (`Msg (reject s v))
  in
  Arg.conv (parse, syntax.pp)

(* The common case: one message, "FLAG: VALUE SUFFIX", for a malformed
   and an out-of-range VALUE alike. *)
let bounded syntax ok suffix flag =
  number syntax ok (fun s _ -> Fmt.str "%s: %s %s" flag s suffix)

let not_a_float flag s = Fmt.str "%s: %S is not a float" flag s

(* [split sep part pack reject print flag] reads a [sep]-joined VALUE
   (LO:HI, T0:T1:MULT, L1,L2,...): [part flag] reads each part, refusing
   it with its own message, then [pack] the list of parts.  An empty
   VALUE, or one [pack] refuses, is rejected as a whole with "FLAG: "
   ^ [reject VALUE]. *)
let split sep part pack reject print flag =
  let whole s = Error (`Msg (Fmt.str "%s: %s" flag (reject s))) in
  let part = Arg.conv_parser (part flag) in
  let parse s =
    let rec go acc = function
      | [] -> ( match pack (List.rev acc) with Some v -> Ok v | None -> whole s)
      | p :: ps -> Result.bind (part p) (fun v -> go (v :: acc) ps)
    in
    if s = "" then whole s else go [] (String.split_on_char sep s)
  in
  Arg.conv (parse, print)

(* A tuple part: the float it reads, if any ([pack] refuses a tuple
   with a [None]). *)
let tuple_part _flag =
  Arg.conv ((fun p -> Ok (float_of_string_opt p)), Fmt.(option float))

let long_name names = "--" ^ List.find (fun n -> String.length n > 1) names

let opt_arg conv default names ~docv ~doc =
  Arg.value
    (Arg.opt (conv (long_name names)) default (Arg.info names ~docv ~doc))

let some_arg conv names ~docv ~doc =
  Arg.value
    (Arg.opt
       (Arg.some (conv (long_name names)))
       None (Arg.info names ~docv ~doc))

(* the checks several flags share *)
let nonneg_int = bounded int_lit (fun k -> k >= 0) "is not >= 0"
let pos_int = bounded int_lit (fun k -> k >= 1) "is not >= 1"
let nonneg_float = bounded float_lit (fun v -> v >= 0.) "is not >= 0"
let pos_time =
  bounded float_lit (fun t -> Float.is_finite t && t > 0.) "is not > 0"
let fraction = bounded float_lit (fun f -> f >= 0. && f <= 1.) "out of [0,1]"
let probability syntax =
  bounded syntax (fun l -> l >= 0. && l < 1.) "out of [0,1)"

(* ---------- shared options ---------- *)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let nodes =
  (* The library tolerates degenerate inputs (n = 0 or 1 run without
     crashing), but as a CLI request they are almost certainly typos, so
     reject them with a clear message instead of printing NaN-free but
     meaningless tables. *)
  let reject s = function
    | None -> Fmt.str "node count must be an integer (got %S)" s
    | Some n ->
        Fmt.str
          "node count must be at least 2 (got %d); a %s-node network has \
           no topology to control"
          n
          (if n = 1 then "one" else string_of_int n)
  in
  Arg.(
    value
    & opt (number int_lit (fun n -> n >= 2) reject) 100
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Node count (at least 2).")

(* A finite float > 0 (NaN and infinities are not lengths). *)
let length =
  bounded float_dot
    (fun v -> Float.is_finite v && v > 0.)
    "is not a finite length > 0"

let side =
  opt_arg length 1500. [ "side" ] ~docv:"L"
    ~doc:"Square field side length (> 0)."

let range =
  opt_arg length 500. [ "range" ] ~docv:"R"
    ~doc:"Maximum transmission radius (> 0)."

let alpha =
  let angle =
    {
      float_lit with
      of_string =
        (fun s ->
          match String.lowercase_ascii s with
          | "5pi/6" | "5pi6" -> Some Geom.Angle.five_pi_six
          | "2pi/3" | "2pi3" -> Some Geom.Angle.two_pi_three
          | "pi/2" | "pi2" -> Some (Float.pi /. 2.)
          | s -> float_of_string_opt s);
    }
  in
  let reject _ = function
    | None -> "alpha must be a float or 5pi/6, 2pi/3, pi/2"
    | Some _ -> "alpha must be in (0, 2pi]"
  in
  Arg.(
    value
    & opt
        (number angle (fun v -> v > 0. && v <= Geom.Angle.two_pi) reject)
        Geom.Angle.five_pi_six
    & info [ "alpha" ] ~docv:"ALPHA"
        ~doc:"Cone degree (radians, or one of 5pi/6, 2pi/3, pi/2).")

let opts_flag =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("shrink", `Shrink); ("all", `All) ]) `All
    & info [ "opts" ] ~docv:"LEVEL"
        ~doc:"Optimization level: none (basic), shrink (op1), all.")

(* -j / --jobs / CBTC_JOBS: size of the domain pool used by the
   trial-sweeping subcommands (sweep, stress).  Results are bit-identical
   for every value — trials fan out order-preserving and are folded
   sequentially — so this only changes wall clock. *)
let jobs =
  let reject s = function
    | None -> Fmt.str "jobs must be an integer (got %S)" s
    | Some _ -> Fmt.str "jobs must be in [1, 1024] (got %s)" s
  in
  Arg.(
    value
    & opt (some (number int_lit (fun j -> j >= 1 && j <= 1024) reject)) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "CBTC_JOBS")
        ~doc:
          "Worker domains for trial-level parallelism, in [1, 1024] \
           (default: the host's recommended domain count).")

(* A pool only when -j is given: without it, node-level work stays on
   the calling domain. *)
let with_pool_opt jobs f =
  match jobs with
  | None -> f None
  | Some jobs -> Parallel.Pool.with_pool ~jobs (fun p -> f (Some p))

let sigma_t =
  opt_arg
    (bounded float_lit
       (fun v -> Float.is_finite v && v >= 0.)
       "is not a finite dB value >= 0")
    0. [ "sigma" ] ~docv:"DB"
    ~doc:
      "Log-normal shadowing standard deviation in dB (0 = pure \
       deterministic pathloss)."

let shadow_seed_t =
  Arg.(
    value & opt int 0
    & info [ "shadow-seed" ] ~docv:"S"
        ~doc:
          "Seed of the deterministic per-link shadowing hash (independent \
           of --seed; same seed = same realized link gains).")

let env_of ~pathloss ~sigma ~shadow_seed =
  if sigma = 0. then None
  else Some (Radio.Env.make ~sigma_db:sigma ~shadow_seed pathloss)

let env_fields ~sigma ~shadow_seed =
  if sigma = 0. then []
  else
    [ ("sigma", Obs.Jsonl.Float sigma);
      ("shadow_seed", Obs.Jsonl.Int shadow_seed) ]

(* --trace-out / --metrics-out: observability sinks, off by default (the
   recorder stays [nil] and instrumentation costs one branch).  Both are
   written by a clockless recorder, so for a fixed command line the
   files are byte-identical across runs and across every -j. *)
let obs_out =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON-lines trace (run manifest, then nested span and \
             point events) to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run JSON summary (manifest, counters, \
             histograms) to $(docv).")
  in
  Term.(const (fun t m -> (t, m)) $ trace_out $ metrics_out)

(* Every output file is opened before the run, so a bad path fails in
   milliseconds (exit 3), not after the whole simulation. *)
let cannot_open e =
  Fmt.epr "cbtc: cannot open output file: %s@." e;
  exit 3

let open_output path = try open_out path with Sys_error e -> cannot_open e

(* [probe_output path] proves up front that a file written only later
   (or only on some outcomes) can be created, and leaves no trace: an
   existing file is opened without truncation, a new one is removed. *)
let probe_output path =
  let existed = Sys.file_exists path in
  (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 path)
   with Sys_error e -> cannot_open e);
  if not existed then Sys.remove path

(* [write_output oc s] writes [s] to a file opened by [open_output]
   and closes it. *)
let write_output oc s =
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* An optional output file, opened up front like any other. *)
let open_optional = Option.map (fun path -> (path, open_output path))

(* [emit out contents] writes [contents ()] to an output opened by
   [open_optional], if any, and reports the path. *)
let emit out contents =
  Option.iter
    (fun (path, oc) ->
      write_output oc (contents ());
      Fmt.pr "wrote %s@." path)
    out

let json_line doc = Obs.Jsonl.to_string doc ^ "\n"

(* Trace and summary are still flushed when the run raises. *)
let with_obs ~manifest (trace_out, metrics_out) f =
  match (trace_out, metrics_out) with
  | None, None -> f Obs.Recorder.nil
  | _ ->
      let trace = Option.map open_output trace_out in
      let metrics = Option.map open_output metrics_out in
      let obs = Obs.Recorder.create () in
      List.iter (fun (k, v) -> Obs.Recorder.set obs k v) manifest;
      Fun.protect
        ~finally:(fun () ->
          (* sampled once here: VmHWM is a process-lifetime high-water
             mark, so the value at write time covers the whole run *)
          Obs.Recorder.set obs "peak_rss_kb"
            (match Obs.Rss.peak_rss_kb () with
            | Some kb -> Obs.Jsonl.Int kb
            | None -> Obs.Jsonl.Null);
          Option.iter
            (fun oc ->
              Obs.Recorder.write_trace obs oc;
              close_out oc)
            trace;
          Option.iter
            (fun oc ->
              Obs.Recorder.write_summary obs oc;
              close_out oc)
            metrics)
        (fun () -> f obs)

let manifest_of ~command ~n ~side ~range ~seed ?alpha extra =
  [
    ("command", Obs.Jsonl.Str command);
    ("seed", Obs.Jsonl.Int seed);
    ("n", Obs.Jsonl.Int n);
    ("side", Obs.Jsonl.Float side);
    ("range", Obs.Jsonl.Float range);
  ]
  @ (match alpha with
    | None -> []
    | Some a -> [ ("alpha", Obs.Jsonl.Float a) ])
  @ extra

let jobs_field jobs =
  ("jobs", match jobs with None -> Obs.Jsonl.Null | Some j -> Obs.Jsonl.Int j)

let scenario_of ~n ~side ~range ~seed =
  Workload.Scenario.make ~n ~width:side ~height:side ~max_range:range ~seed ()

let plan_of config = function
  | `None -> Cbtc.Pipeline.basic config
  | `Shrink -> Cbtc.Pipeline.with_shrink config
  | `All -> Cbtc.Pipeline.all_ops config

(* ---------- run ---------- *)

let run_cmd =
  let action n side range seed alpha opts sigma shadow_seed jobs obsout =
    with_obs obsout
      ~manifest:
        (manifest_of ~command:"run" ~n ~side ~range ~seed ~alpha
           ([ ("growth", Obs.Jsonl.Str "exact"); jobs_field jobs ]
           @ env_fields ~sigma ~shadow_seed))
    @@ fun obs ->
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let env = env_of ~pathloss:pl ~sigma ~shadow_seed in
    let positions = Workload.Scenario.positions sc in
    let config = Cbtc.Config.make alpha in
    (* node-level parallelism for the oracle pass; output is
       bit-identical at every -j (chunks write disjoint slots), which
       the @scale-smoke alias pins by comparing summary digests *)
    with_pool_opt jobs @@ fun pool ->
    let r =
      Cbtc.Pipeline.run_oracle ?pool ~obs ?env pl positions
        (plan_of config opts)
    in
    let gr = Baselines.Proximity.max_power ?env pl positions in
    Fmt.pr "scenario: %a@." Workload.Scenario.pp sc;
    Fmt.pr "config:   %a@." Cbtc.Config.pp config;
    Fmt.pr "edges:    %d (GR has %d)@." (Graphkit.Ugraph.nb_edges r.Cbtc.Pipeline.graph)
      (Graphkit.Ugraph.nb_edges gr);
    Fmt.pr "degree:   %.2f (GR %.2f)@."
      (Cbtc.Pipeline.avg_degree r)
      (Metrics.Topo_metrics.avg_degree gr);
    Fmt.pr "radius:   %.1f (max power %g)@." (Cbtc.Pipeline.avg_radius r) range;
    Fmt.pr "degree distribution: %a@." Stats.Summary.pp
      (Metrics.Topo_metrics.degree_summary r.Cbtc.Pipeline.graph);
    Fmt.pr "connectivity preserved: %b@."
      (Metrics.Connectivity.preserves ~reference:gr r.Cbtc.Pipeline.graph)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one CBTC configuration and print metrics.")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ opts_flag
      $ sigma_t $ shadow_seed_t $ jobs $ obs_out)

(* ---------- sweep ---------- *)

let sweep_cmd =
  let count =
    opt_arg pos_int 20 [ "count" ] ~docv:"K"
      ~doc:"Number of random networks (>= 1)."
  in
  let action n side range seed count opts sigma shadow_seed jobs obsout =
    with_obs obsout
      ~manifest:
        (manifest_of ~command:"sweep" ~n ~side ~range ~seed
           ([ ("count", Obs.Jsonl.Int count);
              ("growth", Obs.Jsonl.Str "exact"); jobs_field jobs ]
           @ env_fields ~sigma ~shadow_seed))
    @@ fun obs ->
    let recording = Obs.Recorder.enabled obs in
    let table =
      Metrics.Table.create
        ~columns:[ "alpha"; "avg degree"; "avg radius"; "preserved" ]
    in
    let alphas =
      [ ("pi/3", Float.pi /. 3.); ("pi/2", Float.pi /. 2.);
        ("2pi/3", Geom.Angle.two_pi_three); ("3pi/4", 3. *. Float.pi /. 4.);
        ("5pi/6", Geom.Angle.five_pi_six) ]
    in
    let seeds = Array.of_list (Workload.Scenario.seeds ~base:seed ~count) in
    Parallel.Pool.with_pool ?jobs (fun pool ->
        List.iter
          (fun (name, alpha) ->
            let config = Cbtc.Config.make alpha in
            (* one task per network; the Welford fold below runs in seed
               order, so the table is byte-identical for every -j.  Each
               trial records into its own single-domain recorder; the
               recorders are merged in that same seed order, so the
               trace and metrics are -j-independent too. *)
            let trial seed =
              let tobs =
                if recording then Obs.Recorder.create () else Obs.Recorder.nil
              in
              let sc = scenario_of ~n ~side ~range ~seed in
              let pl = Workload.Scenario.pathloss sc in
              let env = env_of ~pathloss:pl ~sigma ~shadow_seed in
              let positions = Workload.Scenario.positions sc in
              let r =
                Cbtc.Pipeline.run_oracle ~obs:tobs ?env pl positions
                  (plan_of config opts)
              in
              ( Cbtc.Pipeline.avg_degree r,
                Cbtc.Pipeline.avg_radius r,
                Metrics.Connectivity.preserves
                  ~reference:(Baselines.Proximity.max_power ?env pl positions)
                  r.Cbtc.Pipeline.graph,
                tobs )
            in
            let dacc = Stats.Welford.create () in
            let racc = Stats.Welford.create () in
            let ok = ref 0 in
            Array.iter
              (fun (deg, rad, preserved, tobs) ->
                if recording then begin
                  Obs.Recorder.incr obs "sweep.trials";
                  Obs.Recorder.merge_into ~into:obs tobs
                end;
                Stats.Welford.add dacc deg;
                Stats.Welford.add racc rad;
                if preserved then incr ok)
              (Parallel.Pool.map pool trial seeds);
            Metrics.Table.add_row table
              [
                name;
                Fmt.str "%.1f" (Stats.Welford.mean dacc);
                Fmt.str "%.1f" (Stats.Welford.mean racc);
                Fmt.str "%d/%d" !ok count;
              ])
          alphas);
    Fmt.pr "%a" Metrics.Table.pp table
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep alpha over a seed set.")
    Term.(
      const action $ nodes $ side $ range $ seed $ count $ opts_flag
      $ sigma_t $ shadow_seed_t $ jobs $ obs_out)

(* ---------- topology ---------- *)

let topology_cmd =
  let out =
    Arg.(
      value & opt string "topology.svg"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output SVG path.")
  in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Also print an ASCII rendering.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also export Graphviz DOT.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also export node/edge CSV.")
  in
  let action n side range seed alpha opts out ascii dot csv =
    let svg_oc = open_output out in
    let dot = open_optional dot in
    let csv = open_optional csv in
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let positions = Workload.Scenario.positions sc in
    let config = Cbtc.Config.make alpha in
    let r = Cbtc.Pipeline.run_oracle pl positions (plan_of config opts) in
    let style =
      Viz.Topoviz.style ~title:(Fmt.str "CBTC alpha=%.3f" alpha) ()
    in
    write_output svg_oc
      (Viz.Topoviz.to_svg ~style ~field_width:side ~field_height:side
         positions r.Cbtc.Pipeline.graph);
    Fmt.pr "wrote %s (%d edges)@." out
      (Graphkit.Ugraph.nb_edges r.Cbtc.Pipeline.graph);
    emit dot (fun () -> Viz.Export.to_dot positions r.Cbtc.Pipeline.graph);
    emit csv (fun () -> Viz.Export.to_csv positions r.Cbtc.Pipeline.graph);
    if ascii then
      Fmt.pr "%s@."
        (Viz.Topoviz.to_ascii ~field_width:side ~field_height:side positions
           r.Cbtc.Pipeline.graph)
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Render a controlled topology to SVG (optionally DOT/CSV).")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ opts_flag $ out
      $ ascii $ dot $ csv)

(* ---------- protocol ---------- *)

let protocol_cmd =
  let loss =
    opt_arg (probability float_dot) 0. [ "loss" ] ~docv:"P"
      ~doc:"Per-message loss probability, in [0,1)."
  in
  let repeats =
    opt_arg pos_int 1 [ "repeats" ] ~docv:"K"
      ~doc:"Hello repeats per power step (>= 1)."
  in
  let action n side range seed alpha loss repeats obsout =
    with_obs obsout
      ~manifest:
        (manifest_of ~command:"protocol" ~n ~side ~range ~seed ~alpha
           [ ("growth", Obs.Jsonl.Str "double");
             ("loss", Obs.Jsonl.Float loss);
             ("hello_repeats", Obs.Jsonl.Int repeats) ])
    @@ fun obs ->
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let positions = Workload.Scenario.positions sc in
    let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha in
    let channel = Dsim.Channel.make ~loss () in
    let o =
      Cbtc.Distributed.run ~obs ~channel ~hello_repeats:repeats ~seed config pl
        positions
    in
    let s = o.Cbtc.Distributed.stats in
    Fmt.pr "distributed CBTC on %d nodes (loss=%.2f, repeats=%d):@." n loss
      repeats;
    Fmt.pr "  transmissions:   %d@." s.Cbtc.Distributed.transmissions;
    Fmt.pr "  deliveries:      %d@." s.Cbtc.Distributed.deliveries;
    Fmt.pr "  max rounds:      %d@." s.Cbtc.Distributed.max_rounds;
    Fmt.pr "  converged at:    t=%.1f@." s.Cbtc.Distributed.duration;
    Fmt.pr "  remove messages: %d@." o.Cbtc.Distributed.removals;
    let gr = Baselines.Proximity.max_power pl positions in
    Fmt.pr "  connectivity preserved: %b@."
      (Metrics.Connectivity.preserves ~reference:gr
         (Cbtc.Discovery.closure o.Cbtc.Distributed.discovery))
  in
  Cmd.v
    (Cmd.info "protocol"
       ~doc:"Run the distributed protocol over the simulated radio.")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ loss $ repeats
      $ obs_out)

(* ---------- stress ---------- *)

let stress_cmd =
  (* L1,L2,...: floats in [0,hi], each part trimmed before it is read *)
  let fractions hi =
    let trimmed p = float_of_string_opt (String.trim p) in
    let part flag =
      number
        { float_lit with of_string = trimmed }
        (fun v -> v >= 0. && v <= hi)
        (fun p -> function
          | None -> not_a_float flag p
          | Some _ -> Fmt.str "%s: %s out of [0,%g]" flag p hi)
    in
    split ',' part Option.some
      (fun _ -> "empty list")
      Fmt.(list ~sep:(any ",") float)
  in
  let losses =
    opt_arg (fractions 0.5) [ 0.1; 0.3 ] [ "loss" ] ~docv:"L1,L2,..."
      ~doc:"Mean channel loss values to sweep, each in [0,0.5]."
  in
  let crashes =
    opt_arg (fractions 1.) [ 0.; 0.1 ] [ "crash" ] ~docv:"F1,F2,..."
      ~doc:"Crashed-node fractions to sweep, each in [0,1]."
  in
  let burstiness =
    opt_arg
      (bounded float_lit (fun b -> b >= 1. && b <= 1000.) "out of [1,1000]")
      4. [ "burstiness" ] ~docv:"B"
      ~doc:
        "Mean burst length (transmissions) of the Gilbert-Elliott bad \
         state, in [1,1000]."
  in
  let recover_after =
    some_arg
      (bounded float_lit
         (fun d -> Float.is_finite d && d >= 0.)
         "is not a delay >= 0")
      [ "recover-after" ] ~docv:"T"
      ~doc:
        "Recover each crashed node T time units after its crash (default: \
         crash-stop forever)."
  in
  let out =
    Arg.(
      value & opt string "stress.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"JSON report path.")
  in
  (* Gilbert-Elliott channel with a given long-run mean loss [m] and mean
     burst length [b]: bursts drop everything (loss_bad = 1), so the
     stationary Bad weight must equal [m]:
       p_bg = 1/b,  p_gb = p_bg * m / (1 - m).
     The CLI bounds (m <= 0.5, b >= 1) keep p_gb inside (0, 1]. *)
  let channel_for ~mean_loss ~burstiness =
    if mean_loss <= 0. then Dsim.Channel.make ()
    else
      let p_bg = 1. /. burstiness in
      let p_gb = p_bg *. mean_loss /. (1. -. mean_loss) in
      Dsim.Channel.gilbert_elliott ~p_gb ~p_bg ~loss_bad:1. ()
  in
  let json_of_cell buf ~mean_loss ~crash ~(o : Cbtc.Distributed.outcome)
      ~(deg : Cbtc.Verify.degradation) ~verified ~verify_error =
    let s = o.Cbtc.Distributed.stats in
    let b = Buffer.add_string buf in
    b "    {";
    b (Fmt.str {|"mean_loss": %g, "crash_fraction": %g, |} mean_loss crash);
    b
      (Fmt.str {|"crashes": %d, "recoveries": %d, |}
         o.Cbtc.Distributed.injected.Faults.Inject.crashes
         o.Cbtc.Distributed.injected.Faults.Inject.recoveries);
    b
      (Fmt.str {|"survivors": %d, "verified": %b, "verify_error": %s, |}
         deg.Cbtc.Verify.survivors verified
         (match verify_error with
         | None -> "null"
         | Some e -> Fmt.str "%S" e));
    b
      (Fmt.str
         {|"connectivity_preserved": %b, "residual_gap_nodes": %d, "boundary_survivors": %d, |}
         deg.Cbtc.Verify.connectivity_preserved
         (List.length deg.Cbtc.Verify.residual_gap_nodes)
         deg.Cbtc.Verify.boundary_survivors);
    b
      (Fmt.str {|"delivery_ratio": %.4f, "extra_rounds": %d, |}
         deg.Cbtc.Verify.delivery_ratio deg.Cbtc.Verify.extra_rounds);
    b
      (Fmt.str
         {|"transmissions": %d, "deliveries": %d, "drops": %d, "retransmissions": %d, "duration": %.1f}|}
         s.Cbtc.Distributed.transmissions s.Cbtc.Distributed.deliveries
         s.Cbtc.Distributed.drops s.Cbtc.Distributed.retransmissions
         s.Cbtc.Distributed.duration)
  in
  let action n side range seed alpha losses crashes burstiness recover_after
      sigma shadow_seed out jobs obsout =
    let out_oc = open_output out in
    with_obs obsout
      ~manifest:
        (manifest_of ~command:"stress" ~n ~side ~range ~seed ~alpha
           ([ ("growth", Obs.Jsonl.Str "double");
              ("burstiness", Obs.Jsonl.Float burstiness); jobs_field jobs ]
           @ env_fields ~sigma ~shadow_seed))
    @@ fun obs ->
    let recording = Obs.Recorder.enabled obs in
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let env = env_of ~pathloss:pl ~sigma ~shadow_seed in
    let positions = Workload.Scenario.positions sc in
    let config = Cbtc.Config.make ~growth:(Cbtc.Config.Double 100.) alpha in
    let baseline = Cbtc.Distributed.run ~obs ~seed ?env config pl positions in
    let t_conv = baseline.Cbtc.Distributed.stats.Cbtc.Distributed.duration in
    let table =
      Metrics.Table.create
        ~columns:
          [ "loss"; "crash"; "died"; "survivors"; "gaps"; "conn"; "dlv";
            "retx"; "verified" ]
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Fmt.str
         "{\n  \"n\": %d, \"seed\": %d, \"alpha\": %g, \"burstiness\": %g,\n\
         \  \"baseline\": {\"transmissions\": %d, \"duration\": %.1f},\n\
         \  \"scenarios\": [\n"
         n seed alpha burstiness
         baseline.Cbtc.Distributed.stats.Cbtc.Distributed.transmissions t_conv);
    (* One Gilbert-Elliott template per loss level; every cell gets its
       own [Dsim.Channel.copy] so burst chains never leak across cells —
       or across domains when cells run in parallel. *)
    let templates =
      Array.of_list
        (List.map (fun mean_loss -> channel_for ~mean_loss ~burstiness) losses)
    in
    (* Cells are independent given their own channel and fault prng (the
       seed derivation below is unchanged), so they fan out over the
       pool; the grid is flattened in crashes-outer/losses-inner order
       and folded back in that same order, keeping the table and the
       JSON byte-identical for every -j. *)
    let cells =
      List.concat
        (List.mapi
           (fun ci crash ->
             List.mapi (fun li mean_loss -> (ci, li, crash, mean_loss)) losses)
           crashes)
    in
    let run_cell (ci, li, crash, mean_loss) =
      let tobs =
        if recording then Obs.Recorder.create () else Obs.Recorder.nil
      in
      let channel = Dsim.Channel.copy templates.(li) in
      let plan =
        if crash <= 0. then Faults.Plan.empty
        else
          Faults.Plan.random_crashes
            ~prng:(Prng.create ~seed:(seed + (100 * ci) + li))
            ~n ~fraction:crash
            ~window:(0.1 *. t_conv, 0.6 *. t_conv)
            ?recover_after ()
      in
      let o =
        Cbtc.Distributed.run ~obs:tobs ~channel ~seed
          ~reliability:Cbtc.Distributed.hardened ~faults:plan ?env config pl
          positions
      in
      let deg = Cbtc.Verify.degradation ~reference:baseline ?env o in
      let verified, verify_error =
        match
          Cbtc.Verify.surviving ?env ~alive:o.Cbtc.Distributed.alive
            o.Cbtc.Distributed.discovery
        with
        | () -> (true, None)
        | exception Failure e -> (false, Some e)
      in
      (crash, mean_loss, o, deg, verified, verify_error, tobs)
    in
    let results =
      Parallel.Pool.with_pool ?jobs (fun pool ->
          Parallel.Pool.map pool run_cell (Array.of_list cells))
    in
    let first = ref true in
    let failed = ref 0 in
    (* cells fold back in the same crashes-outer/losses-inner order as
       the JSON, so merged cell recorders are -j-independent too *)
    Array.iter
      (fun (crash, mean_loss, o, deg, verified, verify_error, tobs) ->
        if recording then begin
          Obs.Recorder.incr obs "stress.cells";
          Obs.Recorder.merge_into ~into:obs tobs
        end;
        Metrics.Table.add_row table
          [
            Fmt.str "%.2f" mean_loss;
            Fmt.str "%.2f" crash;
            string_of_int deg.Cbtc.Verify.crashed;
            string_of_int deg.Cbtc.Verify.survivors;
            string_of_int (List.length deg.Cbtc.Verify.residual_gap_nodes);
            string_of_bool deg.Cbtc.Verify.connectivity_preserved;
            Fmt.str "%.2f" deg.Cbtc.Verify.delivery_ratio;
            string_of_int
              o.Cbtc.Distributed.stats.Cbtc.Distributed.retransmissions;
            string_of_bool verified;
          ];
        if not (verified && deg.Cbtc.Verify.connectivity_preserved) then
          incr failed;
        if not !first then Buffer.add_string buf ",\n";
        first := false;
        json_of_cell buf ~mean_loss ~crash ~o ~deg ~verified ~verify_error)
      results;
    Buffer.add_string buf "\n  ]\n}\n";
    write_output out_oc (Buffer.contents buf);
    Fmt.pr "%a" Metrics.Table.pp table;
    Fmt.pr "wrote %s (%d scenarios)@." out
      (List.length losses * List.length crashes);
    if !failed > 0 then begin
      Fmt.epr "stress: %d scenario(s) failed verification@." !failed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Sweep burst-loss x crash-rate fault scenarios over the hardened \
          distributed protocol and write a JSON degradation report.  Exits \
          non-zero if any scenario fails post-fault verification.")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ losses $ crashes
      $ burstiness $ recover_after $ sigma_t $ shadow_seed_t $ out $ jobs
      $ obs_out)

(* ---------- check ---------- *)

let check_cmd =
  let schedules =
    opt_arg
      (bounded int_lit (fun k -> k >= 0 && k <= 100_000) "out of [0, 100000]")
      20 [ "schedules" ] ~docv:"K"
      ~doc:
        "Seeded random tie-break schedules to sweep (the FIFO schedule is \
         always trial 0)."
  in
  let schedule_seed =
    Arg.(
      value & opt int 7
      & info [ "schedule-seed" ] ~docv:"S"
          ~doc:"Base seed the per-schedule seeds are derived from.")
  in
  let loss =
    opt_arg (probability float_lit) 0. [ "loss" ] ~docv:"L"
      ~doc:"Bernoulli per-copy channel loss, in [0,1)."
  in
  let crash =
    opt_arg fraction 0. [ "crash" ] ~docv:"F"
      ~doc:
        "Also sweep every schedule against a fault plan crashing this \
         fraction of the nodes mid-run."
  in
  let spread =
    opt_arg
      (bounded float_lit (fun t -> t >= 0.) "is not a delay >= 0")
      0. [ "spread" ] ~docv:"T"
      ~doc:"Stagger node start times uniformly in [0,T]."
  in
  let mutant =
    Arg.(
      value & flag
      & info [ "mutant" ]
          ~doc:
            "Arm the deliberately injected ack-reordering bug (the \
             harness's self-test: the sweep must catch it).")
  in
  let invariant =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("oracle", Check.Scenario.Oracle);
                  ("guarantees", Check.Scenario.Guarantees);
                  ("powers-grow", Check.Scenario.Powers_grow) ]))
          None
      & info [ "invariant" ] ~docv:"INV"
          ~doc:
            "Invariant to check: oracle, guarantees or powers-grow \
             (default: oracle for reliable fault-free sweeps, guarantees \
             otherwise).")
  in
  let artifact =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifact" ] ~docv:"FILE"
          ~doc:
            "On failure, shrink the first failing trial and write a \
             replayable JSON artifact to $(docv).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded artifact instead of sweeping; exits 0 when \
             the recorded failure reproduces exactly.")
  in
  let budget =
    opt_arg pos_int 400 [ "shrink-budget" ] ~docv:"B"
      ~doc:"Protocol runs the shrinker may spend."
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write a JSON sweep manifest (trial count, digest, failures).")
  in
  let do_replay path obsout =
    let a =
      try Check.Artifact.load path
      with e ->
        Fmt.epr "check: cannot load artifact %s: %s@." path
          (Printexc.to_string e);
        exit 2
    in
    with_obs obsout
      ~manifest:
        [ ("command", Obs.Jsonl.Str "check-replay");
          ("artifact", Obs.Jsonl.Str path) ]
    @@ fun obs ->
    match Check.Artifact.replay ~obs a with
    | Ok (msg, digest) when String.equal msg a.Check.Artifact.message ->
        Fmt.pr "reproduced: %s@.digest %s@." msg digest;
        exit 0
    | Ok (msg, _) ->
        Fmt.pr "reproduced a different failure: %s@.recorded:   %s@." msg
          a.Check.Artifact.message;
        exit 1
    | Error digest ->
        Fmt.pr "artifact no longer fails (digest %s)@." digest;
        exit 1
  in
  let action n side range seed alpha schedules schedule_seed loss crash spread
      mutant invariant artifact replay budget out jobs obsout =
    match replay with
    | Some path -> do_replay path obsout
    | None ->
        (* the artifact is written only when a trial fails *)
        Option.iter probe_output artifact;
        let out = open_optional out in
        with_obs obsout
          ~manifest:
            (manifest_of ~command:"check" ~n ~side ~range ~seed ~alpha
               [ ("schedules", Obs.Jsonl.Int schedules);
                 ("mutant", Obs.Jsonl.Bool mutant); jobs_field jobs ])
        @@ fun _obs ->
        let invariant =
          match invariant with
          | Some inv -> inv
          | None ->
              if loss = 0. && crash = 0. then Check.Scenario.Oracle
              else Check.Scenario.Guarantees
        in
        let sc =
          Check.Scenario.make ~alpha ~side ~range ~start_spread:spread ~loss
            ~mutant ~invariant ~run_seed:seed ~n ~seed ()
        in
        (* The crash grid pairs every schedule with both the fault-free
           plan and one mid-run crash plan, so ordering bugs in the
           crash-recovery path are in scope too. *)
        let plans =
          if crash <= 0. then []
          else
            [ Faults.Plan.empty;
              Faults.Plan.random_crashes
                ~prng:(Prng.create ~seed:(seed + 1))
                ~n ~fraction:crash ~window:(1., 20.) () ]
        in
        let report =
          Parallel.Pool.with_pool ?jobs (fun pool ->
              Check.Explore.sweep ~pool ~schedules ~seed:schedule_seed ~plans
                sc)
        in
        Fmt.pr "%a@." Check.Explore.pp_report report;
        let failures = report.Check.Explore.failures in
        let shrunk =
          match failures with
          | [] -> None
          | f :: _ ->
              let r =
                Check.Shrink.minimize ~budget f.Check.Explore.scenario
                  f.Check.Explore.policy
              in
              Fmt.pr
                "shrunk first failure to %d nodes / %d replay decisions (%d \
                 runs):@.  %s@."
                (Check.Scenario.nb_nodes r.Check.Shrink.scenario)
                (Array.length r.Check.Shrink.prios)
                r.Check.Shrink.runs r.Check.Shrink.message;
              Option.iter
                (fun path ->
                  Check.Artifact.save path (Check.Artifact.of_shrink r);
                  Fmt.pr "wrote artifact %s@." path)
                artifact;
              Some r
        in
        ignore shrunk;
        emit out (fun () ->
            json_line
              (Obs.Jsonl.Obj
                [
                  ("command", Obs.Jsonl.Str "check");
                  ("n", Obs.Jsonl.Int n);
                  ("seed", Obs.Jsonl.Int seed);
                  ("alpha", Obs.Jsonl.Float alpha);
                  ("schedules", Obs.Jsonl.Int schedules);
                  ("schedule_seed", Obs.Jsonl.Int schedule_seed);
                  ("loss", Obs.Jsonl.Float loss);
                  ("crash", Obs.Jsonl.Float crash);
                  ("spread", Obs.Jsonl.Float spread);
                  ("mutant", Obs.Jsonl.Bool mutant);
                  ( "invariant",
                    Obs.Jsonl.Str (Check.Scenario.invariant_to_string invariant)
                  );
                  ("trials", Obs.Jsonl.Int report.Check.Explore.trials);
                  ("plans", Obs.Jsonl.Int report.Check.Explore.plans);
                  ("failures", Obs.Jsonl.Int (List.length failures));
                  ("digest", Obs.Jsonl.Str report.Check.Explore.digest);
                ]));
        if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Explore same-timestamp event schedules of the distributed \
          protocol: sweep seeded tie-break permutations (optionally x a \
          crash grid) against an invariant, shrink failures to minimal \
          replayable artifacts, and replay recorded artifacts.  Exits \
          non-zero when any schedule violates the invariant.")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ schedules
      $ schedule_seed $ loss $ crash $ spread $ mutant $ invariant $ artifact
      $ replay $ budget $ out $ jobs $ obs_out)

(* ---------- daemon ---------- *)

let daemon_cmd =
  let duration =
    opt_arg pos_time 60. [ "duration" ] ~docv:"T"
      ~doc:"Stream duration in simulated time units (> 0)."
  in
  let event_dt =
    opt_arg pos_time 1. [ "event-dt" ] ~docv:"T"
      ~doc:"Epoch length: commit/verify cadence (> 0)."
  in
  let move_rate =
    opt_arg nonneg_float 40. [ "move-rate" ] ~docv:"R"
      ~doc:"Network-wide position reports per time unit (>= 0)."
  in
  (* --speed and --pause split syntax from semantics: a value that does
     not parse is a cmdliner error (exit 124); an inverted, non-positive
     or NaN range and a negative pause parse fine and are rejected by
     Mobility.validate_params at startup with exit 2, mirroring a bad
     --restore file. *)
  let speed =
    some_arg
      (split ':' tuple_part
         (function [ Some lo; Some hi ] -> Some (lo, hi) | _ -> None)
         (Fmt.str "%S is not LO:HI (two floats)")
         (fun ppf (lo, hi) -> Fmt.pf ppf "%g:%g" lo hi))
      [ "speed" ] ~docv:"LO:HI"
      ~doc:
        "Random-waypoint speed range (default: the library's default \
         parameters).  Inverted or non-positive ranges are rejected at \
         startup."
  in
  let pause =
    some_arg
      (fun flag ->
        number float_lit (fun _ -> true) (fun s _ -> not_a_float flag s))
      [ "pause" ] ~docv:"T"
      ~doc:
        "Random-waypoint pause at each waypoint (default: the library's \
         default).  Negative or non-finite values are rejected at startup."
  in
  let crash =
    opt_arg fraction 0. [ "crash" ] ~docv:"F"
      ~doc:"Crash this fraction of the nodes mid-stream."
  in
  let recover_after =
    some_arg pos_time [ "recover-after" ] ~docv:"T"
      ~doc:
        "Recover each crashed node this long after its crash (default: \
         crashes are permanent)."
  in
  let storm =
    (* T0:T1:MULT — a load spike for exercising the shedding policy *)
    some_arg
      (split ':' tuple_part
         (function
           | [ Some t0; Some t1; Some mult ]
             when t0 >= 0. && t0 < t1 && mult > 0. ->
               Some (t0, t1, mult)
           | _ -> None)
         (Fmt.str "%S is not T0:T1:MULT with 0 <= T0 < T1 and MULT > 0")
         (fun ppf (t0, t1, m) -> Fmt.pf ppf "%g:%g:%g" t0 t1 m))
      [ "storm" ] ~docv:"T0:T1:MULT"
      ~doc:
        "Multiply the move rate by MULT while stream time is in [T0, T1) \
         — a fault/load storm."
  in
  let budget =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"B"
          ~doc:"Max events applied per epoch (<= 0 = unlimited).")
  in
  let queue_cap =
    opt_arg pos_int 4096 [ "queue-cap" ] ~docv:"C"
      ~doc:"Event-queue capacity before overload shedding."
  in
  let watchdog =
    opt_arg nonneg_float Daemon.Engine.default_watchdog_frac [ "watchdog" ]
      ~docv:"FRAC"
      ~doc:
        "Fall back to a full recompute when an epoch dirties more than \
         FRAC of the live nodes (0 = always full, > 1 = never; the default \
         1.0 trips only when every live node is dirty, where the full pass \
         is the same work plus a drift squash)."
  in
  let shards =
    opt_arg nonneg_int 0 [ "shards" ] ~docv:"K"
      ~doc:
        "Spatial shards per pooled commit (0 = one per pool chunk). \
         Reports are byte-identical for every value; tune only for load \
         balance."
  in
  let verify_every =
    opt_arg nonneg_int 10 [ "verify-every" ] ~docv:"K"
      ~doc:"Verify guarantees + degradation every K epochs (0 = final only)."
  in
  let equivalence_every =
    opt_arg nonneg_int 0 [ "equivalence-every" ] ~docv:"K"
      ~doc:
        "Check incremental state equals a full recompute every K epochs (0 \
         = never)."
  in
  let checkpoint_every =
    opt_arg nonneg_int 0 [ "checkpoint-every" ] ~docv:"K"
      ~doc:"Write a checkpoint every K epochs (0 = never; needs --checkpoint)."
  in
  let checkpoint_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Checkpoint file (single-line JSON, atomically rewritten).")
  in
  let restore =
    Arg.(
      value
      & opt (some string) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by an identical command \
             line; the run converges to the same topology digest as the \
             uninterrupted one.")
  in
  let wall =
    Arg.(
      value & flag
      & info [ "wall" ]
          ~doc:
            "Measure wall-clock time and report events/sec (makes the \
             report non-reproducible; benchmarks only).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the JSON daemon report to $(docv).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON-lines trace (run manifest, then per-epoch \
             drain/dirty-propagate/regrow/verify spans and counters) to \
             $(docv).  Recorded clockless, so the file is byte-identical \
             across runs and every -j.")
  in
  let action n side range seed alpha duration event_dt move_rate speed pause
      sigma shadow_seed crash recover_after storm budget queue_cap watchdog
      shards verify_every equivalence_every checkpoint_every checkpoint_path
      restore wall metrics_out trace_out jobs =
    let sc = scenario_of ~n ~side ~range ~seed in
    let mobility =
      let d = Workload.Mobility.default_params in
      let speed_lo, speed_hi =
        match speed with
        | Some r -> r
        | None ->
            (d.Workload.Mobility.speed_lo, d.Workload.Mobility.speed_hi)
      in
      let pause =
        match pause with Some p -> p | None -> d.Workload.Mobility.pause
      in
      { Workload.Mobility.speed_lo; speed_hi; pause }
    in
    (* reject bad mobility parameters before any work, like a bad
       --restore file: exit 2 *)
    (try Workload.Mobility.validate_params ~who:"daemon" mobility
     with Invalid_argument m ->
       (* the validator's message already carries the "daemon: " prefix *)
       Fmt.epr "%s@." m;
       exit 2);
    let env = env_of ~pathloss:(Workload.Scenario.pathloss sc) ~sigma ~shadow_seed in
    let churn =
      if crash <= 0. then Faults.Plan.empty
      else
        Faults.Plan.random_crashes
          ~prng:(Prng.create ~seed:(seed + 1))
          ~n ~fraction:crash
          ~window:(0.1 *. duration, 0.6 *. duration)
          ?recover_after ()
    in
    let stream =
      {
        Daemon.Driver.seed;
        field = sc.Workload.Scenario.field;
        mobility;
        move_rate;
        storm;
        churn;
        positions = Workload.Scenario.positions sc;
      }
    in
    let params =
      {
        Daemon.Driver.duration;
        event_dt;
        budget;
        queue_cap;
        watchdog_frac = watchdog;
        shards;
        verify_every;
        equivalence_every;
        checkpoint_every;
        checkpoint_path;
      }
    in
    (try Daemon.Driver.validate params stream
     with Invalid_argument m ->
       Fmt.epr "daemon: %s@." m;
       exit 2);
    let restore =
      Option.map
        (fun path ->
          try Daemon.Checkpoint.load path
          with Failure m ->
            Fmt.epr "daemon: %s@." m;
            exit 2)
        restore
    in
    (* checkpoints are written atomically through FILE.tmp: probing it
       now proves the directory writable before the stream starts *)
    Option.iter (fun path -> probe_output (path ^ ".tmp")) checkpoint_path;
    let metrics_out = open_optional metrics_out in
    let trace_oc = Option.map open_output trace_out in
    let clock = if wall then Some Unix.gettimeofday else None in
    (* the trace recorder is always clockless (even with --wall): spans
       carry deterministic structure and counters only, so the file is
       byte-identical across runs and every -j *)
    let with_trace f =
      match trace_oc with
      | None -> f None
      | Some oc ->
          let obs = Obs.Recorder.create () in
          List.iter
            (fun (k, v) -> Obs.Recorder.set obs k v)
            (manifest_of ~command:"daemon" ~n ~side ~range ~seed ~alpha
               (jobs_field jobs :: env_fields ~sigma ~shadow_seed));
          Fun.protect
            ~finally:(fun () ->
              Obs.Recorder.write_trace obs oc;
              close_out oc)
            (fun () -> f (Some obs))
    in
    let r, pool_jobs =
      with_trace @@ fun obs ->
      Parallel.Pool.with_pool ?jobs (fun pool ->
          ( Daemon.Driver.run ~pool ?obs ?clock ?restore ?env ~params
              ~config:(Cbtc.Config.make alpha)
              ~pathloss:(Workload.Scenario.pathloss sc)
              stream,
            Parallel.Pool.jobs pool ))
    in
    let open Daemon.Driver in
    Fmt.pr "epochs:     %d (dt %g)@." r.epochs event_dt;
    Fmt.pr "live:       %d/%d nodes@." r.live n;
    Fmt.pr "events:     %d applied, %d shed, %d overflow (peak backlog %d)@."
      r.engine.Daemon.Engine.events r.queue.Daemon.Equeue.shed
      r.queue.Daemon.Equeue.overflow r.queue.Daemon.Equeue.peak;
    Fmt.pr "regrown:    %d cones incremental, %d full recomputes@."
      r.engine.Daemon.Engine.regrown r.engine.Daemon.Engine.full_recomputes;
    Option.iter
      (fun (l : latency) ->
        Fmt.pr "latency:    p50 %g p95 %g p99 %g max %g (%d samples)@." l.p50
          l.p95 l.p99 l.max l.samples)
      r.latency;
    Fmt.pr "verify:     %d checks, %d degraded; equivalence: %d checks@."
      r.verify_checks r.degraded_checks r.equivalence_checks;
    Fmt.pr "final:      drift %d, lag %d, connectivity preserved %b@."
      r.final_degradation.drift r.final_degradation.liveness_lag
      r.final_degradation.connectivity_preserved;
    Fmt.pr "digest:     %s@." r.topology_digest;
    (match r.wall_s with
    | Some w when w > 0. ->
        Fmt.pr "throughput: %.0f events/s (%.2fs wall)@."
          (Stdlib.float_of_int r.engine.Daemon.Engine.events /. w)
          w
    | _ -> ());
    emit metrics_out (fun () -> json_line (report_json r ~jobs:pool_jobs));
    List.iter (fun m -> Fmt.epr "verify failure: %s@." m) r.verify_failures;
    List.iter
      (fun m -> Fmt.epr "equivalence failure: %s@." m)
      r.equivalence_failures;
    if r.verify_failures <> [] || r.equivalence_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the self-healing topology daemon on a continuous \
          join/leave/move stream: incremental reconfiguration with \
          bounded-queue shedding, watchdog fallback, periodic \
          checkpoints and continuous verification.  Degradation is \
          reported, not fatal; exits 1 only on a guarantee or \
          equivalence violation (an engine bug).")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ duration
      $ event_dt $ move_rate $ speed $ pause $ sigma_t $ shadow_seed_t
      $ crash $ recover_after $ storm $ budget $ queue_cap $ watchdog
      $ shards $ verify_every $ equivalence_every $ checkpoint_every
      $ checkpoint_path $ restore $ wall $ metrics_out $ trace_out $ jobs)

(* ---------- daemon-sweep ---------- *)

let daemon_sweep_cmd =
  let seeds =
    opt_arg
      (bounded int_lit (fun k -> k >= 1 && k <= 100_000) "out of [1, 100000]")
      8 [ "seeds" ] ~docv:"K"
      ~doc:"Stream seeds to sweep (each crossed with every grid cell)."
  in
  let action n seed seeds out jobs =
    let out = open_optional out in
    let report =
      Parallel.Pool.with_pool ?jobs (fun pool ->
          Check.Daemon_sweep.sweep ~pool ~seeds ~seed ~n ())
    in
    Fmt.pr "%a@." Check.Daemon_sweep.pp_report report;
    emit out (fun () ->
        json_line
          (Obs.Jsonl.Obj
            [
              ("command", Obs.Jsonl.Str "daemon-sweep");
              ("n", Obs.Jsonl.Int n);
              ("seed", Obs.Jsonl.Int seed);
              ("seeds", Obs.Jsonl.Int report.Check.Daemon_sweep.seeds);
              ("cells", Obs.Jsonl.Int report.Check.Daemon_sweep.cells);
              ("trials", Obs.Jsonl.Int report.Check.Daemon_sweep.trials);
              ( "failures",
                Obs.Jsonl.Int
                  (List.length report.Check.Daemon_sweep.failures) );
              ("digest", Obs.Jsonl.Str report.Check.Daemon_sweep.digest);
            ]));
    if report.Check.Daemon_sweep.failures <> [] then exit 1
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write a JSON sweep manifest (trial count, digest, failures).")
  in
  Cmd.v
    (Cmd.info "daemon-sweep"
       ~doc:
         "Sweep the daemon's incremental-vs-full equivalence invariant \
          across seeded mobility/fault streams and a fault/watchdog \
          grid.  The report is bit-identical at every -j; exits 1 on \
          any violation.")
    Term.(const action $ nodes $ seed $ seeds $ out $ jobs)

(* ---------- theory ---------- *)

let theory_cmd =
  let action () =
    let ex = Cbtc.Constructions.example_2_1 ~alpha:Geom.Angle.five_pi_six () in
    let pl = Radio.Pathloss.make ~max_range:ex.Cbtc.Constructions.max_range () in
    let d =
      Cbtc.Geo.run
        (Cbtc.Config.make Geom.Angle.five_pi_six)
        pl ex.Cbtc.Constructions.positions
    in
    let v_u0 = List.mem 0 (Cbtc.Discovery.neighbor_ids d 4)
    and u0_v = List.mem 4 (Cbtc.Discovery.neighbor_ids d 0) in
    Fmt.pr "Example 2.1: (v,u0) in N = %b, (u0,v) in N = %b (asymmetric: %b)@."
      v_u0 u0_v (v_u0 && not u0_v);
    let th = Cbtc.Constructions.theorem_2_4 ~epsilon:0.1 () in
    let pl = Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range () in
    let gr = Cbtc.Geo.max_power_graph pl th.Cbtc.Constructions.positions in
    let g =
      Cbtc.Discovery.closure
        (Cbtc.Geo.run
           (Cbtc.Config.make th.Cbtc.Constructions.alpha)
           pl th.Cbtc.Constructions.positions)
    in
    Fmt.pr "Theorem 2.4: GR connected = %b, G(5pi/6+eps) connected = %b@."
      (Graphkit.Traversal.is_connected gr)
      (Graphkit.Traversal.is_connected g)
  in
  Cmd.v (Cmd.info "theory" ~doc:"Check the paper's two hand constructions.")
    Term.(const action $ const ())

(* ---------- compare ---------- *)

let compare_cmd =
  let action n side range seed =
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let positions = Workload.Scenario.positions sc in
    let gr = Baselines.Proximity.max_power pl positions in
    let energy = Radio.Energy.make pl in
    let table =
      Metrics.Table.create
        ~columns:[ "topology"; "deg"; "radius"; "power stretch"; "preserved" ]
    in
    let add name graph radius =
      let ps =
        Metrics.Stretch.power_stretch energy positions ~reference:gr graph
      in
      Metrics.Table.add_row table
        [
          name;
          Fmt.str "%.1f" (Metrics.Topo_metrics.avg_degree graph);
          Fmt.str "%.0f" (Metrics.Topo_metrics.avg_radius radius);
          Fmt.str "%.2f" ps.Metrics.Stretch.max_stretch;
          string_of_bool (Metrics.Connectivity.preserves ~reference:gr graph);
        ]
    in
    add "max power" gr
      (Baselines.Proximity.radius_of ~full_power:true pl positions gr);
    List.iter
      (fun (name, a) ->
        let config = Cbtc.Config.make a in
        let r = Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops config) in
        add name r.Cbtc.Pipeline.graph r.Cbtc.Pipeline.radius)
      [ ("CBTC all 5pi/6", Geom.Angle.five_pi_six);
        ("CBTC all 2pi/3", Geom.Angle.two_pi_three) ];
    List.iter
      (fun (name, g) -> add name g (Baselines.Proximity.radius_of pl positions g))
      [
        ("RNG", Baselines.Proximity.rng pl positions);
        ("Gabriel", Baselines.Proximity.gabriel pl positions);
        ("MST", Baselines.Proximity.euclidean_mst pl positions);
      ];
    Fmt.pr "%a" Metrics.Table.pp table
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare CBTC against proximity-graph baselines.")
    Term.(const action $ nodes $ side $ range $ seed)

(* ---------- route ---------- *)

let route_cmd =
  let count =
    opt_arg nonneg_int 200 [ "count" ] ~docv:"K"
      ~doc:"Number of random source/dest pairs."
  in
  let action n side range seed alpha opts count =
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let positions = Workload.Scenario.positions sc in
    let config = Cbtc.Config.make alpha in
    let r = Cbtc.Pipeline.run_oracle pl positions (plan_of config opts) in
    let graph = r.Cbtc.Pipeline.graph in
    let prng = Prng.create ~seed:(seed + 1) in
    let pairs = Routing.Greedy.random_pairs prng ~n ~count in
    let greedy = Routing.Greedy.evaluate graph positions ~pairs in
    Fmt.pr "greedy geographic forwarding on the controlled topology:@.";
    Fmt.pr "  delivered: %d/%d (%.0f%%)@." greedy.Routing.Greedy.delivered
      greedy.Routing.Greedy.attempts
      (100.
      *. Stdlib.float_of_int greedy.Routing.Greedy.delivered
      /. Stdlib.float_of_int (Stdlib.max 1 greedy.Routing.Greedy.attempts));
    Fmt.pr "  avg hops: %.1f, avg route/straight-line length: %.2f@."
      greedy.Routing.Greedy.avg_hops greedy.Routing.Greedy.avg_length_ratio;
    let load = Routing.Flows.measure positions graph ~pairs in
    Fmt.pr "min-hop flow load: max link %d, max node %d, total hops %d@."
      load.Routing.Flows.max_link_load load.Routing.Flows.max_node_load
      load.Routing.Flows.total_hops
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Routing quality of a controlled topology.")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ opts_flag $ count)

(* ---------- lifetime ---------- *)

let lifetime_cmd =
  let rounds =
    Arg.(
      value & opt int 4000
      & info [ "rounds" ] ~docv:"K" ~doc:"Maximum data-gathering rounds.")
  in
  let capacity =
    Arg.(
      value & opt float 5e7
      & info [ "capacity" ] ~docv:"E"
          ~doc:"Initial battery energy per node (must be positive).")
  in
  let rx_overhead =
    Arg.(
      value & opt float 20000.
      & info [ "rx-overhead" ] ~docv:"E"
          ~doc:
            "Energy per reception (and per overheard transmission).  The \
             default is radio-realistic — listening comparable to a \
             transmission, the regime the paper's interference argument \
             is about — rather than the library default of 2000, at \
             which no sleeping discipline can matter.")
  in
  let rotation_period =
    Arg.(
      value & opt int 25
      & info [ "rotation-period" ] ~docv:"K"
          ~doc:
            "Re-elect the relay cover set every $(docv) rounds; 0 \
             disables active scheduling entirely (the passive \
             per-round-Dijkstra baseline).")
  in
  let duty =
    Arg.(
      value & opt float 0.
      & info [ "duty" ] ~docv:"F"
          ~doc:
            "Awake fraction for non-relay nodes, in [0, 1]: 1 keeps \
             every node listening, 0 sleeps every non-relay except for \
             its own transmissions.")
  in
  let idle_listen =
    Arg.(
      value & opt float 0.
      & info [ "idle-listen" ] ~docv:"E"
          ~doc:"Energy per round charged to every awake live non-sink node.")
  in
  let family =
    Arg.(
      value & opt string "all"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Topology family to schedule on: max-power, cbtc[:ALPHA], \
             yao[:K], rng, gabriel, knn[:K], mst, or all (the bench \
             line-up).")
  in
  let placement =
    Arg.(
      value
      & opt
          (enum
             [ ("uniform", `Uniform); ("clustered", `Clustered);
               ("grid", `Grid) ])
          `Uniform
      & info [ "placement" ] ~docv:"KIND"
          ~doc:
            "Node placement: uniform (the paper's), clustered (Gaussian \
             clusters), or grid (jittered lattice).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write a JSON report (one row per family) to $(docv).")
  in
  let action n side range seed alpha rounds capacity rx_overhead
      rotation_period duty idle_listen family placement sigma shadow_seed out
      jobs obsout =
    (* semantic validation before any work: exit 2, like a bad daemon
       --speed (malformed literals already died in the conv parser) *)
    let policy =
      (* passive mode has no relays, so the duty default (0: sleep every
         non-relay) would read as duty-cycling-without-rotation; in that
         mode everyone listens *)
      let duty = if rotation_period = 0 && duty = 0. then 1. else duty in
      { Lifetime.Schedule.rotation_period; duty; idle_listen; seed }
    in
    (match Lifetime.Schedule.validate_policy policy with
    | Ok () -> ()
    | Error msg ->
        Fmt.epr "lifetime: %s@." msg;
        exit 2);
    if not (Float.is_finite capacity && capacity > 0.) then begin
      Fmt.epr "lifetime: capacity must be a positive finite energy (got %g)@."
        capacity;
      exit 2
    end;
    if not (Float.is_finite rx_overhead && rx_overhead >= 0.) then begin
      Fmt.epr
        "lifetime: rx-overhead must be a non-negative finite energy (got %g)@."
        rx_overhead;
      exit 2
    end;
    if rounds < 0 then begin
      Fmt.epr "lifetime: rounds must be >= 0 (got %d)@." rounds;
      exit 2
    end;
    let families =
      if family = "all" then Lifetime.Schedule.families
      else if String.lowercase_ascii (String.trim family) = "cbtc" then
        (* bare "cbtc" picks up --alpha; "cbtc:ALPHA" pins its own *)
        [ Lifetime.Schedule.Cbtc alpha ]
      else
        match Lifetime.Schedule.family_of_string family with
        | Ok f -> [ f ]
        | Error msg ->
            Fmt.epr "lifetime: %s@." msg;
            exit 2
    in
    let placement_label =
      match placement with
      | `Uniform -> "uniform"
      | `Clustered -> "clustered"
      | `Grid -> "grid"
    in
    let out = open_optional out in
    with_obs obsout
      ~manifest:
        (manifest_of ~command:"lifetime" ~n ~side ~range ~seed ~alpha
           ([ ("rounds", Obs.Jsonl.Int rounds);
              ("capacity", Obs.Jsonl.Float capacity);
              ("rx_overhead", Obs.Jsonl.Float rx_overhead);
              ("rotation_period", Obs.Jsonl.Int rotation_period);
              ("duty", Obs.Jsonl.Float duty);
              ("idle_listen", Obs.Jsonl.Float idle_listen);
              ("placement", Obs.Jsonl.Str placement_label);
              jobs_field jobs ]
           @ env_fields ~sigma ~shadow_seed))
    @@ fun obs ->
    let sc = scenario_of ~n ~side ~range ~seed in
    let pl = Workload.Scenario.pathloss sc in
    let env = env_of ~pathloss:pl ~sigma ~shadow_seed in
    let positions =
      match placement with
      | `Uniform -> Workload.Scenario.positions sc
      | `Clustered ->
          Workload.Placement.clustered (Workload.Scenario.prng sc)
            ~field:sc.Workload.Scenario.field
            ~clusters:(Stdlib.max 2 (n / 20))
            ~n ~sigma:(side /. 10.)
      | `Grid ->
          let cols =
            int_of_float (Float.ceil (Float.sqrt (float_of_int n)))
          in
          let all =
            Workload.Placement.grid_jitter (Workload.Scenario.prng sc)
              ~field:sc.Workload.Scenario.field ~rows:cols ~cols
              ~jitter:(side /. float_of_int (4 * cols))
          in
          Array.sub all 0 n
    in
    let params =
      { Lifetime.Gather.default_params with
        capacity; rx_overhead; max_rounds = rounds }
    in
    with_pool_opt jobs @@ fun pool ->
    let rows =
      List.map
        (fun fam ->
          let label = Lifetime.Schedule.family_label fam in
          Obs.Recorder.span obs (Fmt.str "lifetime.%s" label) @@ fun () ->
          let topology =
            Lifetime.Schedule.family_builder ?pool ?env fam pl
          in
          let r =
            Lifetime.Schedule.run ~params ~policy ~obs pl positions ~sink:0
              ~topology
          in
          Fmt.pr "@[<v># family: %s@,%a@]@.@." label
            Lifetime.Schedule.pp_report r;
          let o = r.Lifetime.Schedule.outcome in
          let opt_round = function
            | None -> Obs.Jsonl.Null
            | Some k -> Obs.Jsonl.Int k
          in
          Obs.Jsonl.Obj
            [
              ("family", Obs.Jsonl.Str label);
              ("lifetime_rounds",
               Obs.Jsonl.Int (Lifetime.Schedule.total_lifetime r));
              ("first_death", opt_round o.Lifetime.Gather.first_death);
              ("half_dead", opt_round o.Lifetime.Gather.half_dead);
              ("sink_partition", opt_round o.Lifetime.Gather.sink_partition);
              ("rounds_completed",
               Obs.Jsonl.Int o.Lifetime.Gather.rounds_completed);
              ("delivered", Obs.Jsonl.Int o.Lifetime.Gather.packets_delivered);
              ("dropped", Obs.Jsonl.Int o.Lifetime.Gather.packets_dropped);
              ("deaths", Obs.Jsonl.Int (List.length o.Lifetime.Gather.deaths));
              ("epochs", Obs.Jsonl.Int r.Lifetime.Schedule.epochs);
              ("cover_sets", Obs.Jsonl.Int r.Lifetime.Schedule.cover_sets);
              ("awake_node_rounds",
               Obs.Jsonl.Int r.Lifetime.Schedule.awake_node_rounds);
              ("consumed_energy",
               Obs.Jsonl.Float r.Lifetime.Schedule.consumed_energy);
              ("energy_per_delivered",
               Obs.Jsonl.Float r.Lifetime.Schedule.energy_per_delivered);
            ])
        families
    in
    match out with
    | None -> ()
    | Some (path, oc) ->
        Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
        output_string oc "{\n  \"schema\": 1,\n";
        output_string oc
          (Fmt.str
             "  \"n\": %d, \"seed\": %d, \"rounds\": %d, \"capacity\": %g, \
              \"rx_overhead\": %g,\n\
             \  \"rotation_period\": %d, \"duty\": %g, \"idle_listen\": %g, \
              \"placement\": %S,\n"
             n seed rounds capacity rx_overhead rotation_period duty
             idle_listen placement_label);
        output_string oc "  \"results\": [\n";
        List.iteri
          (fun i row ->
            output_string oc "    ";
            output_string oc (Obs.Jsonl.to_string row);
            output_string oc
              (if i = List.length rows - 1 then "\n" else ",\n"))
          rows;
        output_string oc "  ]\n}\n";
        Fmt.pr "wrote %s (%d families)@." path (List.length rows)
  in
  Cmd.v
    (Cmd.info "lifetime"
       ~doc:
         "Duty-cycled network lifetime under many-to-one data gathering: \
          the energy-aware cover-set scheduler (or, with \
          --rotation-period 0, the passive baseline) across topology \
          families.")
    Term.(
      const action $ nodes $ side $ range $ seed $ alpha $ rounds $ capacity
      $ rx_overhead $ rotation_period $ duty $ idle_listen $ family
      $ placement $ sigma_t $ shadow_seed_t $ out $ jobs $ obs_out)

let () =
  let info =
    Cmd.info "cbtc" ~version:"1.0.0"
      ~doc:"Cone-Based Topology Control for wireless multi-hop networks."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; sweep_cmd; topology_cmd; protocol_cmd; stress_cmd;
            check_cmd; daemon_cmd; daemon_sweep_cmd; theory_cmd; compare_cmd;
            route_cmd; lifetime_cmd ]))
