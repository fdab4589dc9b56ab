(* Self-contained HTML report: runs a compact reproduction (Table 1 on a
   configurable number of networks, the two constructions, the Figure 6
   panels inline as SVG, and the extension summaries) and writes a single
   HTML file.

   Usage: cbtc_report [SEEDS] [OUTPUT.html]   (defaults: 20 report.html) *)

let alpha56 = Geom.Angle.five_pi_six

let alpha23 = Geom.Angle.two_pi_three

let c56 = Cbtc.Config.make alpha56

let c23 = Cbtc.Config.make alpha23

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* "mean ± half-width" of the 95% interval; a single network has no
   interval, so its half-width prints as "-". *)
let mean_ci acc =
  if Stats.Welford.count acc < 2 then
    Fmt.str "%.1f ± -" (Stats.Welford.mean acc)
  else
    let ci = Stats.Ci.of_welford acc in
    Fmt.str "%.1f ± %.2f" ci.Stats.Ci.mean ci.Stats.Ci.half_width

let table1 seeds =
  let rows =
    [
      ("basic, α=5π/6", Some (12.3, 436.8), Cbtc.Pipeline.basic c56);
      ("basic, α=2π/3", Some (15.4, 457.4), Cbtc.Pipeline.basic c23);
      ("shrink-back, α=5π/6", Some (10.3, 373.7), Cbtc.Pipeline.with_shrink c56);
      ("shrink-back, α=2π/3", Some (12.8, 398.1), Cbtc.Pipeline.with_shrink c23);
      ("shrink+asym, α=2π/3", Some (7.0, 276.8), Cbtc.Pipeline.shrink_asym c23);
      ("all ops, α=5π/6", Some (3.6, 155.9), Cbtc.Pipeline.all_ops c56);
      ("all ops, α=2π/3", Some (3.6, 160.6), Cbtc.Pipeline.all_ops c23);
    ]
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "<table><tr><th>configuration</th><th>degree (paper)</th><th>degree \
     (ours ± 95%)</th><th>radius (paper)</th><th>radius (ours ± \
     95%)</th></tr>\n";
  let max_deg = Stats.Welford.create () in
  List.iter
    (fun (label, paper, plan) ->
      let dacc = Stats.Welford.create () and racc = Stats.Welford.create () in
      List.iter
        (fun seed ->
          let sc = Workload.Scenario.paper ~seed in
          let pl = Workload.Scenario.pathloss sc in
          let positions = Workload.Scenario.positions sc in
          let r = Cbtc.Pipeline.run_oracle pl positions plan in
          Stats.Welford.add dacc (Cbtc.Pipeline.avg_degree r);
          Stats.Welford.add racc (Cbtc.Pipeline.avg_radius r))
        seeds;
      let paper_deg, paper_rad =
        match paper with
        | Some (d, r) -> (Fmt.str "%.1f" d, Fmt.str "%.1f" r)
        | None -> ("—", "—")
      in
      Buffer.add_string buf
        (Fmt.str
           "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
           (escape label) paper_deg (mean_ci dacc) paper_rad (mean_ci racc)))
    rows;
  (* max power row *)
  List.iter
    (fun seed ->
      let sc = Workload.Scenario.paper ~seed in
      let pl = Workload.Scenario.pathloss sc in
      let positions = Workload.Scenario.positions sc in
      Stats.Welford.add max_deg
        (Metrics.Topo_metrics.avg_degree
           (Baselines.Proximity.max_power pl positions)))
    seeds;
  Buffer.add_string buf
    (Fmt.str
       "<tr><td>max power (no control)</td><td>25.6</td><td>%s</td>\
        <td>500</td><td>500</td></tr>\n</table>\n"
       (mean_ci max_deg));
  Buffer.contents buf

let figure6 () =
  let sc = Workload.Scenario.paper ~seed:42 in
  let pl = Workload.Scenario.pathloss sc in
  let positions = Workload.Scenario.positions sc in
  let panels =
    [
      ("(a) no control", Baselines.Proximity.max_power pl positions);
      ( "(c) basic 5π/6",
        (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.basic c56)).graph );
      ( "(f) shrink+asym 2π/3",
        (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.shrink_asym c23)).graph );
      ( "(g) all ops 5π/6",
        (Cbtc.Pipeline.run_oracle pl positions (Cbtc.Pipeline.all_ops c56)).graph );
    ]
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "<div class=\"panels\">\n";
  List.iter
    (fun (title, g) ->
      let style = Viz.Topoviz.style ~canvas:340. ~node_radius:2. ~title () in
      Buffer.add_string buf
        (Fmt.str "<div class=\"panel\">%s</div>\n"
           (Viz.Topoviz.to_svg ~style ~field_width:1500. ~field_height:1500.
              positions g)))
    panels;
  Buffer.add_string buf "</div>\n";
  Buffer.contents buf

let constructions () =
  let th = Cbtc.Constructions.theorem_2_4 ~epsilon:0.1 () in
  let pl = Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range () in
  let gr = Cbtc.Geo.max_power_graph pl th.Cbtc.Constructions.positions in
  let g =
    Cbtc.Discovery.closure
      (Cbtc.Geo.run_flat
         (Cbtc.Config.make th.Cbtc.Constructions.alpha)
         pl th.Cbtc.Constructions.positions)
  in
  Fmt.str
    "<p>Example 2.1 (asymmetry) and Theorem 2.4 both verify: the Figure 5 \
     construction's <i>G<sub>R</sub></i> is connected (%b) while \
     <i>G<sub>5π/6+ε</sub></i> is disconnected (%b).</p>"
    (Graphkit.Traversal.is_connected gr)
    (not (Graphkit.Traversal.is_connected g))

(* Exit codes follow the cbtc_cli convention: 2 for usage errors, 3 for
   output-sink errors — both before any simulation work runs. *)
let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "cbtc_report: %s@.usage: cbtc_report [SEEDS] [OUTPUT.html]@." msg;
      exit 2)
    fmt

let parse_seeds s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | Some n -> usage_error "SEEDS must be at least 1 (got %d)" n
  | None -> usage_error "SEEDS must be an integer (got %S)" s

let () =
  let seeds_count, out =
    match Array.to_list Sys.argv with
    | [ _ ] -> (20, "report.html")
    | [ _; n ] -> (parse_seeds n, "report.html")
    | [ _; n; path ] -> (parse_seeds n, path)
    | _ -> usage_error "expected at most 2 arguments"
  in
  let seeds = Workload.Scenario.seeds ~base:42 ~count:seeds_count in
  let html =
    Fmt.str
      {|<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>CBTC reproduction report</title>
<style>
body { font-family: system-ui, sans-serif; max-width: 960px; margin: 2em auto; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
td:first-child, th:first-child { text-align: left; }
.panels { display: flex; flex-wrap: wrap; gap: 8px; }
</style></head><body>
<h1>Cone-Based Topology Control — reproduction report</h1>
<p>Li, Halpern, Bahl, Wang, Wattenhofer, PODC 2001. %d random networks
(100 nodes, 1500×1500, R = 500, p(d) = d²).</p>
<h2>Table 1</h2>
%s
<h2>Constructions</h2>
%s
<h2>Figure 6 (selected panels)</h2>
%s
</body></html>
|}
      seeds_count (table1 seeds) (constructions ()) (figure6 ())
  in
  let oc =
    try open_out out
    with Sys_error msg ->
      Fmt.epr "cbtc_report: cannot open output file: %s@." msg;
      exit 3
  in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc html);
  Fmt.pr "wrote %s (%d bytes)@." out (String.length html)
