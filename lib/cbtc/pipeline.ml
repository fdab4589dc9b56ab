type plan = {
  config : Config.t;
  shrink : bool;
  asym : bool;
  pairwise : [ `None | `Practical | `All ];
}

let basic config = { config; shrink = false; asym = false; pairwise = `None }

let with_shrink config =
  { config; shrink = true; asym = false; pairwise = `None }

let check_asym config =
  if not (Config.allows_asymmetric_removal config) then
    invalid_arg "Pipeline: asymmetric edge removal requires alpha <= 2pi/3"

let shrink_asym config =
  check_asym config;
  { config; shrink = true; asym = true; pairwise = `None }

let all_ops config =
  {
    config;
    shrink = true;
    asym = Config.allows_asymmetric_removal config;
    pairwise = `Practical;
  }

type t = {
  plan : plan;
  discovery : Discovery.t;
  shrunk : Discovery.t;
  graph : Graphkit.Ugraph.t;
  radius : float array;
}

let of_discovery ?(obs = Obs.Recorder.nil) (d : Discovery.t) plan =
  if plan.config <> d.config then
    invalid_arg "Pipeline.of_discovery: config mismatch";
  if plan.asym then check_asym plan.config;
  let shrunk = if plan.shrink then Optimize.shrink_back ~obs d else d in
  let base_graph =
    if plan.asym then
      Obs.Recorder.span obs "asym-removal" (fun () -> Discovery.core shrunk)
    else Discovery.closure shrunk
  in
  let graph =
    match plan.pairwise with
    | `None -> base_graph
    | (`Practical | `All) as mode ->
        Optimize.pairwise ~positions:d.positions ~obs ~mode base_graph
  in
  {
    plan;
    discovery = d;
    shrunk;
    graph;
    radius = Discovery.radius_in shrunk graph;
  }

let run_oracle ?pool ?obs ?env pathloss positions plan =
  of_discovery ?obs (Geo.run ?pool ?obs ?env plan.config pathloss positions) plan

let avg_degree t =
  let n = Graphkit.Ugraph.nb_nodes t.graph in
  if n = 0 then 0.
  else 2. *. Stdlib.float_of_int (Graphkit.Ugraph.nb_edges t.graph) /. Stdlib.float_of_int n

let avg_radius t =
  let n = Array.length t.radius in
  if n = 0 then 0.
  else Array.fold_left ( +. ) 0. t.radius /. Stdlib.float_of_int n
