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
  graph : Graphkit.Ugraph.t;
  radius : float array;
}

(* Every stage after discovery runs on the rows of [s]: op1 cuts each
   row to a prefix, the closure (or under op2 the core) of the kept
   prefixes becomes id-sorted CSR rows, op3 prunes those, and the
   result graph and radii are read off the final rows once. *)
let optimize ~obs plan (s : Discovery.t) =
  let cut =
    if plan.shrink then Optimize.shrink_cut ~obs s
    else Array.sub s.off 1 (Discovery.nb_nodes s)
  in
  let topology =
    if plan.asym then
      Obs.Recorder.span obs "asym-removal" (fun () ->
          Discovery.topology ~both:true s ~cut)
    else Discovery.topology ~both:false s ~cut
  in
  let topology =
    match plan.pairwise with
    | `None -> topology
    | (`Practical | `All) as mode ->
        Optimize.pairwise ~obs ~mode s.positions topology
  in
  let radius =
    Array.init (Discovery.nb_nodes s) (fun u ->
        let r = ref 0. in
        for a = topology.off.(u) to topology.off.(u + 1) - 1 do
          r := Float.max !r (sqrt topology.d2.(a))
        done;
        !r)
  in
  (Discovery.graph topology, radius)

let of_discovery ?(obs = Obs.Recorder.nil) (d : Discovery.t) plan =
  if plan.config <> d.config then
    invalid_arg "Pipeline.of_discovery: config mismatch";
  if plan.asym then check_asym plan.config;
  (* op1 cuts rows in (tag, link power, id) order, which the kernel's
     are in; a distributed discovery's need not be (a nearer neighbor
     can be acked at a later step).  No later stage depends on the
     order within a row. *)
  let graph, radius = optimize ~obs plan (Optimize.by_tag d) in
  { plan; discovery = d; graph; radius }

let run_oracle ?pool ?(obs = Obs.Recorder.nil) ?env pathloss positions plan =
  if plan.asym then check_asym plan.config;
  let discovery = Geo.run_flat ?pool ~obs ?env plan.config pathloss positions in
  let graph, radius = optimize ~obs plan discovery in
  { plan; discovery; graph; radius }

let avg_degree t =
  let n = Graphkit.Ugraph.nb_nodes t.graph in
  if n = 0 then 0.
  else 2. *. Stdlib.float_of_int (Graphkit.Ugraph.nb_edges t.graph) /. Stdlib.float_of_int n

let avg_radius t =
  let n = Array.length t.radius in
  if n = 0 then 0.
  else Array.fold_left ( +. ) 0. t.radius /. Stdlib.float_of_int n
