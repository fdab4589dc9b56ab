type control = { graph : Graphkit.Ugraph.t; radius : float array }

type topology_builder = alive:bool array -> Geom.Vec2.t array -> control

(* Run a full-array pipeline on the live-node subset and translate edges
   and radii back to global ids; dead nodes end up isolated at radius 0.
   [build] also receives the local-to-global id map so env-aware callers
   can [Radio.Env.relabel] the survivor subset back to original ids. *)
let induce ~alive positions build =
  let n = Array.length positions in
  let to_local = Array.make n (-1) in
  let to_global = ref [] in
  let count = ref 0 in
  for u = 0 to n - 1 do
    if alive.(u) then begin
      to_local.(u) <- !count;
      to_global := u :: !to_global;
      incr count
    end
  done;
  let to_global = Array.of_list (List.rev !to_global) in
  let local_positions = Array.map (fun u -> positions.(u)) to_global in
  let local_graph, local_radius = build to_global local_positions in
  let graph = Graphkit.Ugraph.create n in
  Graphkit.Ugraph.iter_edges
    (fun a b -> Graphkit.Ugraph.add_edge graph to_global.(a) to_global.(b))
    local_graph;
  let radius = Array.make n 0. in
  Array.iteri (fun local r -> radius.(to_global.(local)) <- r) local_radius;
  { graph; radius }

let local_env ?env pathloss to_global =
  Radio.Env.relabel ~labels:to_global (Radio.Env.resolve ?env pathloss)

let cbtc_builder ?pool ?env plan pathloss ~alive positions =
  induce ~alive positions (fun to_global local ->
      if Array.length local = 0 then (Graphkit.Ugraph.create 0, [||])
      else
        let env = local_env ?env pathloss to_global in
        let r = Cbtc.Pipeline.run_oracle ?pool ~env pathloss local plan in
        (r.Cbtc.Pipeline.graph, r.Cbtc.Pipeline.radius))

let max_power_builder ?pool ?env pathloss ~alive positions =
  induce ~alive positions (fun to_global local ->
      let env = local_env ?env pathloss to_global in
      let g = Baselines.Proximity.max_power ?pool ~env pathloss local in
      (g, Array.make (Array.length local) (Radio.Pathloss.max_range pathloss)))

type params = {
  capacity : float;
  tx_overhead : float;
  rx_overhead : float;
  overhearing : bool;
  max_rounds : int;
}

let default_params =
  {
    capacity = 5e7;
    tx_overhead = 5000.;
    rx_overhead = 2000.;
    overhearing = true;
    max_rounds = 5000;
  }

type outcome = {
  first_death : int option;
  half_dead : int option;
  sink_partition : int option;
  rounds_completed : int;
  packets_delivered : int;
  packets_dropped : int;
  deaths : (int * int) list;
}

let pp_option ppf = function
  | None -> Fmt.string ppf "-"
  | Some r -> Fmt.int ppf r

let pp_outcome ppf o =
  Fmt.pf ppf
    "rounds=%d first-death=%a half-dead=%a sink-partition=%a delivered=%d \
     dropped=%d deaths=%d"
    o.rounds_completed pp_option o.first_death pp_option o.half_dead pp_option
    o.sink_partition o.packets_delivered o.packets_dropped
    (List.length o.deaths)
