module ISet = Set.Make (Int)

type t = { adj : ISet.t array; mutable nb_edges : int }

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { adj = Array.make n ISet.empty; nb_edges = 0 }

let nb_nodes g = Array.length g.adj

let nb_edges g = g.nb_edges

let check g u =
  if u < 0 || u >= nb_nodes g then invalid_arg "Digraph: node out of range"

let mem_edge g u v =
  check g u;
  check g v;
  ISet.mem v g.adj.(u)

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  if not (ISet.mem v g.adj.(u)) then begin
    g.adj.(u) <- ISet.add v g.adj.(u);
    g.nb_edges <- g.nb_edges + 1
  end

let succ g u =
  check g u;
  ISet.elements g.adj.(u)

let iter_succ g u f =
  check g u;
  ISet.iter f g.adj.(u)

let out_degree g u =
  check g u;
  ISet.cardinal g.adj.(u)

let iter_edges f g = Array.iteri (fun u s -> ISet.iter (fun v -> f u v) s) g.adj

let of_edges n edge_list =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let symmetric_closure g =
  let u_graph = Ugraph.create (nb_nodes g) in
  iter_edges (fun u v -> Ugraph.add_edge u_graph u v) g;
  u_graph

let symmetric_core g =
  let u_graph = Ugraph.create (nb_nodes g) in
  iter_edges
    (fun u v -> if u < v && mem_edge g v u then Ugraph.add_edge u_graph u v)
    g;
  u_graph
