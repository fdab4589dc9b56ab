(* The set-based undirected graph [Graphkit.Ugraph] was first written
   as: one [Set.Make (Int)] per node, path-copied by every edit.  Kept
   as the oracle the sorted-row graph is property-tested against
   (test/test_graphkit.ml); same interface, same exceptions. *)

module ISet = Set.Make (Int)

type t = { adj : ISet.t array; mutable nb_edges : int }

let create n =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  { adj = Array.make n ISet.empty; nb_edges = 0 }

let nb_nodes g = Array.length g.adj

let nb_edges g = g.nb_edges

let check g u =
  if u < 0 || u >= nb_nodes g then invalid_arg "Ugraph: node out of range"

let mem_edge g u v =
  check g u;
  check g v;
  ISet.mem v g.adj.(u)

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  if not (ISet.mem v g.adj.(u)) then begin
    g.adj.(u) <- ISet.add v g.adj.(u);
    g.adj.(v) <- ISet.add u g.adj.(v);
    g.nb_edges <- g.nb_edges + 1
  end

let remove_edge g u v =
  check g u;
  check g v;
  if ISet.mem v g.adj.(u) then begin
    g.adj.(u) <- ISet.remove v g.adj.(u);
    g.adj.(v) <- ISet.remove u g.adj.(v);
    g.nb_edges <- g.nb_edges - 1
  end

let neighbors g u =
  check g u;
  ISet.elements g.adj.(u)

let iter_neighbors g u f =
  check g u;
  ISet.iter f g.adj.(u)

let fold_neighbors g u ~init ~f =
  check g u;
  ISet.fold (fun v acc -> f acc v) g.adj.(u) init

let degree g u =
  check g u;
  ISet.cardinal g.adj.(u)

let iter_edges f g =
  Array.iteri (fun u s -> ISet.iter (fun v -> if u < v then f u v) s) g.adj

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let of_edges n edge_list =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let copy g = { adj = Array.copy g.adj; nb_edges = g.nb_edges }

let is_subgraph a b =
  nb_nodes a = nb_nodes b
  &&
  let ok = ref true in
  iter_edges (fun u v -> if not (mem_edge b u v) then ok := false) a;
  !ok

let equal a b = is_subgraph a b && is_subgraph b a
