(* Tests for the graph substrate: undirected graphs, the closure and
   core of a directed relation (built by Cbtc.Discovery from discovery
   rows), union-find, traversal, Dijkstra, MST, and the float heap. *)

module U = Graphkit.Ugraph

(* ---------- Ugraph ---------- *)

let test_ugraph_basic () =
  let g = U.create 5 in
  U.add_edge g 0 1;
  U.add_edge g 1 2;
  U.add_edge g 0 1;
  (* idempotent *)
  Alcotest.(check int) "nodes" 5 (U.nb_nodes g);
  Alcotest.(check int) "edges" 2 (U.nb_edges g);
  Alcotest.(check bool) "mem" true (U.mem_edge g 1 0);
  Alcotest.(check (list int)) "neighbors" [ 0; 2 ] (U.neighbors g 1);
  Alcotest.(check int) "degree" 2 (U.degree g 1);
  U.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (U.mem_edge g 0 1);
  Alcotest.(check int) "edges after removal" 1 (U.nb_edges g);
  U.remove_edge g 0 1 (* removing absent edge is a no-op *)

let test_ugraph_edges_listing () =
  let g = U.of_edges 4 [ (2, 3); (0, 1); (1, 3) ] in
  Alcotest.(check (list (pair int int))) "edges sorted, u < v"
    [ (0, 1); (1, 3); (2, 3) ]
    (U.edges g)

let test_ugraph_errors () =
  let g = U.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Ugraph.add_edge: self-loop")
    (fun () -> U.add_edge g 1 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Ugraph: node out of range")
    (fun () -> U.add_edge g 0 7)

let test_ugraph_subgraph_copy () =
  let g = U.of_edges 4 [ (0, 1); (1, 2) ] in
  let h = U.copy g in
  U.add_edge h 2 3;
  Alcotest.(check bool) "g subgraph of h" true (U.is_subgraph g h);
  Alcotest.(check bool) "h not subgraph of g" false (U.is_subgraph h g);
  Alcotest.(check bool) "copy is independent" false (U.mem_edge g 2 3);
  Alcotest.(check bool) "equal self" true (U.equal g g)

(* ---------- Directed relation: closure and core ---------- *)

(* A discovery state whose rows list exactly [rows] (ids in row order,
   repeats allowed).  [closure] and [core] read only [neighbors]; the
   other fields are placeholders. *)
let of_rows rows =
  let n = Array.length rows in
  let nb id = Cbtc.Neighbor.make ~id ~dir:0. ~link_power:1. ~tag:1. in
  {
    Cbtc.Discovery.config = Cbtc.Config.make Geom.Angle.five_pi_six;
    pathloss = Radio.Pathloss.make ~max_range:1. ();
    positions = Array.make n Geom.Vec2.zero;
    neighbors = Array.map (List.map nb) rows;
    power = Array.make n 1.;
    boundary = Array.make n true;
  }

let test_closure_vs_core () =
  (* The paper's E_alpha (closure) vs E-_alpha (core) on an asymmetric
     relation: 0 <-> 1, 1 -> 2, 3 -> 1. *)
  let d = of_rows [| [ 1 ]; [ 0; 2 ]; []; [ 1 ] |] in
  let closure = Cbtc.Discovery.closure d in
  let core = Cbtc.Discovery.core d in
  Alcotest.(check (list (pair int int))) "closure"
    [ (0, 1); (1, 2); (1, 3) ]
    (U.edges closure);
  Alcotest.(check (list (pair int int))) "core" [ (0, 1) ] (U.edges core);
  Alcotest.(check bool) "core subgraph of closure" true
    (U.is_subgraph core closure)

(* ---------- Unionfind ---------- *)

let test_unionfind () =
  let uf = Graphkit.Unionfind.create 6 in
  Alcotest.(check int) "initial sets" 6 (Graphkit.Unionfind.nb_sets uf);
  Alcotest.(check bool) "union new" true (Graphkit.Unionfind.union uf 0 1);
  Alcotest.(check bool) "union again" false (Graphkit.Unionfind.union uf 1 0);
  ignore (Graphkit.Unionfind.union uf 2 3);
  ignore (Graphkit.Unionfind.union uf 0 3);
  Alcotest.(check bool) "same" true (Graphkit.Unionfind.same uf 1 2);
  Alcotest.(check bool) "not same" false (Graphkit.Unionfind.same uf 0 5);
  Alcotest.(check int) "sets" 3 (Graphkit.Unionfind.nb_sets uf)

(* ---------- Traversal ---------- *)

let test_components () =
  let g = U.of_edges 6 [ (0, 1); (1, 2); (4, 5) ] in
  let labels = Graphkit.Traversal.components g in
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 1; 2; 2 |] labels;
  Alcotest.(check int) "count" 3 (Graphkit.Traversal.nb_components g);
  Alcotest.(check bool) "connected" false (Graphkit.Traversal.is_connected g);
  Alcotest.(check bool) "same component" true
    (Graphkit.Traversal.same_component g 0 2);
  Alcotest.(check bool) "different" false
    (Graphkit.Traversal.same_component g 0 4)

let test_same_partition () =
  let a = U.of_edges 4 [ (0, 1); (2, 3) ] in
  let b = U.of_edges 4 [ (1, 0); (3, 2) ] in
  let c = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "same" true (Graphkit.Traversal.same_partition a b);
  Alcotest.(check bool) "different" false (Graphkit.Traversal.same_partition a c)

let test_hop_distances () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (2, 3) ] in
  let d = Graphkit.Traversal.hop_distances g 0 in
  Alcotest.(check (array int)) "hops" [| 0; 1; 2; 3; Stdlib.max_int |] d

(* ---------- Fheap ---------- *)

let test_fheap_sorts () =
  let h = Graphkit.Fheap.create () in
  let xs = [ 5.; 1.; 4.; 1.5; 9.; 0.; 2. ] in
  List.iter (fun x -> Graphkit.Fheap.push h x (Stdlib.int_of_float x)) xs;
  Alcotest.(check int) "size" 7 (Graphkit.Fheap.size h);
  let out = ref [] in
  while not (Graphkit.Fheap.is_empty h) do
    out := fst (Graphkit.Fheap.pop_min h) :: !out
  done;
  Alcotest.(check (list (float 0.))) "sorted ascending"
    (List.sort Float.compare xs) (List.rev !out);
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Graphkit.Fheap.pop_min h))

(* ---------- Shortest ---------- *)

let test_dijkstra_line () =
  let g = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let cost u v = Stdlib.float_of_int (abs (u - v)) in
  let d = Graphkit.Shortest.dijkstra g ~cost ~src:0 in
  Alcotest.(check (float 1e-9)) "d0" 0. d.(0);
  Alcotest.(check (float 1e-9)) "d1" 1. d.(1);
  Alcotest.(check (float 1e-9)) "d2" 2. d.(2);
  (* node 3: direct edge costs 3, path through 1,2 also 3 *)
  Alcotest.(check (float 1e-9)) "d3" 3. d.(3)

let test_dijkstra_unreachable () =
  let g = U.of_edges 3 [ (0, 1) ] in
  let d = Graphkit.Shortest.dijkstra g ~cost:(fun _ _ -> 1.) ~src:0 in
  Alcotest.(check bool) "unreachable" true (Float.is_integer d.(1) && d.(2) = Float.infinity)

let test_dijkstra_negative_cost_rejected () =
  let g = U.of_edges 2 [ (0, 1) ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Shortest.dijkstra: negative cost") (fun () ->
      ignore (Graphkit.Shortest.dijkstra g ~cost:(fun _ _ -> -1.) ~src:0))

(* ---------- MST ---------- *)

let test_mst_triangle () =
  let g = U.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight u v = Stdlib.float_of_int (u + v) in
  (* weights: 0-1 -> 1, 1-2 -> 3, 0-2 -> 2: MST keeps {0-1, 0-2}. *)
  let forest = Graphkit.Mst.spanning_forest g ~weight in
  Alcotest.(check (list (pair int int))) "mst edges" [ (0, 1); (0, 2) ]
    (List.sort Stdlib.compare forest)

let test_mst_forest_per_component () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (0, 2); (3, 4) ] in
  let forest = Graphkit.Mst.forest_graph g ~weight:(fun _ _ -> 1.) in
  Alcotest.(check int) "edge count = n - components" 3 (U.nb_edges forest);
  Alcotest.(check bool) "same partition" true
    (Graphkit.Traversal.same_partition g forest)

(* ---------- Biconnect ---------- *)

let test_articulation_points () =
  (* path: interior nodes are cut vertices *)
  let path = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list int)) "path" [ 1; 2 ]
    (Graphkit.Biconnect.articulation_points path);
  (* cycle: none *)
  let cycle = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check (list int)) "cycle" []
    (Graphkit.Biconnect.articulation_points cycle);
  (* two triangles sharing node 2 *)
  let bowtie = U.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  Alcotest.(check (list int)) "bowtie" [ 2 ]
    (Graphkit.Biconnect.articulation_points bowtie)

let test_bridges () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  Alcotest.(check (list (pair int int))) "bridges" [ (2, 3); (3, 4) ]
    (Graphkit.Biconnect.bridges g);
  let cycle = U.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check (list (pair int int))) "no bridges in a cycle" []
    (Graphkit.Biconnect.bridges cycle)

let test_is_biconnected () =
  let cycle = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "cycle" true (Graphkit.Biconnect.is_biconnected cycle);
  let path = U.of_edges 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "path" false (Graphkit.Biconnect.is_biconnected path);
  let split = U.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected" false
    (Graphkit.Biconnect.is_biconnected split)

(* ---------- Kconn ---------- *)

let test_k_connectivity () =
  let cycle = U.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  Alcotest.(check bool) "cycle 1-conn" true (Graphkit.Kconn.is_k_connected cycle ~k:1);
  Alcotest.(check bool) "cycle 2-conn" true (Graphkit.Kconn.is_k_connected cycle ~k:2);
  Alcotest.(check bool) "cycle not 3-conn" false
    (Graphkit.Kconn.is_k_connected cycle ~k:3);
  (* K4 is 3-connected *)
  let k4 = U.of_edges 4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  Alcotest.(check bool) "K4 3-conn" true (Graphkit.Kconn.is_k_connected k4 ~k:3);
  let path = U.of_edges 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "path not 2-conn" false
    (Graphkit.Kconn.is_k_connected path ~k:2);
  Alcotest.check_raises "k range" (Invalid_argument "Kconn.is_k_connected: k must be 1..3")
    (fun () -> ignore (Graphkit.Kconn.is_k_connected path ~k:4))

let test_survives_removal () =
  let g = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "remove endpoint fine" true
    (Graphkit.Kconn.survives_node_removal g ~removed:[ 0 ]);
  Alcotest.(check bool) "remove middle splits" false
    (Graphkit.Kconn.survives_node_removal g ~removed:[ 1 ]);
  Alcotest.(check bool) "remove everything" false
    (Graphkit.Kconn.survives_node_removal g ~removed:[ 0; 1; 2; 3 ])

(* ---------- properties ---------- *)

let random_graph_gen =
  (* (n, edge list) with edges drawn from the complete graph *)
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    list_size (int_range 0 (3 * n))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >|= fun raw ->
    (n, List.filter (fun (u, v) -> u <> v) raw))

let build (n, edge_list) = U.of_edges n edge_list

let prop_components_match_unionfind =
  QCheck.Test.make ~count:200 ~name:"BFS components match union-find"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = build (n, edge_list) in
      let uf = Graphkit.Unionfind.create n in
      List.iter (fun (u, v) -> ignore (Graphkit.Unionfind.union uf u v)) edge_list;
      let labels = Graphkit.Traversal.components g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Graphkit.Unionfind.same uf u v <> (labels.(u) = labels.(v)) then
            ok := false
        done
      done;
      !ok
      && Graphkit.Traversal.nb_components g = Graphkit.Unionfind.nb_sets uf
      (* same smallest-member numbering: equal partitions, equal arrays *)
      && Graphkit.Unionfind.labels uf = labels)

let prop_dijkstra_unit_weights_is_bfs =
  QCheck.Test.make ~count:200 ~name:"Dijkstra with unit weights equals BFS"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = build (n, edge_list) in
      let d = Graphkit.Shortest.dijkstra g ~cost:(fun _ _ -> 1.) ~src:0 in
      let h = Graphkit.Traversal.hop_distances g 0 in
      let ok = ref true in
      for u = 0 to n - 1 do
        let expected =
          if h.(u) = Stdlib.max_int then Float.infinity else Stdlib.float_of_int h.(u)
        in
        if d.(u) <> expected then ok := false
      done;
      !ok)

let prop_mst_preserves_partition =
  QCheck.Test.make ~count:200 ~name:"MST forest preserves the component partition"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = build (n, edge_list) in
      let forest =
        Graphkit.Mst.forest_graph g ~weight:(fun u v ->
            Stdlib.float_of_int ((u * 31) + v))
      in
      Graphkit.Traversal.same_partition g forest
      && U.nb_edges forest = n - Graphkit.Traversal.nb_components g)

(* Random asymmetric relations: empty rows, repeated ids and rows in
   arbitrary order, never a node listing itself. *)
let rows_gen =
  QCheck.Gen.(
    int_range 1 25 >>= fun n ->
    array_repeat n (list_size (int_range 0 8) (int_bound (n - 1))) >|= fun raw ->
    Array.mapi (fun u row -> List.filter (fun v -> v <> u) row) raw)

let print_rows rows =
  String.concat " | "
    (Array.to_list
       (Array.map (fun r -> String.concat "," (List.map string_of_int r)) rows))

let prop_closure_contains_core =
  QCheck.Test.make ~count:300
    ~name:
      "symmetric core is a subgraph of the closure, and both equal their \
       set definitions"
    (QCheck.make ~print:print_rows rows_gen)
    (fun rows ->
      let n = Array.length rows in
      let listed u v = List.mem v rows.(u) in
      let pairs keep =
        List.concat
          (List.init n (fun u ->
               List.filter_map
                 (fun v -> if keep u v then Some (u, v) else None)
                 (List.init (n - u - 1) (fun i -> u + 1 + i))))
      in
      let d = of_rows rows in
      let closure = Cbtc.Discovery.closure d and core = Cbtc.Discovery.core d in
      let is reference g =
        U.edges g = reference && U.nb_edges g = List.length reference
      in
      is (pairs (fun u v -> listed u v || listed v u)) closure
      && is (pairs (fun u v -> listed u v && listed v u)) core
      && U.is_subgraph core closure)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "graphkit"
    [
      ( "ugraph",
        [
          Alcotest.test_case "basic" `Quick test_ugraph_basic;
          Alcotest.test_case "edge listing" `Quick test_ugraph_edges_listing;
          Alcotest.test_case "errors" `Quick test_ugraph_errors;
          Alcotest.test_case "subgraph and copy" `Quick test_ugraph_subgraph_copy;
        ] );
      ("digraph", [ Alcotest.test_case "closure vs core" `Quick test_closure_vs_core ]);
      ("unionfind", [ Alcotest.test_case "basic" `Quick test_unionfind ]);
      ( "traversal",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "same partition" `Quick test_same_partition;
          Alcotest.test_case "hop distances" `Quick test_hop_distances;
        ] );
      ("fheap", [ Alcotest.test_case "heap sorts" `Quick test_fheap_sorts ]);
      ( "shortest",
        [
          Alcotest.test_case "line graph" `Quick test_dijkstra_line;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "negative cost rejected" `Quick
            test_dijkstra_negative_cost_rejected;
        ] );
      ( "mst",
        [
          Alcotest.test_case "triangle" `Quick test_mst_triangle;
          Alcotest.test_case "forest per component" `Quick
            test_mst_forest_per_component;
        ] );
      ( "biconnect",
        [
          Alcotest.test_case "articulation points" `Quick test_articulation_points;
          Alcotest.test_case "bridges" `Quick test_bridges;
          Alcotest.test_case "is biconnected" `Quick test_is_biconnected;
        ] );
      ( "kconn",
        [
          Alcotest.test_case "k connectivity" `Quick test_k_connectivity;
          Alcotest.test_case "survives removal" `Quick test_survives_removal;
        ] );
      ( "properties",
        qsuite
          [
            prop_components_match_unionfind;
            prop_dijkstra_unit_weights_is_bfs;
            prop_mst_preserves_partition;
            prop_closure_contains_core;
          ] );
    ]
