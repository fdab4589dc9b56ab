(* Tests for the SVG writer and the topology renderer. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_svg_document () =
  let doc =
    Viz.Svg.document ~width:100. ~height:50.
      [
        Viz.Svg.circle ~fill:"red" ~cx:10. ~cy:20. ~r:3. ();
        Viz.Svg.line ~stroke:"blue" ~stroke_width:0.5 ~x1:0. ~y1:0. ~x2:9. ~y2:9. ();
        Viz.Svg.text ~x:1. ~y:2. "hello";
        Viz.Svg.rect ~fill:"white" ~x:0. ~y:0. ~w:100. ~h:50. ();
      ]
  in
  Alcotest.(check bool) "svg root" true (contains doc "<svg xmlns=");
  Alcotest.(check bool) "closes" true (contains doc "</svg>");
  Alcotest.(check bool) "circle" true (contains doc "<circle cx=\"10\" cy=\"20\" r=\"3\" fill=\"red\"");
  Alcotest.(check bool) "line" true (contains doc "stroke=\"blue\"");
  Alcotest.(check bool) "text" true (contains doc ">hello</text>");
  Alcotest.(check bool) "rect" true (contains doc "<rect")

let test_svg_escaping () =
  let doc = Viz.Svg.document ~width:10. ~height:10. [ Viz.Svg.text ~x:0. ~y:0. "a<b&c>\"d\"" ] in
  Alcotest.(check bool) "escaped" true (contains doc "a&lt;b&amp;c&gt;&quot;d&quot;");
  Alcotest.(check bool) "no raw angle" false (contains doc ">a<b&")

let square_positions =
  [| Geom.Vec2.zero; Geom.Vec2.make 100. 0.; Geom.Vec2.make 0. 100.;
     Geom.Vec2.make 100. 100. |]

let square_graph = Graphkit.Ugraph.of_edges 4 [ (0, 1); (1, 3); (3, 2); (2, 0) ]

let count_occurrences s needle =
  let rec go i acc =
    if i + String.length needle > String.length s then acc
    else if String.sub s i (String.length needle) = needle then
      go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_topoviz_svg () =
  let doc =
    Viz.Topoviz.to_svg ~field_width:100. ~field_height:100. square_positions
      square_graph
  in
  Alcotest.(check int) "one circle per node" 4 (count_occurrences doc "<circle");
  Alcotest.(check int) "one line per edge" 4 (count_occurrences doc "<line");
  (* title and labels off by default *)
  Alcotest.(check int) "no text" 0 (count_occurrences doc "<text")

let test_topoviz_style () =
  let style = Viz.Topoviz.style ~show_labels:true ~title:"panel (a)" () in
  let doc =
    Viz.Topoviz.to_svg ~style ~field_width:100. ~field_height:100.
      square_positions square_graph
  in
  Alcotest.(check int) "labels + title" 5 (count_occurrences doc "<text");
  Alcotest.(check bool) "title text" true (contains doc "panel (a)")

let test_topoviz_write_file () =
  let path = Filename.temp_file "topoviz" ".svg" in
  Viz.Topoviz.write_svg path ~field_width:100. ~field_height:100.
    square_positions square_graph;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 200)

let test_ascii () =
  let art =
    Viz.Topoviz.to_ascii ~cols:20 ~rows:10 ~field_width:100. ~field_height:100.
      square_positions square_graph
  in
  let lines = String.split_on_char '\n' art in
  Alcotest.(check int) "rows (+ trailing)" 11 (List.length lines);
  Alcotest.(check int) "node markers" 4 (count_occurrences art "o");
  Alcotest.(check bool) "edges drawn" true (contains art ".")

let test_ascii_validation () =
  Alcotest.check_raises "tiny grid" (Invalid_argument "Topoviz.to_ascii: grid too small")
    (fun () ->
      ignore
        (Viz.Topoviz.to_ascii ~cols:1 ~rows:1 ~field_width:10. ~field_height:10.
           square_positions square_graph))

(* ---------- export ---------- *)

let test_dot_export () =
  let dot = Viz.Export.to_dot ~name:"g" square_positions square_graph in
  Alcotest.(check bool) "header" true (contains dot "graph g {");
  Alcotest.(check bool) "edge" true (contains dot "0 -- 1;");
  Alcotest.(check bool) "pos attr" true (contains dot "pos=");
  Alcotest.(check int) "4 edges" 4 (count_occurrences dot " -- ")

(* Reads to_csv's two sections back: "node,id,x,y" lines in id order,
   then "edge,u,v" lines. *)
let parse_csv s =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' s) in
  let nodes, edges =
    List.partition (fun l -> String.starts_with ~prefix:"node," l) lines
  in
  let positions =
    Array.of_list
      (List.mapi
         (fun i l -> Scanf.sscanf l "node,%d,%f,%f" (fun id x y ->
              Alcotest.(check int) "dense ids" i id;
              Geom.Vec2.make x y))
         nodes)
  in
  let g =
    Graphkit.Ugraph.of_edges (Array.length positions)
      (List.map (fun l -> Scanf.sscanf l "edge,%d,%d" (fun u v -> (u, v))) edges)
  in
  (positions, g)

let test_csv_roundtrip () =
  let csv = Viz.Export.to_csv square_positions square_graph in
  let positions, g = parse_csv csv in
  Alcotest.(check int) "nodes" 4 (Array.length positions);
  Alcotest.(check bool) "positions equal" true
    (Array.for_all2 (Geom.Vec2.equal ~eps:0.) square_positions positions);
  Alcotest.(check bool) "graphs equal" true (Graphkit.Ugraph.equal square_graph g)

let test_export_files () =
  let dot = Filename.temp_file "topo" ".dot" in
  let csv = Filename.temp_file "topo" ".csv" in
  Viz.Export.write_dot dot square_positions square_graph;
  Viz.Export.write_csv csv square_positions square_graph;
  let size p =
    let ic = open_in p in
    let l = in_channel_length ic in
    close_in ic;
    Sys.remove p;
    l
  in
  Alcotest.(check bool) "dot non-empty" true (size dot > 50);
  Alcotest.(check bool) "csv non-empty" true (size csv > 50)

let () =
  Alcotest.run "viz"
    [
      ( "svg",
        [
          Alcotest.test_case "document" `Quick test_svg_document;
          Alcotest.test_case "escaping" `Quick test_svg_escaping;
        ] );
      ( "export",
        [
          Alcotest.test_case "dot" `Quick test_dot_export;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "file writers" `Quick test_export_files;
        ] );
      ( "topoviz",
        [
          Alcotest.test_case "svg rendering" `Quick test_topoviz_svg;
          Alcotest.test_case "style options" `Quick test_topoviz_style;
          Alcotest.test_case "write file" `Quick test_topoviz_write_file;
          Alcotest.test_case "ascii" `Quick test_ascii;
          Alcotest.test_case "ascii validation" `Quick test_ascii_validation;
        ] );
    ]
