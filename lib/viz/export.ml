let to_dot ?(name = "topology") positions g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Fmt.str "graph %s {\n  node [shape=point];\n" name);
  Array.iteri
    (fun u (p : Geom.Vec2.t) ->
      Buffer.add_string buf
        (Fmt.str "  %d [pos=\"%g,%g!\"];\n" u (p.Geom.Vec2.x /. 72.)
           (p.Geom.Vec2.y /. 72.)))
    positions;
  Graphkit.Ugraph.iter_edges
    (fun u v -> Buffer.add_string buf (Fmt.str "  %d -- %d;\n" u v))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_csv positions g =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun u (p : Geom.Vec2.t) ->
      Buffer.add_string buf
        (Fmt.str "node,%d,%.17g,%.17g\n" u p.Geom.Vec2.x p.Geom.Vec2.y))
    positions;
  Graphkit.Ugraph.iter_edges
    (fun u v -> Buffer.add_string buf (Fmt.str "edge,%d,%d\n" u v))
    g;
  Buffer.contents buf

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_dot path positions g = write_string path (to_dot positions g)

let write_csv path positions g = write_string path (to_csv positions g)
