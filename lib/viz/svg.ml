type shape = string

let attr name value = Fmt.str " %s=\"%s\"" name value

let fattr name value = Fmt.str " %s=\"%g\"" name value

let opt_attr name = function None -> "" | Some v -> attr name v

let opt_fattr name = function None -> "" | Some v -> fattr name v

let circle ?fill ?stroke ?stroke_width ~cx ~cy ~r () =
  Fmt.str "<circle%s%s%s%s%s%s/>" (fattr "cx" cx) (fattr "cy" cy) (fattr "r" r)
    (opt_attr "fill" fill) (opt_attr "stroke" stroke)
    (opt_fattr "stroke-width" stroke_width)

let line ?stroke ?stroke_width ~x1 ~y1 ~x2 ~y2 () =
  Fmt.str "<line%s%s%s%s%s%s/>" (fattr "x1" x1) (fattr "y1" y1) (fattr "x2" x2)
    (fattr "y2" y2)
    (opt_attr "stroke" stroke)
    (opt_fattr "stroke-width" stroke_width)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let text ?fill ?size ~x ~y s =
  Fmt.str "<text%s%s%s%s>%s</text>" (fattr "x" x) (fattr "y" y)
    (opt_attr "fill" fill)
    (opt_fattr "font-size" size)
    (escape s)

let rect ?fill ?stroke ~x ~y ~w ~h () =
  Fmt.str "<rect%s%s%s%s%s%s/>" (fattr "x" x) (fattr "y" y) (fattr "width" w)
    (fattr "height" h) (opt_attr "fill" fill) (opt_attr "stroke" stroke)

let document ~width ~height shapes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Fmt.str
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%g\" height=\"%g\" \
        viewBox=\"0 0 %g %g\">\n"
       width height width height);
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    shapes;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
