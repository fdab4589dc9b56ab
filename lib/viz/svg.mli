(** Minimal SVG document builder — enough to render the paper's Figure 6
    topology panels without external dependencies. *)

type shape

val circle :
  ?fill:string -> ?stroke:string -> ?stroke_width:float ->
  cx:float -> cy:float -> r:float -> unit -> shape

val line :
  ?stroke:string -> ?stroke_width:float ->
  x1:float -> y1:float -> x2:float -> y2:float -> unit -> shape

val text :
  ?fill:string -> ?size:float -> x:float -> y:float -> string -> shape

val rect :
  ?fill:string -> ?stroke:string ->
  x:float -> y:float -> w:float -> h:float -> unit -> shape

(** [document ~width ~height shapes] is a complete standalone SVG. *)
val document : width:float -> height:float -> shape list -> string
