type t = { id : int; dir : float; link_power : float; tag : float }

let make ~id ~dir ~link_power ~tag =
  if link_power < 0. then invalid_arg "Neighbor.make: negative link power";
  { id; dir = Geom.Angle.normalize dir; link_power; tag }

let compare_by_link_power a b =
  match Float.compare a.link_power b.link_power with
  | 0 -> Int.compare a.id b.id
  | c -> c

let compare_by_tag a b =
  match Float.compare a.tag b.tag with
  | 0 -> compare_by_link_power a b
  | c -> c

let directions neighbors = List.map (fun n -> n.dir) neighbors
