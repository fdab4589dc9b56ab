type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  positions : Geom.Vec2.t array;
  off : int array;
  ids : int array;
  dirs : float array;
  links : float array;
  tags : float array;
  power : float array;
  boundary : bool array;
}

let nb_nodes t = Array.length t.off - 1

let degree t u = t.off.(u + 1) - t.off.(u)

let iter_neighbors t u f =
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f ~id:t.ids.(i) ~dir:t.dirs.(i) ~link_power:t.links.(i) ~tag:t.tags.(i)
  done

let to_discovery t =
  let n = nb_nodes t in
  let neighbors =
    Array.init n (fun u ->
        let lo = t.off.(u) in
        let rec build i acc =
          if i < lo then acc
          else
            build (i - 1)
              ({
                 Neighbor.id = t.ids.(i);
                 dir = t.dirs.(i);
                 link_power = t.links.(i);
                 tag = t.tags.(i);
               }
              :: acc)
        in
        build (t.off.(u + 1) - 1) [])
  in
  {
    Discovery.config = t.config;
    pathloss = t.pathloss;
    positions = Array.copy t.positions;
    neighbors;
    power = Array.copy t.power;
    boundary = Array.copy t.boundary;
  }

let of_discovery (d : Discovery.t) =
  let n = Discovery.nb_nodes d in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + List.length d.neighbors.(u)
  done;
  let ids = Array.make off.(n) 0 in
  let dirs = Array.make off.(n) 0. in
  let links = Array.make off.(n) 0. in
  let tags = Array.make off.(n) 0. in
  for u = 0 to n - 1 do
    List.iteri
      (fun r (nb : Neighbor.t) ->
        let i = off.(u) + r in
        ids.(i) <- nb.id;
        dirs.(i) <- nb.dir;
        links.(i) <- nb.link_power;
        tags.(i) <- nb.tag)
      d.neighbors.(u)
  done;
  {
    config = d.config;
    pathloss = d.pathloss;
    positions = Array.copy d.positions;
    off;
    ids;
    dirs;
    links;
    tags;
    power = Array.copy d.power;
    boundary = Array.copy d.boundary;
  }
