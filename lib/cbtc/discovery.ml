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

let pack ~config ~pathloss ~positions ~power ~boundary rows =
  let n = Array.length rows in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + List.length rows.(u)
  done;
  let ids = Array.make off.(n) 0 in
  let dirs = Array.make off.(n) 0. in
  let links = Array.make off.(n) 0. in
  let tags = Array.make off.(n) 0. in
  Array.iteri
    (fun u row ->
      List.iteri
        (fun r (nb : Neighbor.t) ->
          let i = off.(u) + r in
          ids.(i) <- nb.id;
          dirs.(i) <- nb.dir;
          links.(i) <- nb.link_power;
          tags.(i) <- nb.tag)
        row)
    rows;
  { config; pathloss; positions; off; ids; dirs; links; tags; power; boundary }

let nb_nodes t = Array.length t.positions

let degree t u = t.off.(u + 1) - t.off.(u)

let iter_neighbors t u f =
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f ~id:t.ids.(i) ~dir:t.dirs.(i) ~link_power:t.links.(i) ~tag:t.tags.(i)
  done

let neighbor_ids t u =
  List.sort Int.compare (Array.to_list (Array.sub t.ids t.off.(u) (degree t u)))

type topology = { off : int array; adj : int array; d2 : float array }

(* Every kept slot u -> v goes into row u as code 2v (u lists v) and
   into row v as code 2u+1 (u lists v, seen from v).  Sorted, a row's
   codes group by neighbor id: the closure keeps v when either code is
   there, the core when both are.  Repeated ids collapse. *)
let topology ~both (s : t) ~cut =
  let n = nb_nodes s in
  let start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    for i = s.off.(u) to cut.(u) - 1 do
      let v = s.ids.(i) in
      if v = u || v < 0 || v >= n then
        invalid_arg "Discovery.topology: a row lists its own node or a bad id";
      start.(u + 1) <- start.(u + 1) + 1;
      start.(v + 1) <- start.(v + 1) + 1
    done
  done;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let codes = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  for u = 0 to n - 1 do
    for i = s.off.(u) to cut.(u) - 1 do
      let v = s.ids.(i) in
      codes.(fill.(u)) <- 2 * v;
      fill.(u) <- fill.(u) + 1;
      codes.(fill.(v)) <- (2 * u) + 1;
      fill.(v) <- fill.(v) + 1
    done
  done;
  (* sort each row (rows are short: insertion sort) and compact the
     kept ids in place; the write index never passes the read index *)
  let off = Array.make (n + 1) 0 in
  let w = ref 0 in
  for u = 0 to n - 1 do
    let lo = start.(u) and hi = start.(u + 1) in
    for i = lo + 1 to hi - 1 do
      let x = codes.(i) in
      let j = ref (i - 1) in
      while !j >= lo && codes.(!j) > x do
        codes.(!j + 1) <- codes.(!j);
        decr j
      done;
      codes.(!j + 1) <- x
    done;
    let i = ref lo in
    while !i < hi do
      let v = codes.(!i) lsr 1 in
      let sides = ref 0 in
      while !i < hi && codes.(!i) lsr 1 = v do
        sides := !sides lor (1 lsl (codes.(!i) land 1));
        incr i
      done;
      if (not both) || !sides = 3 then begin
        codes.(!w) <- v;
        incr w
      end
    done;
    off.(u + 1) <- !w
  done;
  (* [Geom.Vec2.dist2], spelled inline so no float is boxed *)
  let d2 = Array.make !w 0. in
  for u = 0 to n - 1 do
    let pu : Geom.Vec2.t = s.positions.(u) in
    for a = off.(u) to off.(u + 1) - 1 do
      let pv : Geom.Vec2.t = s.positions.(codes.(a)) in
      let dx = pv.x -. pu.x and dy = pv.y -. pu.y in
      d2.(a) <- (dx *. dx) +. (dy *. dy)
    done
  done;
  { off; adj = codes; d2 }

let graph (tp : topology) =
  let n = Array.length tp.off - 1 in
  let g = Graphkit.Ugraph.create n in
  for u = 0 to n - 1 do
    for a = tp.off.(u) to tp.off.(u + 1) - 1 do
      if tp.adj.(a) > u then Graphkit.Ugraph.add_edge g u tp.adj.(a)
    done
  done;
  g

let whole_rows (t : t) = Array.sub t.off 1 (nb_nodes t)

let closure t = graph (topology ~both:false t ~cut:(whole_rows t))

let core t = graph (topology ~both:true t ~cut:(whole_rows t))

let radius_in t g =
  Array.mapi
    (fun u pos_u ->
      Graphkit.Ugraph.fold_neighbors g u ~init:0. ~f:(fun acc v ->
          Float.max acc (Geom.Vec2.dist pos_u t.positions.(v))))
    t.positions

let reach_power_in t g =
  Array.map
    (fun r -> if r = 0. then 0. else Radio.Pathloss.power_for_distance t.pathloss r)
    (radius_in t g)

let out_radius (t : t) =
  Array.mapi
    (fun u pos_u ->
      let r = ref 0. in
      for i = t.off.(u) to t.off.(u + 1) - 1 do
        r := Float.max !r (Geom.Vec2.dist pos_u t.positions.(t.ids.(i)))
      done;
      !r)
    t.positions

let has_gap (t : t) u =
  Geom.Dirset.has_gap ~alpha:t.config.Config.alpha
    (List.init (degree t u) (fun r -> t.dirs.(t.off.(u) + r)))

let check_invariants (t : t) =
  let n = nb_nodes t in
  let max_power = Radio.Pathloss.max_power t.pathloss in
  let fail fmt = Fmt.kstr failwith fmt in
  if Array.length t.power <> n || Array.length t.boundary <> n
     || Array.length t.off <> n + 1
  then fail "Discovery: array length mismatch";
  let slots = Array.length t.ids in
  if Array.length t.dirs <> slots || Array.length t.links <> slots
     || Array.length t.tags <> slots
  then fail "Discovery: row array length mismatch";
  if t.off.(0) <> 0 then fail "Discovery: off.(0) = %d, not 0" t.off.(0);
  for u = 0 to n - 1 do
    if t.off.(u + 1) < t.off.(u) then fail "Discovery: off decreases at node %d" u
  done;
  if t.off.(n) <> slots then
    fail "Discovery: off.(%d) = %d, not the slot count %d" n t.off.(n) slots;
  for u = 0 to n - 1 do
    for i = t.off.(u) + 1 to t.off.(u + 1) - 1 do
      if
        match Float.compare t.links.(i - 1) t.links.(i) with
        | 0 -> t.ids.(i - 1) > t.ids.(i)
        | c -> c > 0
      then fail "Discovery: node %d unsorted" u
    done;
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      if t.ids.(i) = u then fail "Discovery: node %d lists itself" u;
      if t.ids.(i) < 0 || t.ids.(i) >= n then fail "Discovery: node %d bad id" u
    done;
    if t.power.(u) <= 0. || t.power.(u) > max_power *. (1. +. 1e-9) then
      fail "Discovery: node %d power %g out of range" u t.power.(u);
    if t.boundary.(u) then begin
      if t.power.(u) < max_power *. (1. -. 1e-9) then
        fail "Discovery: boundary node %d below max power" u
    end
    else if has_gap t u then fail "Discovery: non-boundary node %d has a gap" u
  done
