type t = { levels : float array }

let create ~n ~capacity =
  if capacity <= 0. then invalid_arg "Battery.create: non-positive capacity";
  if n < 0 then invalid_arg "Battery.create: negative n";
  { levels = Array.make n capacity }

let of_levels levels =
  Array.iter
    (fun l -> if l < 0. then invalid_arg "Battery.of_levels: negative level")
    levels;
  { levels = Array.copy levels }

let nb_nodes t = Array.length t.levels

let check t u =
  if u < 0 || u >= nb_nodes t then invalid_arg "Battery: node out of range"

let level t u =
  check t u;
  t.levels.(u)

let is_alive t u = level t u > 0.

let nb_alive t =
  Array.fold_left (fun acc l -> if l > 0. then acc + 1 else acc) 0 t.levels

let alive_mask t = Array.map (fun l -> l > 0.) t.levels

let drain t u amount =
  check t u;
  if amount < 0. then invalid_arg "Battery.drain: negative amount";
  if t.levels.(u) <= 0. then false
  else begin
    t.levels.(u) <- Float.max 0. (t.levels.(u) -. amount);
    t.levels.(u) > 0.
  end
