type arc = { start : float; len : float }

(* Internal form: [Full], or a sorted list of disjoint closed intervals
   [(s, e)] with [0 <= s < e <= 2pi].  Arcs crossing the 0/2pi seam are
   always split there, which makes the representation canonical. *)
type t = Full | Ivals of (float * float) list

let two_pi = Geom.Angle.two_pi

let merge_eps = 1e-9

let empty = Ivals []

let full = Full

let is_full = function Full -> true | Ivals _ -> false

(* Split one arc into seam-free intervals. *)
let split_arc { start; len } =
  if len < 0. then invalid_arg "Arcset: negative arc length";
  if len = 0. then []
  else
    let s = Geom.Angle.normalize start in
    let e = s +. len in
    if e <= two_pi then [ (s, e) ] else [ (s, two_pi); (0., e -. two_pi) ]

let merge_sorted ivals =
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
        match acc with
        | (s0, e0) :: acc' when s <= e0 +. merge_eps ->
            go ((s0, Float.max e0 e) :: acc') rest
        | _ -> go ((s, e) :: acc) rest)
  in
  go [] ivals

let canonicalize ivals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) ivals in
  match merge_sorted sorted with
  | [ (s, e) ] when s <= merge_eps && e >= two_pi -. merge_eps -> Full
  | merged -> Ivals merged

let of_arcs arc_list =
  if List.exists (fun a -> a.len >= two_pi) arc_list then Full
  else canonicalize (List.concat_map split_arc arc_list)

let of_directions ~alpha dirs =
  if alpha < 0. then invalid_arg "Arcset.of_directions: negative alpha";
  let half = alpha /. 2. in
  of_arcs (List.map (fun d -> { start = d -. half; len = alpha }) dirs)

let arcs = function
  | Full -> [ { start = 0.; len = two_pi } ]
  | Ivals ivals -> List.map (fun (s, e) -> { start = s; len = e -. s }) ivals

let add t arc =
  match t with Full -> Full | Ivals _ -> of_arcs (arc :: arcs t)

let total_length = function
  | Full -> two_pi
  | Ivals ivals -> List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0. ivals

let contains_angle ?(eps = 1e-9) t theta =
  match t with
  | Full -> true
  | Ivals ivals ->
      let th = Geom.Angle.normalize theta in
      let inside (s, e) =
        (s -. eps <= th && th <= e +. eps)
        || (s -. eps <= th +. two_pi && th +. two_pi <= e +. eps)
      in
      List.exists inside ivals

let piece_inside ~eps ivals (qs, qe) =
  List.exists (fun (s, e) -> s -. eps <= qs && qe <= e +. eps) ivals

let contains_arc ?(eps = 1e-9) t arc =
  match t with
  | Full -> true
  | Ivals ivals ->
      if arc.len = 0. then contains_angle ~eps t arc.start
      else if arc.len >= two_pi then false
      else List.for_all (piece_inside ~eps ivals) (split_arc arc)

(* [u]'s own intervals, not [arcs u]: rebuilding an interval (s, e) as
   s +. (e -. s) can move its end by an ulp, which decides a comparison
   that sits exactly on the 1e-9 boundary. *)
let subsumes ?(eps = 1e-9) t u =
  match (t, u) with
  | _, Full -> is_full t
  | Full, Ivals _ -> true
  | Ivals ti, Ivals ui -> List.for_all (piece_inside ~eps ti) ui

let equal ?eps a b = subsumes ?eps a b && subsumes ?eps b a
