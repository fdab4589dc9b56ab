let sort_directions dirs =
  List.sort_uniq Float.compare (List.map Angle.normalize dirs)

(* The gap wrapping from the largest of two or more distinct sorted
   directions, [last], back to the smallest, [first].  When the two lie
   within an ulp of each other that gap is nearly a full turn, which
   [Angle.normalize] inside [ccw_delta] rounds up to [two_pi] and maps
   to 0.  No other wrap reads 0, so 0 is read as [two_pi]; every other
   wrap keeps the [ccw_delta] bits. *)
let wrap_gap last first =
  let g = Angle.ccw_delta last first in
  if g = 0. then Angle.two_pi else g

let max_gap dirs =
  match sort_directions dirs with
  | [] | [ _ ] -> Angle.two_pi
  | first :: _ as sorted ->
      let rec widest acc = function
        | [] -> acc
        | [ last ] -> Float.max acc (wrap_gap last first)
        | a :: (b :: _ as rest) -> widest (Float.max acc (b -. a)) rest
      in
      widest 0. sorted

(* Theorem 2.1 requires a neighbor in every cone of degree alpha, so a
   gap of exactly alpha is already too wide: the open cone spanning it
   is empty.  The comparison is therefore >= (up to eps, on the
   conservative side: near-boundary gaps count as gaps and trigger
   growth rather than being waved through). *)
let has_gap ?(eps = 1e-9) ~alpha dirs = max_gap dirs >= alpha -. eps

(* Variant over an already sorted-unique prefix [dirs.(0..len-1)] of
   normalized directions in a float64 Bigarray — the storage the SoA
   discovery core maintains its direction set in, incrementally.  Same
   float operations as the list path above — consecutive [b -. a] plus
   the [wrap_gap] wrap — so the results are bit-identical. *)
let max_gap_ba (dirs : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) len =
  if len <= 1 then Angle.two_pi
  else begin
    let get = Bigarray.Array1.unsafe_get dirs in
    let best = ref (wrap_gap (get (len - 1)) (get 0)) in
    for i = 0 to len - 2 do
      let g = get (i + 1) -. get i in
      if g > !best then best := g
    done;
    !best
  end

let has_gap_ba ?(eps = 1e-9) ~alpha dirs len = max_gap_ba dirs len >= alpha -. eps

let cover ~alpha dirs = Arcset.of_directions ~alpha dirs

let covers_circle ?eps ~alpha dirs =
  match dirs with [] -> false | _ :: _ -> not (has_gap ?eps ~alpha dirs)
