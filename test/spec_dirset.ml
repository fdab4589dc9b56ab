(* The direction-set operations the library no longer needs, kept as
   oracles: the paper's coverage operator over Arcset, and the full
   rescan of a sorted-unique float64 Bigarray prefix that the flat
   kernel's incremental gap count (Cbtc.Geo.gap_trace) replaced. *)

let cover ~alpha dirs = Arcset.of_directions ~alpha dirs

let covers_circle ?eps ~alpha dirs =
  match dirs with
  | [] -> false
  | _ :: _ -> not (Geom.Dirset.has_gap ?eps ~alpha dirs)

(* Dirset's wrap gap: [Angle.ccw_delta last first], read as two_pi when
   an ulp-apart pair rounds it to 0. *)
let wrap_gap last first =
  let g = Geom.Angle.ccw_delta last first in
  if g = 0. then Geom.Angle.two_pi else g

let max_gap_ba
    (dirs : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    len =
  if len <= 1 then Geom.Angle.two_pi
  else begin
    let get = Bigarray.Array1.get dirs in
    let best = ref (wrap_gap (get (len - 1)) (get 0)) in
    for i = 0 to len - 2 do
      let g = get (i + 1) -. get i in
      if g > !best then best := g
    done;
    !best
  end

let has_gap_ba ?(eps = 1e-9) ~alpha dirs len =
  max_gap_ba dirs len >= alpha -. eps
