(* Shared QCheck generators for the randomized suites: placements
   (test_theory, test_distributed, test_schedule) and non-trivial
   propagation environments (test_env, test_csr, test_grid).

   The generator draws 2..35 uniform points on a 400 x 400 field; the
   shrinker deletes nodes — contiguous chunks first, then singles — so a
   failing property reports a (near-)minimal placement instead of the
   full random one.  Node count never shrinks below 2 (the smallest
   network with any topology to control). *)

let positions_gen =
  QCheck.Gen.(
    int_range 2 35 >>= fun n ->
    list_repeat n
      (pair (float_bound_exclusive 400.) (float_bound_exclusive 400.))
    >|= fun pts ->
    Array.of_list (List.map (fun (x, y) -> Geom.Vec2.make x y) pts))

(* QCheck 'a Shrink.t is 'a -> 'a Iter.t: call [yield] on each smaller
   candidate, largest deletions first so the search descends fast. *)
let positions_shrink a yield =
  let n = Array.length a in
  let drop lo len =
    Array.init (n - len) (fun i -> if i < lo then a.(i) else a.(i + len))
  in
  let len = ref (n / 2) in
  while !len >= 1 do
    if n - !len >= 2 then begin
      let lo = ref 0 in
      while !lo + !len <= n do
        yield (drop !lo !len);
        lo := !lo + !len
      done
    end;
    len := !len / 2
  done

let positions_print a =
  Fmt.str "@[<v>%d nodes:@,%a@]" (Array.length a)
    Fmt.(
      list ~sep:cut (fun ppf (i, p) ->
          Fmt.pf ppf "  %d: (%.2f, %.2f)" i p.Geom.Vec2.x p.Geom.Vec2.y))
    (Array.to_list (Array.mapi (fun i p -> (i, p)) a))

let positions_arb =
  QCheck.make ~shrink:positions_shrink ~print:positions_print positions_gen

(* A non-trivial environment over a 300x300 test field, on a pathloss
   of range [max_range] with a drawn exponent (2..4) and coefficient:
   shadowing with a drawn clamp (the 3-sigma default, none, or any value
   below it), a couple of obstacle discs, and height loss, all derived
   from one seed so properties shrink well.  Callers run the code under
   test on [Radio.Env.pathloss env].  The drawn exponent, coefficient
   and clamp are what the fast-reject table of [Radio.Env.link_into] is
   built from, so the grid = spec properties cover it across them. *)
let env_gen ~max_range n =
  QCheck.Gen.(
    triple (float_range 2. 4.) (float_range 0.1 10.) (float_range 0.05 10.)
    >>= fun (exponent, coeff, sigma) ->
    oneof
      [
        return None;
        return (Some 0.);
        map Option.some (float_bound_exclusive (3. *. sigma));
      ]
    >>= fun clamp_db ->
    pair (int_range 0 1000) (int_range 0 3) >>= fun (shadow_seed, nobs) ->
    list_repeat nobs
      (triple
         (pair (float_bound_exclusive 300.) (float_bound_exclusive 300.))
         (float_range 5. 60.) (float_range 0.5 10.))
    >>= fun obs ->
    list_repeat n (float_bound_exclusive 30.) >|= fun heights ->
    let obstacles =
      Array.of_list
        (List.map
           (fun ((x, y), radius, loss_db) ->
             Radio.Env.obstacle ~center:(Geom.Vec2.make x y) ~radius ~loss_db)
           obs)
    in
    Radio.Env.make ~sigma_db:sigma ~shadow_seed ?clamp_db ~obstacles
      ~heights:(Array.of_list heights) ~height_loss_db:0.5
      (Radio.Pathloss.make ~exponent ~coeff ~max_range ()))
