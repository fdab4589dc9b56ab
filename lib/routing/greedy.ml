type result =
  | Delivered of int list
  | Stuck of { at : int; path : int list }

let route g positions ~src ~dst =
  let n = Graphkit.Ugraph.nb_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Greedy.route: node out of range";
  let dist_to_dst u = Geom.Vec2.dist positions.(u) positions.(dst) in
  let rec walk u acc =
    if u = dst then Delivered (List.rev (dst :: acc))
    else begin
      let du = dist_to_dst u in
      let next =
        Graphkit.Ugraph.fold_neighbors g u ~init:None ~f:(fun best v ->
            let dv = dist_to_dst v in
            match best with
            | Some (bd, _) when bd <= dv -> best
            | _ -> if dv < du then Some (dv, v) else best)
      in
      match next with
      | Some (_, v) -> walk v (u :: acc)
      | None -> Stuck { at = u; path = List.rev (u :: acc) }
    end
  in
  walk src []

type stats = {
  attempts : int;
  delivered : int;
  avg_hops : float;
  avg_length_ratio : float;
}

let path_length positions path =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        go (acc +. Geom.Vec2.dist positions.(a) positions.(b)) rest
    | [ _ ] | [] -> acc
  in
  go 0. path

let evaluate g positions ~pairs =
  let attempts = List.length pairs in
  let delivered = ref 0 in
  let hops = ref 0 in
  let ratio_sum = ref 0. in
  List.iter
    (fun (src, dst) ->
      match route g positions ~src ~dst with
      | Delivered path ->
          incr delivered;
          hops := !hops + List.length path - 1;
          let direct = Geom.Vec2.dist positions.(src) positions.(dst) in
          if direct > 0. then
            ratio_sum := !ratio_sum +. (path_length positions path /. direct)
      | Stuck _ -> ())
    pairs;
  {
    attempts;
    delivered = !delivered;
    avg_hops =
      (if !delivered = 0 then 0.
       else Stdlib.float_of_int !hops /. Stdlib.float_of_int !delivered);
    avg_length_ratio =
      (if !delivered = 0 then 0.
       else !ratio_sum /. Stdlib.float_of_int !delivered);
  }

let random_pairs prng ~n ~count =
  if n < 2 then invalid_arg "Greedy.random_pairs: need at least two nodes";
  List.init count (fun _ ->
      let src = Prng.int prng n in
      let rec draw () =
        let dst = Prng.int prng n in
        if dst = src then draw () else dst
      in
      (src, draw ()))
