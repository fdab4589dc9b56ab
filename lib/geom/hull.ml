(* Andrew's monotone chain over an index array. *)

let cross_of positions o a b =
  Vec2.cross (Vec2.sub positions.(a) positions.(o)) (Vec2.sub positions.(b) positions.(o))

let hull_indices positions =
  let n = Array.length positions in
  if n = 0 then []
  else begin
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        Stdlib.compare
          (positions.(a).Vec2.x, positions.(a).Vec2.y)
          (positions.(b).Vec2.x, positions.(b).Vec2.y))
      order;
    (* drop duplicate points *)
    let distinct =
      Array.to_list order
      |> List.fold_left
           (fun acc i ->
             match acc with
             | j :: _ when Vec2.equal ~eps:0. positions.(i) positions.(j) -> acc
             | _ -> i :: acc)
           []
      |> List.rev
    in
    match distinct with
    | [] | [ _ ] | [ _; _ ] -> distinct
    | _ ->
        let half direction =
          List.fold_left
            (fun acc p ->
              let rec pop = function
                | a :: (b :: _ as rest)
                  when direction *. cross_of positions b a p <= 0. ->
                    pop rest
                | acc -> acc
              in
              p :: pop acc)
            [] distinct
          |> List.rev
        in
        let lower = half 1. in
        let upper = half (-1.) in
        (* each half includes both endpoints; drop the last of each *)
        let trim l = List.filteri (fun i _ -> i < List.length l - 1) l in
        trim lower @ trim (List.rev upper)
  end
