(* The guarantees are stated against the realized reachability graph
   G_R^env: range, reach and minimality are all judged by the env's
   per-link power.  An absent [env] is the trivial one, whose link power
   is the pure distance-monotone pathloss, bit for bit. *)
let check ?(obs = Obs.Recorder.nil) ?(complete = false) ?(minimal = false)
    ?env ~alive (d : Discovery.t) =
  Obs.Recorder.span obs "verify" @@ fun () ->
  let n = Discovery.nb_nodes d in
  let alpha = d.config.Config.alpha in
  let pathloss = d.pathloss in
  let env = Radio.Env.resolve ?env pathloss in
  let in_range_uv ~u ~v ~dist =
    Radio.Env.in_range env ~u ~v ~pu:d.positions.(u) ~pv:d.positions.(v) ~dist
  in
  let reaches_uv ~power ~u ~v ~dist =
    Radio.Env.reaches env ~power ~u ~v ~pu:d.positions.(u) ~pv:d.positions.(v)
      ~dist
  in
  let link_power_uv ~u ~v ~dist =
    Radio.Env.link_power env ~u ~v ~pu:d.positions.(u) ~pv:d.positions.(v)
      ~dist
  in
  let max_power = Radio.Pathloss.max_power pathloss in
  let fail fmt = Fmt.kstr failwith fmt in
  let eps = 1e-9 in
  for u = 0 to n - 1 do
    if alive u then begin
      let pos_u = d.positions.(u) in
      let power = d.power.(u) in
      let true_dir (nb : Neighbor.t) =
        Geom.Vec2.direction ~from:pos_u ~toward:d.positions.(nb.id)
      in
      List.iter
        (fun (nb : Neighbor.t) ->
          if not (alive nb.id) then
            fail "Verify: surviving node %d lists crashed neighbor %d" u nb.id;
          let dist = Geom.Vec2.dist pos_u d.positions.(nb.id) in
          if not (in_range_uv ~u ~v:nb.id ~dist) then
            fail "Verify: node %d lists out-of-range neighbor %d (d=%g)" u
              nb.id dist;
          if not (reaches_uv ~power ~u ~v:nb.id ~dist) then
            fail "Verify: node %d cannot reach neighbor %d at power %g" u
              nb.id power;
          if nb.tag > power *. (1. +. eps) +. eps then
            fail "Verify: node %d neighbor %d tagged %g above power %g" u
              nb.id nb.tag power)
        d.neighbors.(u);
      let dirs = List.map true_dir d.neighbors.(u) in
      if d.boundary.(u) then begin
        if power < max_power *. (1. -. 1e-9) then
          fail "Verify: boundary node %d converged below max power (%g < %g)" u
            power max_power
      end
      else if Geom.Dirset.has_gap ~alpha dirs then
        fail "Verify: non-boundary node %d has a true geometric %g-gap" u alpha;
      if complete then
        for v = 0 to n - 1 do
          if
            v <> u && alive v
            && reaches_uv ~power ~u ~v
                 ~dist:(Geom.Vec2.dist pos_u d.positions.(v))
            && not
                 (List.exists
                    (fun (nb : Neighbor.t) -> nb.id = v)
                    d.neighbors.(u))
          then
            fail "Verify: node %d should have discovered reachable node %d" u v
        done;
      if minimal && not d.boundary.(u) then begin
        (* Exact growth: the strictly-closer prefix must still have a gap,
           otherwise the node could have stopped earlier. *)
        let strictly_below =
          List.filter
            (fun (nb : Neighbor.t) ->
              link_power_uv ~u ~v:nb.id
                ~dist:(Geom.Vec2.dist pos_u d.positions.(nb.id))
              < power *. (1. -. 1e-12))
            d.neighbors.(u)
        in
        if
          List.length strictly_below < List.length d.neighbors.(u)
          && not
               (Geom.Dirset.has_gap ~alpha (List.map true_dir strictly_below))
        then fail "Verify: node %d converged above the minimal power" u
      end
    end
  done

let run ?obs ?complete ?minimal ?env (d : Discovery.t) =
  check ?obs ?complete ?minimal ?env ~alive:(fun _ -> true) d

let surviving ?complete ?env ~alive (d : Discovery.t) =
  if Array.length alive <> Discovery.nb_nodes d then
    invalid_arg "Verify.surviving: alive array size mismatch";
  check ?complete ~minimal:false ?env ~alive:(fun u -> alive.(u)) d

type degradation = {
  survivors : int;
  crashed : int;
  residual_gap_nodes : int list;
  boundary_survivors : int;
  connectivity_preserved : bool;
  delivery_ratio : float;
  extra_rounds : int;
}

let degradation ?reference ?env (o : Distributed.outcome) =
  let d = o.Distributed.discovery in
  let alive = o.Distributed.alive in
  let n = Discovery.nb_nodes d in
  let alpha = d.config.Config.alpha in
  let survivors = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive in
  let residual_gap_nodes = ref [] in
  for u = n - 1 downto 0 do
    if alive.(u) && not d.boundary.(u) then begin
      let dirs =
        List.map
          (fun (nb : Neighbor.t) ->
            Geom.Vec2.direction ~from:d.positions.(u)
              ~toward:d.positions.(nb.id))
          d.neighbors.(u)
      in
      if Geom.Dirset.has_gap ~alpha dirs then
        residual_gap_nodes := u :: !residual_gap_nodes
    end
  done;
  let boundary_survivors = ref 0 in
  Array.iteri
    (fun u a -> if a && d.boundary.(u) then incr boundary_survivors)
    alive;
  (* components of the symmetric closure among survivors: uniting u with
     every listed neighbor covers both directions of each closure edge *)
  let closure = Graphkit.Unionfind.create n in
  for u = 0 to n - 1 do
    if alive.(u) then
      List.iter
        (fun (nb : Neighbor.t) ->
          if alive.(nb.id) then
            ignore (Graphkit.Unionfind.union closure u nb.id : bool))
        d.neighbors.(u)
  done;
  (* the fair post-fault baseline is the survivors' G_R partition: edges
     through crashed nodes are gone for any algorithm.  Both number
     components by smallest member with dead nodes as singletons, so
     equal partitions are equal arrays *)
  let connectivity_preserved =
    Geo.max_power_partition ?env ~alive d.pathloss d.positions
    = Graphkit.Unionfind.labels closure
  in
  let s = o.Distributed.stats in
  let attempted = s.Distributed.deliveries + s.Distributed.drops in
  let delivery_ratio =
    if attempted = 0 then 1.
    else Stdlib.float_of_int s.Distributed.deliveries /. Stdlib.float_of_int attempted
  in
  let extra_rounds =
    match reference with
    | None -> 0
    | Some r ->
        Stdlib.max 0
          (s.Distributed.max_rounds - r.Distributed.stats.Distributed.max_rounds)
  in
  {
    survivors;
    crashed = n - survivors;
    residual_gap_nodes = !residual_gap_nodes;
    boundary_survivors = !boundary_survivors;
    connectivity_preserved;
    delivery_ratio;
    extra_rounds;
  }

(* ------------------------------------------------------------------ *)
(* Invariant adapters for the schedule-exploration harness.  They turn
   the exception-raising verifiers into [result]s so Check.Explore can
   aggregate failures across thousands of trials without unwinding. *)

let guard f =
  match f () with
  | () -> Ok ()
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let check_guarantees ?complete ?env (o : Distributed.outcome) =
  guard (fun () ->
      surviving ?complete ?env ~alive:o.Distributed.alive
        o.Distributed.discovery)

(* Same guarantees check, but on a bare (alive mask, discovery snapshot)
   pair: the adapter the topology daemon's continuous verification calls
   between event batches, where there is no Distributed.outcome. *)
let check_surviving ?complete ?env ~alive (d : Discovery.t) =
  guard (fun () -> surviving ?complete ?env ~alive d)

let discovery_equal ~oracle (d : Discovery.t) =
  let ids nbs =
    List.map (fun (nb : Neighbor.t) -> nb.id) nbs |> List.sort Int.compare
  in
  (* no break hints: these messages must stay single-line (they are
     embedded in one-line JSON replay artifacts) *)
  let pp_ids = Fmt.(list ~sep:(any ", ") int) in
  let n = Discovery.nb_nodes oracle in
  if n <> Discovery.nb_nodes d then
    Error
      (Fmt.str "node counts differ: oracle %d vs %d" n (Discovery.nb_nodes d))
  else begin
    let err = ref None in
    let fail u msg = if !err = None then err := Some (u, msg) in
    for u = 0 to n - 1 do
      let a = ids oracle.Discovery.neighbors.(u)
      and b = ids d.Discovery.neighbors.(u) in
      if a <> b then
        fail u (Fmt.str "N differs: oracle {%a} vs {%a}" pp_ids a pp_ids b);
      if Float.abs (oracle.Discovery.power.(u) -. d.Discovery.power.(u)) > 1e-6
      then
        fail u
          (Fmt.str "power differs: oracle %g vs %g" oracle.Discovery.power.(u)
             d.Discovery.power.(u));
      if oracle.Discovery.boundary.(u) <> d.Discovery.boundary.(u) then
        fail u
          (Fmt.str "boundary differs: oracle %b vs %b"
             oracle.Discovery.boundary.(u) d.Discovery.boundary.(u))
    done;
    match !err with
    | None -> Ok ()
    | Some (u, msg) -> Error (Fmt.str "node %d: %s" u msg)
  end

let check_oracle ~oracle (o : Distributed.outcome) =
  discovery_equal ~oracle o.Distributed.discovery
