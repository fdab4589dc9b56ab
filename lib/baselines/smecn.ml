let smecn ?env (energy : Radio.Energy.t) positions =
  let env = Radio.Env.resolve ?env energy.Radio.Energy.pathloss in
  let n = Array.length positions in
  let cost u v =
    Radio.Energy.link_cost energy (Geom.Vec2.dist positions.(u) positions.(v))
  in
  let g = Graphkit.Ugraph.create n in
  (* [link_into]'s one-slot lane: the stored link power is unused *)
  let lane = Radio.Env.lane_create 1 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if
        Radio.Env.link_into env ~u ~v ~pu:positions.(u) ~pv:positions.(v)
          lane 0
      then begin
        let direct = cost u v in
        let blocked = ref false in
        for w = 0 to n - 1 do
          if (not !blocked) && w <> u && w <> v
             && cost u w +. cost w v < direct
          then blocked := true
        done;
        if not !blocked then Graphkit.Ugraph.add_edge g u v
      end
    done
  done;
  g
