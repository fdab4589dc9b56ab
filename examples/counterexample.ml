(* Walkthrough of the paper's two hand constructions:

   - Example 2.1 (Figure 2): for 2pi/3 < alpha <= 5pi/6, the discovered-
     neighbor relation N_alpha can be asymmetric, so G_alpha must take
     the symmetric closure.
   - Theorem 2.4 (Figure 5): for alpha = 5pi/6 + eps, CBTC can disconnect
     a connected network — the 5pi/6 threshold is tight.

   Run with: dune exec examples/counterexample.exe *)

let pr_dist positions names i j =
  Fmt.pr "    d(%s,%s) = %.1f@." names.(i) names.(j)
    (Geom.Vec2.dist positions.(i) positions.(j))

let () =
  Fmt.pr "--- Example 2.1: N_alpha asymmetry (alpha = 5pi/6) ---@.";
  let alpha = Geom.Angle.five_pi_six in
  let ex = Cbtc.Constructions.example_2_1 ~alpha () in
  let positions = ex.Cbtc.Constructions.positions in
  let names = [| "u0"; "u1"; "u2"; "u3"; "v" |] in
  Fmt.pr "  construction (R = %g, eps = %.4f):@." ex.Cbtc.Constructions.max_range
    ex.Cbtc.Constructions.epsilon;
  Array.iteri (fun i p -> Fmt.pr "    %s at %a@." names.(i) Geom.Vec2.pp p) positions;
  pr_dist positions names 0 4;
  pr_dist positions names 0 1;
  pr_dist positions names 1 4;

  let pathloss = Radio.Pathloss.make ~max_range:ex.Cbtc.Constructions.max_range () in
  let d = Cbtc.Geo.run_flat (Cbtc.Config.make alpha) pathloss positions in
  let nbrs = Cbtc.Discovery.neighbor_ids d in
  Fmt.pr "  CBTC(5pi/6) outcome:@.";
  Array.iteri
    (fun u name ->
      Fmt.pr "    N(%s) = {%s}%s@." name
        (String.concat ", " (List.map (fun v -> names.(v)) (nbrs u)))
        (if d.Cbtc.Discovery.boundary.(u) then "  [boundary node]" else ""))
    names;
  Fmt.pr "  v discovered u0 but u0 stopped growing before reaching v:@.";
  Fmt.pr "    (v,u0) in N_alpha = %b, (u0,v) in N_alpha = %b@."
    (List.mem 0 (nbrs 4))
    (List.mem 4 (nbrs 0));
  Fmt.pr "  the symmetric closure keeps the network connected: %b@.@."
    (Metrics.Connectivity.preserves
       ~reference:(Cbtc.Geo.max_power_graph pathloss positions)
       (Cbtc.Discovery.closure d));

  Fmt.pr "--- Theorem 2.4: 5pi/6 is tight ---@.";
  let epsilon = 0.1 in
  let th = Cbtc.Constructions.theorem_2_4 ~epsilon () in
  let positions = th.Cbtc.Constructions.positions in
  let names = [| "u0"; "u1"; "u2"; "u3"; "v0"; "v1"; "v2"; "v3" |] in
  Fmt.pr "  alpha = 5pi/6 + %.2f; two four-node clusters whose only GR link \
          is (u0, v0):@."
    epsilon;
  pr_dist positions names 0 4;
  pr_dist positions names 0 3;
  pr_dist positions names 3 5;

  let pathloss = Radio.Pathloss.make ~max_range:th.Cbtc.Constructions.max_range () in
  let gr = Cbtc.Geo.max_power_graph pathloss positions in
  let run a =
    Cbtc.Discovery.closure (Cbtc.Geo.run_flat (Cbtc.Config.make a) pathloss positions)
  in
  let above = run th.Cbtc.Constructions.alpha in
  let at = run Geom.Angle.five_pi_six in
  Fmt.pr "  GR connected: %b@." (Graphkit.Traversal.is_connected gr);
  Fmt.pr "  G(5pi/6 + eps) connected: %b  <- u0's cones close before power \
          reaches v0@."
    (Graphkit.Traversal.is_connected above);
  Fmt.pr "  G(5pi/6) on the same nodes connected: %b  <- the threshold itself \
          is safe (Theorem 2.1)@."
    (Graphkit.Traversal.is_connected at);

  Fmt.pr "@.  ASCII rendering of the disconnected G(5pi/6 + eps):@.%s@."
    (Viz.Topoviz.to_ascii ~cols:64 ~rows:20 ~field_width:1000.
       ~field_height:1000.
       (Array.map
          (fun (p : Geom.Vec2.t) ->
            Geom.Vec2.make (p.Geom.Vec2.x +. 250.) (p.Geom.Vec2.y +. 500.))
          positions)
       above)
