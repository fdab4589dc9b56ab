(* Dev-only phase profiler for the flat discovery kernel (its sweep's
   phases: the cell sort, the pair-once sweep with the power walk, and
   the copy of the rows to id order) and the construction stages after
   it (op1, the closure, op3, then the whole all-ops
   Pipeline.run_oracle), then the G_R reference
   (Cbtc.Geo.max_power_graph) with the words its graph holds; not
   wired into any alias.  Usage:
   dune exec bench/profile_flat.exe -- [n] [sigma_db].  A positive
   sigma_db runs every stage under log-normal shadowing of that many dB
   (Radio.Env.make ~sigma_db, shadow seed 42), the environment of the
   construct-shadow benchmark workload. *)

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 100_000 in
  let sigma_db =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.
  in
  let side = 1500. *. Float.sqrt (Stdlib.float_of_int n /. 100.) in
  let sc = Workload.Scenario.make ~n ~width:side ~height:side ~max_range:500. ~seed:42 () in
  let pl = Workload.Scenario.pathloss sc in
  let env =
    if sigma_db > 0. then Some (Radio.Env.make ~sigma_db ~shadow_seed:42 pl)
    else None
  in
  Fmt.pr "n = %d, sigma = %g dB@." n sigma_db;
  let positions = Workload.Scenario.positions sc in
  let config = Cbtc.Config.make Geom.Angle.five_pi_six in
  let phase name f =
    Gc.compact ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let a1 = Gc.allocated_bytes () in
    Fmt.pr "%-28s %8.3f s  %8.1f MB alloc@." name (t1 -. t0)
      ((a1 -. a0) /. 1048576.);
    r
  in
  (* [run_flat]'s phase marks: each closes the previous phase *)
  let mark = ref None in
  let close_phase () =
    match !mark with
    | None -> ()
    | Some (name, t0, a0) ->
        Fmt.pr "  %-26s %8.3f s  %8.1f MB alloc@." name
          (Unix.gettimeofday () -. t0)
          ((Gc.allocated_bytes () -. a0) /. 1048576.)
  in
  let on_phase name =
    close_phase ();
    mark :=
      if name = "end" then None
      else Some (name, Unix.gettimeofday (), Gc.allocated_bytes ())
  in
  let d =
    phase "run_flat (total)" (fun () ->
        Cbtc.Geo.run_flat ~phase:on_phase ?env config pl positions)
  in
  Fmt.pr "rows: %d@." (Array.length d.Cbtc.Discovery.ids);
  let cut = phase "op1 shrink_cut" (fun () -> Cbtc.Optimize.shrink_cut d) in
  let t =
    phase "closure (topology)" (fun () -> Cbtc.Discovery.topology ~both:false d ~cut)
  in
  let edges (t : Cbtc.Discovery.topology) = t.off.(Array.length t.off - 1) / 2 in
  Fmt.pr "closure edges: %d@." (edges t);
  let t = phase "op3 pairwise" (fun () -> Cbtc.Optimize.pairwise positions t) in
  Fmt.pr "kept edges: %d@." (edges t);
  let r =
    phase "run_oracle all-ops" (fun () ->
        Cbtc.Pipeline.run_oracle ?env pl positions (Cbtc.Pipeline.all_ops config))
  in
  ignore (Sys.opaque_identity r);
  let gr = phase "G_R max_power_graph" (fun () -> Cbtc.Geo.max_power_graph ?env pl positions) in
  Fmt.pr "G_R edges: %d, live %.1f MB@." (Graphkit.Ugraph.nb_edges gr)
    (Stdlib.float_of_int (Obj.reachable_words (Obj.repr gr) * (Sys.word_size / 8))
    /. 1048576.)
