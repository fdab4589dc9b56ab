(** Compatibility shim for the benchmark harness ([perfbench/]).

    {!Discovery.t} is the one converged-state type, in the CSR row form
    {!Geo.run_flat} computes; there is no list form left to convert to.
    [to_discovery] is the identity, kept only because [perfbench/]
    still times it (its [geo.list_shim_frac] metric).  It goes when the
    benchmark stops calling it. *)

(** [to_discovery d] is [d]. *)
val to_discovery : Discovery.t -> Discovery.t
