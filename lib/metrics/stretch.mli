(** Stretch factors of a control topology relative to [G_R].

    The paper's competitiveness discussion bounds the {e power stretch}:
    the ratio between the cost of the best route in the controlled graph
    and in [G_R].  These functions measure it empirically (over all
    connected pairs), along with hop and Euclidean-length stretch. *)

type t = {
  max_stretch : float;  (** worst pair *)
  avg_stretch : float;  (** mean over connected pairs *)
  pairs : int;  (** number of pairs measured *)
}

(** [power_stretch energy positions ~reference g] uses link cost
    [Energy.link_cost] (transmission power plus overheads).  Pairs
    disconnected in [reference] are skipped; pairs disconnected in [g]
    but connected in [reference] yield infinite stretch.
    @raise Invalid_argument on node-count mismatch. *)
val power_stretch :
  Radio.Energy.t ->
  Geom.Vec2.t array ->
  reference:Graphkit.Ugraph.t ->
  Graphkit.Ugraph.t ->
  t

(** [hop_stretch ~reference g] uses hop counts. *)
val hop_stretch : reference:Graphkit.Ugraph.t -> Graphkit.Ugraph.t -> t
