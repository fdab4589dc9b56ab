(** A discovered neighbor, as recorded by a node running CBTC.

    A node learns, for each neighbor that answered a "Hello": its
    direction (from angle-of-arrival), the link power [p(d(u,v))]
    (estimated from transmission and reception powers), and the power tag
    — the broadcast power in use when the neighbor was {e first}
    discovered, which drives the shrink-back optimization. *)

type t = {
  id : int;
  dir : float;  (** direction from the discovering node, in [\[0, 2pi)] *)
  link_power : float;  (** (estimate of) [p(d(u,v))] — power needed to reach it *)
  tag : float;  (** broadcast power at first discovery (shrink-back tag) *)
}

val make : id:int -> dir:float -> link_power:float -> tag:float -> t

(** [compare_by_link_power] orders by [link_power], then [id]: the order
    in which continuous power growth discovers neighbors. *)
val compare_by_link_power : t -> t -> int

(** [compare_by_tag] orders by [tag], then [link_power], then [id]: the
    shrink-back removal order is the reverse of this. *)
val compare_by_tag : t -> t -> int

val directions : t list -> float list
