(** Converged CBTC state in flat struct-of-arrays form.

    The same information as {!Discovery.t}, but with every node's
    discovered-neighbor row packed into shared CSR-style arrays instead
    of one [Neighbor.t list] per node: [off] (length [n+1]) delimits
    node [u]'s row inside the parallel [ids]/[dirs]/[links]/[tags]
    arrays, each row sorted by increasing link power (ties by id) —
    exactly the order of [Discovery.neighbors].

    At n = 10⁵–10⁶ this is the only representation that fits hot loops:
    an unboxed float array slot costs 8 bytes where each boxed
    [Neighbor.t] list element costs ~seven words plus pointer chasing.
    {!Geo.run_flat} produces this type; {!to_discovery} converts to the
    list-of-records form, {!of_discovery} converts back, and the
    construction pipeline after discovery ({!Pipeline}) runs on these
    rows. *)

type t = {
  config : Config.t;
  pathloss : Radio.Pathloss.t;
  positions : Geom.Vec2.t array;
  off : int array;  (** length [n+1]; row [u] is indices [off.(u) .. off.(u+1)-1] *)
  ids : int array;  (** discovered neighbor ids *)
  dirs : float array;  (** normalized directions, as [Neighbor.dir] *)
  links : float array;  (** link powers *)
  tags : float array;  (** discovery-step powers, as [Neighbor.tag] *)
  power : float array;  (** final per-node power [p_{u,alpha}] *)
  boundary : bool array;
}

val nb_nodes : t -> int

(** [degree t u] is [|N_alpha(u)|]. *)
val degree : t -> int -> int

(** [iter_neighbors t u f] streams row [u] in increasing link-power
    order, allocation-free. *)
val iter_neighbors :
  t ->
  int ->
  (id:int -> dir:float -> link_power:float -> tag:float -> unit) ->
  unit

(** [to_discovery t] expands the rows into per-node [Neighbor.t] lists;
    the result is bit-identical to what the list-based oracle returns
    for the same inputs. *)
val to_discovery : t -> Discovery.t

(** [of_discovery d] packs [d]'s neighbor lists into rows, in list
    order; [of_discovery (to_discovery t)] equals [t] bit for bit.  It
    is how {!Pipeline.of_discovery} runs on a discovery state given as
    lists (e.g. one produced by the distributed protocol). *)
val of_discovery : Discovery.t -> t
