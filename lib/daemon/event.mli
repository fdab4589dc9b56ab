(** The daemon's input alphabet: timestamped join/leave/move events.

    [Move] and [Join] carry the node's absolute position at the event
    time (a GPS report, not a delta) — processing a node's latest move
    makes its tracked position exact regardless of how many earlier
    moves were shed under overload, which is what lets the daemon heal
    automatically once a storm passes (see docs/DAEMON.md). *)

type kind =
  | Move of Geom.Vec2.t  (** position report for a (live or dead) node *)
  | Leave  (** node crashed / departed *)
  | Join of Geom.Vec2.t  (** node (re)appeared at the given position *)

type t = { time : float; node : int; kind : kind }

val is_move : t -> bool

val kind_label : kind -> string

(** JSON round-trip, used by the checkpoint's queue-backlog snapshot.
    [of_json] raises [Failure] on malformed input. *)
val to_json : t -> Obs.Jsonl.t

val of_json : Obs.Jsonl.t -> t

val pp : t Fmt.t
