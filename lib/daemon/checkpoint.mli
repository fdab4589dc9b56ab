(** Periodic daemon snapshots: enough state to resume a run and replay
    it to the same topology as an uninterrupted one.

    A checkpoint stores the {e tracked} world (positions and liveness as
    last applied by the engine), the surviving queue backlog, and the
    counters — not the grown cones: on restore the engine re-derives all
    cones with one full recompute, which is both simpler and
    self-checking (any divergence from the uninterrupted run shows up in
    the topology digest).  See docs/DAEMON.md for the on-disk format. *)

type t = {
  time : float;  (** stream time the checkpoint was cut at *)
  epoch : int;  (** epochs fully processed before the cut *)
  positions : Geom.Vec2.t array;
  alive : bool array;
  backlog : Event.t list;  (** surviving queued events, oldest first *)
  counters : (string * int) list;
}

val to_json : t -> Obs.Jsonl.t

(** @raise Failure on a structurally invalid document, a negative
    [epoch], or a backlog event whose node is outside
    [\[0, Array.length positions)]. *)
val of_json : Obs.Jsonl.t -> t

(** Single-line JSON document at [path], replaced atomically: the
    document is written and closed at [path ^ ".tmp"], then renamed over
    [path], so a failed save leaves the previous checkpoint intact.
    @raise Sys_error when the temporary cannot be written or renamed. *)
val save : string -> t -> unit

(** @raise Failure when the file is unreadable or malformed — the CLI
    maps this to exit code 2, like any unloadable artifact. *)
val load : string -> t
