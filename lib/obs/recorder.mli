(** Run recorder: typed counters, histograms, nested span tracing and a
    run manifest, emitted as JSON-lines plus an end-of-run summary.

    The disabled recorder {!nil} makes every operation a single branch,
    so instrumented code can keep its [?obs] parameter unconditionally.
    Output is deterministic by default: timing fields are only emitted
    when [create] was given a [clock], and serialization sorts counter
    and histogram keys.  Recorders are single-domain; parallel code
    records into per-trial recorders and merges them in seed order with
    {!merge_into}. *)

type t

val version : string
(** Library version stamped into every manifest and summary. *)

val schema : int
(** Trace/summary schema revision (see docs/OBSERVABILITY.md). *)

val nil : t
(** The disabled recorder: all operations are no-ops. *)

val create : ?clock:(unit -> float) -> unit -> t
(** Fresh enabled recorder.  When [clock] is given (e.g.
    [Unix.gettimeofday]), span events carry [t]/[dur_s] fields —
    and the output is no longer reproducible across runs. *)

val enabled : t -> bool

val now : t -> float option
(** Current clock reading, when the recorder is enabled and clocked.
    Lets instrumented code skip timing work on deterministic runs. *)

val incr : ?by:int -> t -> string -> unit
(** Bump a named counter (created on first use). *)

val observe : t -> string -> float -> unit
(** Add a sample to a named histogram (created on first use). *)

val set : t -> string -> Jsonl.t -> unit
(** Set a manifest field; insertion order is preserved, re-setting a
    key overwrites in place. *)

val set_int : t -> string -> int -> unit

val set_str : t -> string -> string -> unit

val event : ?fields:(string * Jsonl.t) list -> t -> string -> unit
(** Record a point event at the current span depth. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] brackets [f] with span_begin/span_end events;
    exceptions still close the span. *)

val counter : t -> string -> int
(** Current value of a counter (0 when absent or disabled). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s counters, histograms and events into [into] (manifest
    is kept from [into]).  Merging trial recorders in seed order makes
    the result independent of worker scheduling. *)

val trace_lines : t -> string list
(** JSON-lines trace: the manifest line followed by events, [seq]
    renumbered from 1.  Empty for {!nil}. *)

val summary_string : t -> string
(** One-line JSON summary: manifest, sorted counters and histograms,
    event count. *)

val write_trace : t -> out_channel -> unit

val write_summary : t -> out_channel -> unit
