(** A fixed pool of OCaml 5 domains for embarrassingly parallel
    Monte-Carlo workloads.

    The pool is built once ({!create}) and reused for every batch: it
    owns [jobs - 1] worker domains blocked on a shared task queue, and
    the submitting domain itself executes tasks while a batch is in
    flight, so a pool of [jobs = k] keeps exactly [k] domains busy.

    {b Determinism.} None of the combinators below change {e what} is
    computed, only {e where}: {!map} preserves input order in its result
    array, and {!iter_chunks} hands out disjoint index ranges whose
    bodies write to disjoint state.  As long as each task derives its
    randomness from state created {e before} dispatch (see {!Seeds}),
    results are bit-identical for every [jobs] value and every task
    interleaving.  The whole test suite relies on this.

    {b The [jobs = 1] inline path.}  A pool created with [~jobs:1] spawns
    no domains and runs every batch inline in the calling domain —
    [map pool f arr] is then exactly [Array.map f arr].  Single-core
    hosts pay nothing for the abstraction.

    {b Exceptions.}  If tasks raise, the batch still runs to completion
    (no cancellation), and the exception of the {e lowest-indexed}
    failing task is re-raised in the submitting domain with that task's
    backtrace — the same exception a sequential run would have surfaced
    first.

    Nested submission (a task submitting a batch to the pool it runs on)
    is supported — the inner submitter helps drain the queue — but
    usually indicates the parallelism is at the wrong layer: prefer
    parallelizing the outermost trial loop only. *)

type t

(** [create ?obs ?jobs ()] builds a pool of [jobs] domains (the caller
    plus [jobs - 1] workers).  [jobs] defaults to {!default_jobs}[ ()].
    When [obs] is both enabled {e and clocked}, every batch records
    [pool.batches] / [pool.tasks] counters and a [pool.task_s] latency
    histogram; clockless recorders get nothing, because task counts and
    latencies depend on [jobs] and would break the byte-identical
    cross-[-j] output contract.
    @raise Invalid_argument unless [1 <= jobs <= 1024]. *)
val create : ?obs:Obs.Recorder.t -> ?jobs:int -> unit -> t

(** [jobs t] is the parallelism degree the pool was created with. *)
val jobs : t -> int

(** [default_jobs ()] is the [CBTC_JOBS] environment variable when set,
    otherwise [Domain.recommended_domain_count ()].
    @raise Invalid_argument when [CBTC_JOBS] is set but is not an
    integer in [1, 1024]. *)
val default_jobs : unit -> int

(** [map t f arr] is [Array.map f arr], with the applications distributed
    over the pool.  Result order equals input order regardless of
    execution order. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [iter_chunks t ?chunk n f] calls [f lo hi] for consecutive disjoint
    ranges [\[lo, hi)] covering [\[0, n)], in parallel.  [chunk] bounds
    the range length (default: [n / (4 * jobs)], at least 1 — small
    enough to balance load, large enough to amortize dispatch).  With
    [jobs = 1] this is the single inline call [f 0 n].  The ranges
    partition [\[0, n)] exactly, so bodies writing [slot.(i)] for
    [i] in their range never race. *)
val iter_chunks : t -> ?chunk:int -> int -> (int -> int -> unit) -> unit

(** [shutdown t] terminates the worker domains and joins them.  Idempotent.
    Submitting to a shut-down pool raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ?obs ?jobs f] is [f pool] with {!shutdown} guaranteed on
    exit. *)
val with_pool : ?obs:Obs.Recorder.t -> ?jobs:int -> (t -> 'a) -> 'a
