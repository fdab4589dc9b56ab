(* Fixed domain pool: [jobs - 1] worker domains blocked on one shared
   queue, plus the submitting domain, which executes tasks of its own
   batch until the batch completes.  All coordination goes through a
   single mutex and two condition variables; per-batch completion is an
   atomic countdown so concurrent (nested) batches never confuse each
   other — every waiter re-checks its own counter after a wake-up. *)

type t = {
  jobs : int;
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  work_available : Condition.t;  (* signalled when tasks are enqueued *)
  batch_done : Condition.t;  (* broadcast when some batch's last task ends *)
  mutable closed : bool;
  (* Pool metrics are recorded only when the recorder has a clock: task
     counts and latencies depend on [jobs] and scheduling, so they are
     wall-clock diagnostics, deliberately absent from deterministic
     (clockless) runs whose output must be identical across -j. *)
  obs : Obs.Recorder.t;
}

let max_jobs = 1024

let default_jobs () =
  match Sys.getenv_opt "CBTC_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 && j <= max_jobs -> j
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf
               "CBTC_JOBS must be an integer in [1,%d] (got %S)" max_jobs s))

let jobs t = t.jobs

(* every submit path checks this, including the jobs=1 inline paths, so
   use-after-shutdown fails the same way regardless of pool size *)
let check_open t =
  if t.closed then invalid_arg "Pool: used after shutdown"

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work_available t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* closed: exit *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.m;
    task ();
    worker_loop t
  end

let create ?(obs = Obs.Recorder.nil) ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Pool.create: jobs out of [1,%d]" max_jobs);
  let t =
    {
      jobs;
      workers = [||];
      queue = Queue.create ();
      m = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      closed = false;
      obs;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* Run every thunk in [tasks], helping from the calling domain, and
   re-raise the lowest-indexed exception (with its backtrace) once the
   whole batch has finished.  Tasks are wrapped so a raise can never
   leave the countdown unbalanced. *)
let run_all t tasks =
  check_open t;
  let n = Array.length tasks in
  (* latency slots: each task writes its own index from its worker
     domain; the submitter reads them only after the batch completes
     (mutex/atomic ordering), then observes them in index order so the
     histogram is independent of which domain ran what *)
  let lat =
    match Obs.Recorder.now t.obs with
    | Some _ -> Some (Array.make (Stdlib.max n 1) 0.)
    | None -> None
  in
  let timed i task () =
    match lat with
    | None -> task ()
    | Some arr ->
        let t0 = Option.get (Obs.Recorder.now t.obs) in
        Fun.protect
          ~finally:(fun () ->
            arr.(i) <- Option.get (Obs.Recorder.now t.obs) -. t0)
          task
  in
  let record_batch () =
    match lat with
    | None -> ()
    | Some arr ->
        Obs.Recorder.incr t.obs "pool.batches";
        Obs.Recorder.incr ~by:n t.obs "pool.tasks";
        for i = 0 to n - 1 do
          Obs.Recorder.observe t.obs "pool.task_s" arr.(i)
        done
  in
  if n = 0 then ()
  else if t.jobs = 1 || n = 1 then begin
    (* inline path: plain sequential execution, exceptions propagate as-is *)
    Array.iteri (fun i task -> timed i task ()) tasks;
    record_batch ()
  end
  else begin
    let remaining = Atomic.make n in
    let errors = Array.make n None in
    let wrap i task () =
      (try timed i task ()
       with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* last task of this batch: wake every submitter; each re-checks
           its own counter, so batches sharing the pool don't interfere *)
        Mutex.lock t.m;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.m
      end
    in
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool: used after shutdown"
    end;
    Array.iteri (fun i task -> Queue.add (wrap i task) t.queue) tasks;
    Condition.broadcast t.work_available;
    (* help: drain tasks (ours or a nested batch's) while any are queued *)
    while not (Queue.is_empty t.queue) do
      let task = Queue.pop t.queue in
      Mutex.unlock t.m;
      task ();
      Mutex.lock t.m
    done;
    while Atomic.get remaining > 0 do
      Condition.wait t.batch_done t.m
    done;
    Mutex.unlock t.m;
    record_batch ();
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end

let map t f arr =
  check_open t;
  let n = Array.length arr in
  (* the sequential shortcut skips [run_all] entirely, so take it only
     when no clocked recorder is waiting for batch/latency metrics *)
  if (t.jobs = 1 || n <= 1) && Obs.Recorder.now t.obs = None then
    Array.map f arr
  else begin
    let results = Array.make n None in
    run_all t
      (Array.init n (fun i () -> results.(i) <- Some (f arr.(i))));
    Array.map
      (function Some v -> v | None -> assert false (* run_all ran all *))
      results
  end

let iter_chunks t ?chunk n f =
  check_open t;
  if n > 0 then begin
    if t.jobs = 1 then begin
      match Obs.Recorder.now t.obs with
      | None -> f 0 n
      | Some _ -> run_all t [| (fun () -> f 0 n) |]
    end
    else begin
      let chunk =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ -> invalid_arg "Pool.iter_chunks: chunk must be >= 1"
        | None -> Stdlib.max 1 (n / (4 * t.jobs))
      in
      let ntasks = (n + chunk - 1) / chunk in
      run_all t
        (Array.init ntasks (fun i () ->
             let lo = i * chunk in
             f lo (Stdlib.min n (lo + chunk))))
    end
  end

let shutdown t =
  Mutex.lock t.m;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.m;
  if not was_closed then Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?obs ?jobs f =
  let t = create ?obs ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
