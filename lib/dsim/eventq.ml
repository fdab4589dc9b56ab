type policy = Fifo | Seeded of int | Replay of int array

(* Priorities are drawn below this bound; ties between equal priorities
   fall back to FIFO (insertion sequence), so even colliding draws keep
   the order fully deterministic. *)
let prio_bound = 1 lsl 30

type 'a entry = { time : float; prio : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry option array;
  mutable size : int;
  mutable next_seq : int;
  policy : policy;
  prng : Prng.t option;  (* Some iff policy is Seeded *)
  replay : int array;  (* the Replay log; [||] otherwise *)
  mutable log_rev : int list;  (* assigned priorities, push order; [] for Fifo *)
}

let create ?(policy = Fifo) () =
  let prng, replay =
    match policy with
    | Fifo -> (None, [||])
    | Seeded seed -> (Some (Prng.create ~seed), [||])
    | Replay prios -> (None, prios)
  in
  { heap = Array.make 64 None; size = 0; next_seq = 0; policy; prng; replay;
    log_rev = [] }

let policy t = t.policy

let log t = Array.of_list (List.rev t.log_rev)

let before a b =
  a.time < b.time
  || (a.time = b.time
     && (a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)))

let get t i = match t.heap.(i) with Some e -> e | None -> assert false

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let first = ref i in
  if l < t.size && before (get t l) (get t !first) then first := l;
  if r < t.size && before (get t r) (get t !first) then first := r;
  if !first <> i then begin
    swap t i !first;
    sift_down t !first
  end

(* The priority of the next push.  Fifo assigns a constant, so the
   (time, prio, seq) order degenerates to the historical (time, seq)
   order bit-for-bit.  Seeded draws one splitmix64 value per push —
   among any set of same-timestamp events this yields a uniformly random
   permutation, deterministic in the seed and the push sequence.  Replay
   reuses a recorded log by push index; pushes beyond the log fall back
   to the Fifo constant, which is what makes log-prefix shrinking
   meaningful. *)
let next_prio t =
  match t.policy with
  | Fifo -> 0
  | Seeded _ -> Prng.int (Option.get t.prng) prio_bound
  | Replay _ ->
      if t.next_seq < Array.length t.replay then t.replay.(t.next_seq) else 0

let push t ~time value =
  if Float.is_nan time then invalid_arg "Eventq.push: nan time";
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) None in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let prio = next_prio t in
  if t.policy <> Fifo then t.log_rev <- prio :: t.log_rev;
  t.heap.(t.size) <- Some { time; prio; seq = t.next_seq; value };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then raise Not_found;
  let e = get t 0 in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- None;
  if t.size > 0 then sift_down t 0;
  (e.time, e.value)

let peek_time t = if t.size = 0 then None else Some (get t 0).time
