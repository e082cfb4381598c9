exception Closed

type kind = Spsc | Mpmc

type 'a core = S of 'a Lf_queue.Spsc.t | M of 'a Lf_queue.Mpmc.t

type 'a t = {
  core : 'a core;
  (* The mutex/condvars exist only for parking: the data path never takes
     them. The sleeper counts let the fast path skip the lock entirely
     when nobody is parked (the common case). *)
  mu : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  sleepers : int Atomic.t;
  space_sleepers : int Atomic.t;
  closed : bool Atomic.t;
  parks : Waitstats.counter;  (* shared by every channel of this name *)
}

let core_push c x = match c with
  | S q -> Lf_queue.Spsc.try_push q x
  | M q -> Lf_queue.Mpmc.try_push q x

let core_pop c = match c with
  | S q -> Lf_queue.Spsc.try_pop q
  | M q -> Lf_queue.Mpmc.try_pop q

let core_length c = match c with
  | S q -> Lf_queue.Spsc.length q
  | M q -> Lf_queue.Mpmc.length q

let core_capacity c = match c with
  | S q -> Lf_queue.Spsc.capacity q
  | M q -> Lf_queue.Mpmc.capacity q

let create ~name ~kind ~capacity =
  let core = match kind with
    | Spsc -> S (Lf_queue.Spsc.create ~capacity)
    | Mpmc -> M (Lf_queue.Mpmc.create ~capacity)
  in
  {
    core;
    mu = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    sleepers = Atomic.make 0;
    space_sleepers = Atomic.make 0;
    closed = Atomic.make false;
    parks = Waitstats.counter name;
  }

let capacity r = core_capacity r.core
let length r = core_length r.core
let is_empty t = length t = 0
let is_full t = length t >= capacity t
let is_closed r = Atomic.get r.closed

(* [clockwait cond mu deadline] is [Condition.wait cond mu] that also
   returns, with [true], once the {!Mclock.now_ns} instant [deadline]
   has passed (condwait_stubs.c). *)
external clockwait : Condition.t -> Mutex.t -> int64 -> bool
  = "channel_cond_clockwait"

external sync_layout_ok : Condition.t -> Mutex.t -> bool
  = "channel_sync_layout_ok"

let () =
  if not (sync_layout_ok (Condition.create ()) (Mutex.create ())) then
    failwith
      "Channel: this OCaml runtime's Condition.t/Mutex.t are not the \
       pthread-backed blocks condwait_stubs.c reads"

(* A waker must take [mu] before signalling: the parked side re-polls the
   ring while holding [mu] immediately before each [Condition.wait], so
   either the re-poll observes the state change, or the wait is entered
   before the waker can acquire [mu] and the signal lands. Combined with
   incrementing the sleeper count before taking [mu], no wakeup is lost.
   A timed waiter that times out may swallow a signal meant for another
   sleeper, but it re-runs its attempt under [mu] before it leaves, so
   it takes the item that signal announced. *)
let wake_consumer r =
  if Atomic.get r.sleepers > 0 then begin
    Mutex.lock r.mu;
    Condition.signal r.nonempty;
    Mutex.unlock r.mu
  end

let wake_producer r =
  if Atomic.get r.space_sleepers > 0 then begin
    Mutex.lock r.mu;
    Condition.signal r.nonfull;
    Mutex.unlock r.mu
  end

let accounted ?st r f =
  Waitstats.note_park r.parks;
  match st with
  | None -> f ()
  | Some st -> Thread_state.enter st Thread_state.Waiting f

(* Park on [cond] until [attempt] succeeds, or, given a [deadline]
   ({!Mclock.now_ns}), until it has passed and one last [attempt] fails:
   register as a sleeper, then re-run [attempt] under [mu] before every
   wait. [None] only on a deadline. *)
let park ?st ?deadline r sleepers cond attempt =
  Atomic.incr sleepers;
  Mutex.lock r.mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock r.mu;
      Atomic.decr sleepers)
    (fun () ->
      let rec loop () =
        match attempt () with
        | Some _ as v -> v
        | None -> (
          match deadline with
          | None ->
            accounted ?st r (fun () -> Condition.wait cond r.mu);
            loop ()
          | Some d ->
            if accounted ?st r (fun () -> clockwait cond r.mu d) then attempt ()
            else loop ())
      in
      loop ())

let put ?st r v =
  (* [attempt] must not signal: [park] calls it with [r.mu] held. *)
  let attempt () =
    if Atomic.get r.closed then raise Closed;
    if core_push r.core v then Some () else None
  in
  (match attempt () with
   | Some () -> ()
   | None -> ignore (park ?st r r.space_sleepers r.nonfull attempt));
  wake_consumer r

let try_put r v =
  if Atomic.get r.closed then raise Closed;
  if core_push r.core v then begin
    wake_consumer r;
    true
  end
  else false

(* Read [closed] before the poll: items pushed before close stay
   drainable, and a [None] seen after the flag was already up means the
   channel is done. (A put racing [close] itself may be dropped; the
   spine only closes at shutdown, where in-flight work is discarded
   anyway.) *)
let poll r =
  let closed = Atomic.get r.closed in
  match core_pop r.core with
  | Some v -> Some v
  | None -> if closed then raise Closed else None

let take ?st r =
  let v =
    match poll r with
    | Some v -> v
    | None -> Option.get (park ?st r r.sleepers r.nonempty (fun () -> poll r))
  in
  wake_producer r;
  v

let try_take r =
  match core_pop r.core with
  | Some v ->
    wake_producer r;
    Some v
  | None -> None

let take_timeout ?st r ~timeout_s =
  let v =
    match poll r with
    | Some _ as v -> v
    | None when timeout_s <= 0. -> None
    | None ->
      let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
      park ?st ~deadline r r.sleepers r.nonempty (fun () -> poll r)
  in
  if Option.is_some v then wake_producer r;
  v

let drain_count r ~max =
  (* Pop up to [max]; stop at the first miss. Caller saw at least one
     element, so the first pop normally succeeds. *)
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      match core_pop r.core with
      | None -> List.rev acc
      | Some v -> go (k - 1) (v :: acc)
  in
  go max []

let take_batch ?st r ~max =
  if max <= 0 then invalid_arg "Channel.take_batch: max <= 0";
  let first = take ?st r in
  let rest = drain_count r ~max:(max - 1) in
  if rest <> [] then wake_producer r;
  first :: rest

(* Pop into [buf] from index [from] until a miss or a full buffer, then
   reset the unused tail to [None]. Returns the filled count. *)
let fill_from r ~buf from =
  let max = Array.length buf in
  let n = ref from in
  let continue = ref true in
  while !continue && !n < max do
    match core_pop r.core with
    | None -> continue := false
    | Some v ->
      buf.(!n) <- Some v;
      incr n
  done;
  for i = !n to max - 1 do
    buf.(i) <- None
  done;
  !n

let take_batch_into ?st r ~buf =
  if Array.length buf <= 0 then invalid_arg "Channel.take_batch_into: empty buf";
  buf.(0) <- Some (take ?st r);
  let n = fill_from r ~buf 1 in
  if n > 1 then wake_producer r;
  n

let drain_into r ~buf =
  if Array.length buf <= 0 then invalid_arg "Channel.drain_into: empty buf";
  let n = fill_from r ~buf 0 in
  if n > 0 then wake_producer r;
  n

let close r =
  Atomic.set r.closed true;
  Mutex.lock r.mu;
  Condition.broadcast r.nonempty;
  Condition.broadcast r.nonfull;
  Mutex.unlock r.mu
