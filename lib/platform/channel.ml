exception Closed = Bounded_queue.Closed

type kind = Spsc | Mpmc

type 'a core = S of 'a Lf_queue.Spsc.t | M of 'a Lf_queue.Mpmc.t

type 'a t = {
  core : 'a core;
  (* The mutex/condvars exist only for parking: the data path never takes
     them. [sleepers]/[space_sleepers] let the fast path skip the lock
     entirely when nobody is parked (the common case). *)
  mu : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  sleepers : int Atomic.t;
  space_sleepers : int Atomic.t;
  closed : bool Atomic.t;
}

(* How many failed polls (each a [Thread.yield]) before parking. With
   systhreads a yield is the only way to make progress anyway; the budget
   just bounds how long we burn the scheduler before paying a futex. *)
let spin_budget = 16

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

let create ~kind ~capacity =
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
  }

let capacity r = core_capacity r.core
let length r = core_length r.core
let is_empty t = length t = 0
let is_full t = length t >= capacity t
let is_closed r = Atomic.get r.closed

let wake mu cv =
  Mutex.lock mu;
  Condition.signal cv;
  Mutex.unlock mu

(* A waker must take [mu] before signalling: the parked side re-polls the
   ring while holding [mu] immediately before each [Condition.wait], so
   either the re-poll observes the state change, or the wait is entered
   before the waker can acquire [mu] and the signal lands. Combined with
   incrementing the sleeper count before taking [mu], no wakeup is lost. *)
let wake_consumer r = if Atomic.get r.sleepers > 0 then wake r.mu r.nonempty

let wake_producer r =
  if Atomic.get r.space_sleepers > 0 then wake r.mu r.nonfull

let wait_acct ?st cond mu =
  Waitstats.note_park ();
  match st with
  | None -> Condition.wait cond mu
  | Some st ->
    Thread_state.enter st Thread_state.Waiting (fun () ->
        Condition.wait cond mu)

let put ?st r v =
  let pushed () =
    if Atomic.get r.closed then raise Closed;
    core_push r.core v
  in
  if pushed () then wake_consumer r
  else begin
    (* Spin a bounded number of rounds, then park on [nonfull]. *)
    let rec spin n =
      if n = 0 then false
      else begin
        Waitstats.note_spin ();
        Thread.yield ();
        pushed () || spin (n - 1)
      end
    in
    if spin spin_budget then wake_consumer r
    else begin
      Atomic.incr r.space_sleepers;
      Mutex.lock r.mu;
      Fun.protect
        ~finally:(fun () ->
          Mutex.unlock r.mu;
          Atomic.decr r.space_sleepers)
        (fun () ->
          while not (pushed ()) do
            wait_acct ?st r.nonfull r.mu
          done);
      wake_consumer r
    end
  end

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
let take ?st r =
  (* [poll] must not signal: the park loop calls it with [r.mu] held,
     and the wake helper takes [r.mu]. The producer-side wake happens
     once, after any lock is released. *)
  let poll () =
    let closed = Atomic.get r.closed in
    match core_pop r.core with
    | Some v -> Some v
    | None -> if closed then raise Closed else None
  in
  let v =
    match poll () with
    | Some v -> v
    | None ->
      let rec spin n =
        if n = 0 then None
        else begin
          Waitstats.note_spin ();
          Thread.yield ();
          match poll () with Some v -> Some v | None -> spin (n - 1)
        end
      in
      (match spin spin_budget with
       | Some v -> v
       | None ->
         Atomic.incr r.sleepers;
         Mutex.lock r.mu;
         Fun.protect
           ~finally:(fun () ->
             Mutex.unlock r.mu;
             Atomic.decr r.sleepers)
           (fun () ->
             let rec loop () =
               match poll () with
               | Some v -> v
               | None ->
                 wait_acct ?st r.nonempty r.mu;
                 loop ()
             in
             loop ()))
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
  let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
  let bo = Backoff.create ~max_sleep_s:0.0002 () in
  let rec loop () =
    let closed = Atomic.get r.closed in
    match core_pop r.core with
    | Some v ->
      wake_producer r;
      Some v
    | None ->
      if closed then raise Closed
      else if Int64.compare (Mclock.now_ns ()) deadline >= 0 then None
      else begin
        Waitstats.note_spin ();
        Backoff.once ?st bo;
        loop ()
      end
  in
  loop ()

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
