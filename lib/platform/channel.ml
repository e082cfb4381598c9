exception Closed

type kind = Spsc | Mpmc

type 'a core = S of 'a Lf_queue.Spsc.t | M of 'a Lf_queue.Mpmc.t

(* A timed sleeper selects on a self-pipe: OCaml 5.1's [Condition] has
   no timed wait. Wakers write one byte to [wr]. *)
type pipe = { rd : Unix.file_descr; wr : Unix.file_descr }

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
  timed_sleepers : int Atomic.t;
  (* Created by the first timed wait; released by [close] once no timed
     sleeper remains, or by the GC if the channel is never closed.
     Guarded by [mu]. *)
  mutable pipe : pipe option;
  closed : bool Atomic.t;
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
    timed_sleepers = Atomic.make 0;
    pipe = None;
    closed = Atomic.make false;
  }

let capacity r = core_capacity r.core
let length r = core_length r.core
let is_empty t = length t = 0
let is_full t = length t >= capacity t
let is_closed r = Atomic.get r.closed

(* One byte is the whole message; the read side discards it. *)
let byte = Bytes.make 1 '\000'

let release_pipe r =
  match r.pipe with
  | Some p ->
    r.pipe <- None;
    Unix.close p.rd;
    Unix.close p.wr
  | None -> ()

(* With [mu] held. Non-blocking: a full pipe already holds a wake. *)
let ring r =
  match r.pipe with
  | Some p when Atomic.get r.timed_sleepers > 0 -> (
      try ignore (Unix.single_write p.wr byte 0 1)
      with Unix.Unix_error _ -> ())
  | _ -> ()

(* A waker must take [mu] before signalling: the parked side re-polls the
   ring while holding [mu] immediately before each [Condition.wait], so
   either the re-poll observes the state change, or the wait is entered
   before the waker can acquire [mu] and the signal lands. Combined with
   incrementing the sleeper count before taking [mu], no wakeup is lost.
   Timed sleepers are covered by the byte instead (see [take_timeout]). *)
let wake_consumer r =
  if Atomic.get r.sleepers > 0 || Atomic.get r.timed_sleepers > 0 then begin
    Mutex.lock r.mu;
    Condition.signal r.nonempty;
    ring r;
    Mutex.unlock r.mu
  end

let wake_producer r =
  if Atomic.get r.space_sleepers > 0 then begin
    Mutex.lock r.mu;
    Condition.signal r.nonfull;
    Mutex.unlock r.mu
  end

let accounted ?st f =
  Waitstats.note_park ();
  match st with
  | None -> f ()
  | Some st -> Thread_state.enter st Thread_state.Waiting f

(* Park on [cond] until [attempt] succeeds: register as a sleeper, then
   re-run [attempt] under [mu] before every wait. *)
let park ?st r sleepers cond attempt =
  Atomic.incr sleepers;
  Mutex.lock r.mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock r.mu;
      Atomic.decr sleepers)
    (fun () ->
      let rec loop () =
        match attempt () with
        | Some v -> v
        | None ->
          accounted ?st (fun () -> Condition.wait cond r.mu);
          loop ()
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
   | None -> park ?st r r.space_sleepers r.nonfull attempt);
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
    | None -> park ?st r r.sleepers r.nonempty (fun () -> poll r)
  in
  wake_producer r;
  v

let try_take r =
  match core_pop r.core with
  | Some v ->
    wake_producer r;
    Some v
  | None -> None

(* The timed park. The waiter counts itself in [timed_sleepers] (and
   gets the pipe) under [mu], then polls again, then selects on the pipe
   until the deadline. A waker that pushed first and then saw the count
   at 0 pushed before the waiter's poll, which finds the item; one that
   saw it positive writes a byte after its push, and the byte stays in
   the pipe until a timed sleeper reads it — and every reader polls
   again. Readers take one byte each, under [mu] and only while open:
   the byte [close] writes is never consumed, so it wakes every timed
   sleeper, and the last one to leave releases the pipe. *)
let enter_timed r =
  Mutex.lock r.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mu) @@ fun () ->
  let rd =
    match r.pipe with
    | Some p -> Some p.rd
    | None when Atomic.get r.closed -> None
    | None ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      r.pipe <- Some { rd; wr };
      Gc.finalise release_pipe r;
      Some rd
  in
  Atomic.incr r.timed_sleepers;
  rd

let leave_timed r =
  Mutex.lock r.mu;
  Atomic.decr r.timed_sleepers;
  if Atomic.get r.closed && Atomic.get r.timed_sleepers = 0 then
    release_pipe r;
  Mutex.unlock r.mu

let sleep_on ?st r rd ~timeout_s =
  accounted ?st (fun () ->
      match Unix.select [ rd ] [] [] timeout_s with
      | [], _, _ -> ()
      | _ ->
        Mutex.lock r.mu;
        (if not (Atomic.get r.closed) then
           try ignore (Unix.read rd byte 0 1) with Unix.Unix_error _ -> ());
        Mutex.unlock r.mu
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

let take_timeout ?st r ~timeout_s =
  let v =
    match poll r with
    | Some _ as v -> v
    | None when timeout_s <= 0. -> None
    | None ->
      let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
      let rd = enter_timed r in
      Fun.protect ~finally:(fun () -> leave_timed r) (fun () ->
          (* [rd = None] only once closed: [poll] then ends the loop. *)
          let rec loop () =
            match poll r with
            | Some _ as v -> v
            | None ->
              let left = Int64.sub deadline (Mclock.now_ns ()) in
              if Int64.compare left 0L <= 0 then None
              else begin
                Option.iter
                  (fun rd -> sleep_on ?st r rd ~timeout_s:(Mclock.s_of_ns left))
                  rd;
                loop ()
              end
          in
          loop ())
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
  if Atomic.get r.timed_sleepers = 0 then release_pipe r else ring r;
  Mutex.unlock r.mu
