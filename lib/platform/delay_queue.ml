exception Closed

type handle = bool Atomic.t

type 'a entry = {
  at_ns : int64;
  value : 'a;
  cancelled : handle;
}

type 'a t = {
  lock : Mutex.t;
  heap : 'a entry Binary_heap.t;
  (* The consumer parks on [wake] until the head's deadline; [schedule]
     drops a token in when the new entry becomes the head. *)
  wake : unit Channel.t;
  mutable closed : bool;
}

let cmp_entry a b = Int64.compare a.at_ns b.at_ns

let create () =
  { lock = Mutex.create (); heap = Binary_heap.create ~cmp:cmp_entry ();
    wake = Channel.create ~kind:Channel.Mpmc ~capacity:1; closed = false }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let schedule t ~at_ns value =
  let cancelled = Atomic.make false in
  let new_head =
    with_lock t (fun () ->
        if t.closed then raise Closed;
        let e = { at_ns; value; cancelled } in
        let earlier =
          match Binary_heap.min_elt t.heap with
          | None -> true
          | Some h -> cmp_entry e h < 0
        in
        Binary_heap.add t.heap e;
        earlier)
  in
  (* A full channel already holds a token; a closed one has no waiter. *)
  if new_head then
    (try ignore (Channel.try_put t.wake ()) with Channel.Closed -> ());
  cancelled

let cancel h = Atomic.set h true
let is_cancelled h = Atomic.get h

let pending t = with_lock t (fun () -> Binary_heap.length t.heap)

(* Drop cancelled entries sitting at the top of the heap. Called with the
   lock held. *)
let rec drop_cancelled t =
  match Binary_heap.min_elt t.heap with
  | Some e when Atomic.get e.cancelled ->
    ignore (Binary_heap.pop_min t.heap);
    drop_cancelled t
  | _ -> ()

let pop_due t ~now_ns =
  with_lock t @@ fun () ->
  drop_cancelled t;
  match Binary_heap.min_elt t.heap with
  | Some e when Int64.compare e.at_ns now_ns <= 0 ->
    ignore (Binary_heap.pop_min t.heap);
    Some e.value
  | _ -> None

let next_due_ns t =
  with_lock t @@ fun () ->
  drop_cancelled t;
  Option.map (fun e -> e.at_ns) (Binary_heap.min_elt t.heap)

(* Pop the head if due; otherwise say how long to wait. *)
let step t =
  with_lock t @@ fun () ->
  if t.closed then raise Closed;
  drop_cancelled t;
  match Binary_heap.min_elt t.heap with
  | None -> `Empty
  | Some e when Int64.compare e.at_ns (Mclock.now_ns ()) <= 0 ->
    ignore (Binary_heap.pop_min t.heap);
    `Due e.value
  | Some e -> `Until e.at_ns

(* A token that arrived before we parked (an earlier [schedule] raced
   [step]) is still in [wake], so the park returns at once and we look
   again. *)
let take ?st t =
  let rec loop () =
    match step t with
    | `Due v -> v
    | `Empty ->
      Channel.take ?st t.wake;
      loop ()
    | `Until at_ns ->
      let timeout_s = Mclock.s_of_ns (Int64.sub at_ns (Mclock.now_ns ())) in
      ignore (Channel.take_timeout ?st t.wake ~timeout_s);
      loop ()
  in
  try loop () with Channel.Closed -> raise Closed

let close t =
  with_lock t (fun () -> t.closed <- true);
  Channel.close t.wake
