module Bq = Msmr_platform.Channel
module Mpsc = Msmr_platform.Mpsc_queue
module Cmap = Msmr_platform.Concurrent_map
module Worker = Msmr_platform.Worker
module Thread_state = Msmr_platform.Thread_state
module Mclock = Msmr_platform.Mclock
module Client_msg = Msmr_wire.Client_msg
module Codec = Msmr_wire.Codec

type sink = bytes -> unit
type batch_sink = bytes list -> unit

(* Where a client's replies go: its owning worker and its connection's
   sinks. [blocks]: the sinks may block their caller (a socket write),
   so only the owning worker calls them. *)
type route = {
  worker : int;
  sink : sink;
  many : batch_sink option;
  blocks : bool;
}

(* A worker waits on its ingress alone: a reply hand-off adds a [Kick]
   so the worker wakes to drain the reply queue. *)
type ingress =
  | Request of bytes * route
  | Kick

(* A queued reply: encoded by the worker, or already encoded (a lease
   read answered by the scheduler). *)
type payload =
  | Reply of Client_msg.reply
  | Encoded of bytes

type worker_ctx = {
  ingress : ingress Bq.t;
  replies : (payload * sink * batch_sink option) Mpsc.t;
  kicked : bool Atomic.t; (* a Kick is queued and not yet taken *)
}

type t = {
  workers : worker_ctx array;
  threads : Worker.t list;
  (* client_id -> route; written by ClientIO threads, read by the
     ServiceManager. *)
  routes : (int, route) Cmap.t;
  (* Passes a fresh request on to be ordered; may block (back-pressure). *)
  hand_off : Thread_state.t -> Client_msg.request -> unit;
  reply_cache : Reply_cache.t;
  (* Registry counters (docs/OBSERVABILITY.md): atomic adds, no locks. *)
  m_labels : Msmr_obs.Metrics.labels;
  m_requests : Msmr_obs.Metrics.counter;
  m_replies : Msmr_obs.Metrics.counter;
  m_malformed : Msmr_obs.Metrics.counter;
  m_flushes : Msmr_obs.Metrics.counter;
}

let worker_of_client t client_id =
  client_id mod Array.length t.workers

(* Encode [items] and write them, grouping consecutive replies to the
   same connection so a connection with a [batch_sink] gets the whole
   run in a single write (Frame.write_many → one write(2)). Groups
   preserve per-connection FIFO order; one registry "flush" is counted
   per non-empty call. *)
let flush t items =
  match items with
  | [] -> ()
  | items ->
    (* (sink, batch_sink, payloads in reverse), newest group first. *)
    let groups : (sink * batch_sink option * bytes list ref) list ref =
      ref []
    in
    List.iter
      (fun (payload, sink, many) ->
         let payload =
           match payload with
           | Reply reply -> Client_msg.reply_to_bytes reply
           | Encoded b -> b
         in
         Msmr_obs.Metrics.incr t.m_replies;
         match List.find_opt (fun (s, _, _) -> s == sink) !groups with
         | Some (_, _, payloads) -> payloads := payload :: !payloads
         | None -> groups := (sink, many, ref [ payload ]) :: !groups)
      items;
    List.iter
      (fun (sink, many, payloads) ->
         match (many, List.rev !payloads) with
         | Some write_many, (_ :: _ :: _ as ps) -> write_many ps
         | _, ps -> List.iter sink ps)
      (List.rev !groups);
    Msmr_obs.Metrics.incr t.m_flushes

(* Drain every queued reply in one pass. *)
let drain_replies t (ctx : worker_ctx) =
  let rec collect acc =
    match Mpsc.pop ctx.replies with
    | Some item -> collect (item :: acc)
    | None -> List.rev acc
  in
  flush t (collect [])

(* Decode one request, answer it from the reply cache or hand it on
   to be ordered. The hand-off blocks while the RequestQueue is full:
   that stops this worker from taking new ingress, and a full ingress
   blocks [submit] (back-pressure, Section V-E). Nothing downstream of the
   RequestQueue waits on ClientIO or on a sink that may block — replies
   come back through the non-blocking [deliver_reply], or from
   [write_replies] through sinks that do not block — so the wait always
   ends. *)
let accept t st ~raw ~(route : route) =
  match Client_msg.request_of_bytes raw with
  | req -> (
      Msmr_obs.Metrics.incr t.m_requests;
      match Reply_cache.lookup t.reply_cache req.id with
      | Reply_cache.Cached result ->
        route.sink (Client_msg.reply_to_bytes { id = req.id; result })
      | Reply_cache.Stale -> ()
      | Reply_cache.Fresh ->
        Cmap.set t.routes req.id.client_id route;
        t.hand_off st req)
  | exception (Codec.Underflow | Codec.Malformed _) ->
    (* Malformed request: drop it, as a server would drop a corrupt
       frame. *)
    Msmr_obs.Metrics.incr t.m_malformed

(* One ClientIO thread: park on ingress, handle what arrives, then drain
   the replies queued meanwhile (coalesced per connection). *)
let worker_loop t idx st =
  let ctx = t.workers.(idx) in
  let running = ref true in
  while !running do
    (match Bq.take ~st ctx.ingress with
     | Request (raw, route) -> accept t st ~raw ~route
     | Kick -> ()
     | exception Bq.Closed -> running := false);
    (* Lower the flag before draining: a reply queued after this drain
       finds it down and queues a fresh Kick. *)
    Atomic.set ctx.kicked false;
    drain_replies t ctx
  done

let metric_names =
  [ "msmr_client_io_requests_total"; "msmr_client_io_replies_total";
    "msmr_client_io_malformed_total"; "msmr_client_io_flushes" ]

let create ?(name_prefix = "") ~pool_size ~hand_off ~reply_cache () =
  if pool_size <= 0 then invalid_arg "Client_io.create: pool_size <= 0";
  let workers =
    (* Ingress is many connection threads -> one worker: MPMC ring. *)
    Array.init pool_size (fun _ ->
        { ingress =
            Bq.create ~name:"client_io_ingress" ~kind:Bq.Mpmc ~capacity:256;
          replies = Mpsc.create ();
          kicked = Atomic.make false })
  in
  let m_labels =
    [ ("mode", "live");
      ("pool", if name_prefix = "" then "default" else name_prefix) ]
  in
  let t =
    { workers; threads = []; routes = Cmap.create ~shards:16 ();
      hand_off; reply_cache;
      m_labels;
      m_requests =
        Msmr_obs.Metrics.counter ~labels:m_labels "msmr_client_io_requests_total";
      m_replies =
        Msmr_obs.Metrics.counter ~labels:m_labels "msmr_client_io_replies_total";
      m_malformed =
        Msmr_obs.Metrics.counter ~labels:m_labels
          "msmr_client_io_malformed_total";
      m_flushes =
        Msmr_obs.Metrics.counter ~labels:m_labels "msmr_client_io_flushes" }
  in
  let threads =
    List.init pool_size (fun i ->
        Worker.spawn ~name:(Printf.sprintf "%sClientIO-%d" name_prefix i) (fun st ->
            worker_loop t i st))
  in
  { t with threads }

let submit ?reply_many ?(sink_blocks = false) t ~raw ~reply_to =
  (* Cheap peek at the client id (first i32) to pick the owning worker,
     without a full decode — the worker does that. *)
  let client_id =
    if Bytes.length raw >= 4 then Int32.to_int (Bytes.get_int32_be raw 0)
    else 0
  in
  let worker = worker_of_client t (abs client_id) in
  Bq.put t.workers.(worker).ingress
    (Request
       ( raw,
         { worker; sink = reply_to; many = reply_many; blocks = sink_blocks }
       ))

(* Never blocks: the ServiceManager must not wait on ClientIO. When the
   ingress is full the Kick is skipped and the flag stays up; the worker
   has items to take and drains replies after each one. *)
let hand_over t idx item =
  let w = t.workers.(idx) in
  Mpsc.push w.replies item;
  if not (Atomic.exchange w.kicked true) then (
    try ignore (Bq.try_put w.ingress Kick) with Bq.Closed -> ())

let deliver_reply t (reply : Client_msg.reply) =
  match Cmap.find_opt t.routes reply.id.client_id with
  | Some r -> hand_over t r.worker (Reply reply, r.sink, r.many)
  | None -> ()

(* The caller's own thread writes to sinks that do not block; a
   connection whose sinks may block gets its replies through its
   worker, as [deliver_reply] hands them over. *)
let write_replies t (replies : Client_msg.reply list) =
  flush t
    (List.filter_map
       (fun (reply : Client_msg.reply) ->
          match Cmap.find_opt t.routes reply.id.client_id with
          | Some { blocks = false; sink; many; _ } ->
            Some (Reply reply, sink, many)
          | Some r ->
            hand_over t r.worker (Reply reply, r.sink, r.many);
            None
          | None -> None)
       replies)

let deliver_encoded t ~client_id ~sink payload =
  hand_over t (worker_of_client t (abs client_id)) (Encoded payload, sink, None)

let ingress_length t =
  Array.fold_left (fun acc w -> acc + Bq.length w.ingress) 0 t.workers

let stop t =
  Array.iter (fun w -> Bq.close w.ingress) t.workers;
  Worker.join_all t.threads;
  List.iter
    (fun name -> Msmr_obs.Metrics.remove ~labels:t.m_labels name)
    metric_names
