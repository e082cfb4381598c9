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

(* A worker waits on its ingress alone: a reply hand-off adds a [Kick]
   so the worker wakes to drain the reply queue. *)
type ingress =
  | Request of bytes * Service.conflict option * sink * batch_sink option
  | Kick

type worker_ctx = {
  ingress : ingress Bq.t;
  replies : (Client_msg.reply * sink * batch_sink option) Mpsc.t;
  kicked : bool Atomic.t; (* a Kick is queued and not yet taken *)
}

type t = {
  workers : worker_ctx array;
  threads : Worker.t list;
  (* client_id -> (worker index, reply sinks); written by ClientIO threads,
     read by the ServiceManager. *)
  routes : (int, int * sink * batch_sink option) Cmap.t;
  request_queue : Client_msg.request Bq.t;
  reply_cache : Reply_cache.t;
  (* Ingress hook for the speculative path: called once per fresh request
     (no cached reply, not stale) with the router's conflict class when
     the submitter carried one. Runs on the ClientIO worker thread. *)
  on_fresh : (Client_msg.request -> Service.conflict option -> unit) option;
  (* Registry counters (docs/OBSERVABILITY.md): atomic adds, no locks. *)
  m_labels : Msmr_obs.Metrics.labels;
  m_requests : Msmr_obs.Metrics.counter;
  m_replies : Msmr_obs.Metrics.counter;
  m_malformed : Msmr_obs.Metrics.counter;
  m_flushes : Msmr_obs.Metrics.counter;
}

let worker_of_client t client_id =
  client_id mod Array.length t.workers

(* Drain every queued reply in one pass, grouping consecutive replies to
   the same connection so a connection with a [batch_sink] gets the whole
   run in a single write (Frame.write_many → one write(2)). Groups
   preserve per-connection FIFO order; one registry "flush" is counted
   per non-empty pass. *)
let drain_replies t (ctx : worker_ctx) =
  let rec collect acc =
    match Mpsc.pop ctx.replies with
    | Some item -> collect (item :: acc)
    | None -> List.rev acc
  in
  match collect [] with
  | [] -> ()
  | items ->
    (* (sink, batch_sink, payloads in reverse), newest group first. *)
    let groups : (sink * batch_sink option * bytes list ref) list ref =
      ref []
    in
    List.iter
      (fun (reply, sink, many) ->
         let payload = Client_msg.reply_to_bytes reply in
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

(* Decode one request, answer it from the reply cache or hand it to the
   Batcher. The hand-off is a blocking [put]: a full RequestQueue stops
   this worker from taking new ingress, and a full ingress blocks
   [submit] (back-pressure, Section V-E). Nothing downstream of the
   RequestQueue waits on ClientIO — replies come back through the
   non-blocking [deliver_reply] — so the wait always ends. *)
let accept t idx st ~raw ~conflict ~sink ~many =
  match Client_msg.request_of_bytes raw with
  | req -> (
      Msmr_obs.Metrics.incr t.m_requests;
      match Reply_cache.lookup t.reply_cache req.id with
      | Reply_cache.Cached result ->
        sink (Client_msg.reply_to_bytes { id = req.id; result })
      | Reply_cache.Stale -> ()
      | Reply_cache.Fresh ->
        (* Hook before the Batcher hand-off: the pre-dispatch event must
           precede the request's own decide in the DecisionQueue, and
           queue FIFO gives exactly that. *)
        (match t.on_fresh with Some f -> f req conflict | None -> ());
        Cmap.set t.routes req.id.client_id (idx, sink, many);
        Bq.put ~st t.request_queue req)
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
     | Request (raw, conflict, sink, many) ->
       accept t idx st ~raw ~conflict ~sink ~many
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

let create ?(name_prefix = "") ?on_fresh ~pool_size
    ~request_queue ~reply_cache () =
  if pool_size <= 0 then invalid_arg "Client_io.create: pool_size <= 0";
  let workers =
    (* Ingress is many connection threads -> one worker: MPMC ring. *)
    Array.init pool_size (fun _ ->
        { ingress = Bq.create ~kind:Bq.Mpmc ~capacity:256;
          replies = Mpsc.create ();
          kicked = Atomic.make false })
  in
  let m_labels =
    [ ("mode", "live");
      ("pool", if name_prefix = "" then "default" else name_prefix) ]
  in
  let t =
    { workers; threads = []; routes = Cmap.create ~shards:16 ();
      request_queue; reply_cache; on_fresh;
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

let submit ?reply_many ?conflict t ~raw ~reply_to =
  (* Cheap peek at the client id (first i32) to pick the owning worker,
     without a full decode — the worker does that. *)
  let client_id =
    if Bytes.length raw >= 4 then Int32.to_int (Bytes.get_int32_be raw 0)
    else 0
  in
  let idx = worker_of_client t (abs client_id) in
  Bq.put t.workers.(idx).ingress (Request (raw, conflict, reply_to, reply_many))

(* Never blocks: the ServiceManager must not wait on ClientIO. When the
   ingress is full the Kick is skipped and the flag stays up; the worker
   has items to take and drains replies after each one. *)
let deliver_reply t (reply : Client_msg.reply) =
  match Cmap.find_opt t.routes reply.id.client_id with
  | Some (idx, sink, many) ->
    let w = t.workers.(idx) in
    Mpsc.push w.replies (reply, sink, many);
    if not (Atomic.exchange w.kicked true) then (
      try ignore (Bq.try_put w.ingress Kick) with Bq.Closed -> ())
  | None -> ()

let ingress_length t =
  Array.fold_left (fun acc w -> acc + Bq.length w.ingress) 0 t.workers

let stop t =
  Array.iter (fun w -> Bq.close w.ingress) t.workers;
  Worker.join_all t.threads;
  List.iter
    (fun name -> Msmr_obs.Metrics.remove ~labels:t.m_labels name)
    metric_names
