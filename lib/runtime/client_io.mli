(** ClientIO module: pool of client-facing I/O threads.

    Section V-A: a static pool of threads, each owning a subset of client
    connections. A ClientIO thread deserialises incoming requests, checks
    the reply cache (answering duplicates immediately), and feeds fresh
    requests to the RequestQueue; replies produced by the ServiceManager
    are handed back to the owning thread, which serialises them and
    invokes the connection's send function.

    Each worker waits on one source, its ingress channel. The
    ServiceManager never blocks handing a reply over: it pushes onto the
    worker's unbounded lock-free MPSC reply queue and adds one [Kick] to
    the ingress, unless one is still pending. A worker hands a fresh
    request to the bounded RequestQueue with a blocking [put], so a
    saturated pipeline stops it taking new ingress and, once the ingress
    fills, blocks {!submit} — the back-pressure that ultimately pushes
    back on clients (Section V-E). This cannot deadlock: nothing
    downstream of the RequestQueue waits on ClientIO. *)

type t

type sink = bytes -> unit
(** Where a serialised reply is delivered (in-process callback or socket
    write). *)

type batch_sink = bytes list -> unit
(** Optional coalesced variant of {!sink}: delivers a whole run of replies
    for one connection in a single call, letting socket-backed connections
    flush them with one buffered write ({!Msmr_wire.Frame.write_many}).
    Payloads are in delivery order. *)

val create :
  ?name_prefix:string ->
  ?on_fresh:
    (Msmr_wire.Client_msg.request -> Service.conflict option -> unit) ->
  pool_size:int ->
  request_queue:Msmr_wire.Client_msg.request Msmr_platform.Channel.t ->
  reply_cache:Reply_cache.t ->
  unit ->
  t
(** Starts [pool_size] threads named [<prefix>ClientIO-<i>].

    [on_fresh] (default none) is the speculative pre-dispatch hook: it
    runs on the worker thread for every fresh request — after the reply
    cache said [Fresh], before the request is handed toward the Batcher —
    with the conflict class the submitter threaded through {!submit}, if
    any. The replica uses it to pre-dispatch the request to its executor
    lane ahead of commit (DESIGN.md section 16). *)

val submit :
  ?reply_many:batch_sink ->
  ?conflict:Service.conflict ->
  t ->
  raw:bytes ->
  reply_to:sink ->
  unit
(** Hand one serialised request to the pool (round-robin per client id,
    so one client always lands on the same thread, like a persistent
    connection). A client has at most one request outstanding: the
    reply cache keeps only each client's latest sequence number, so
    with more than one Batcher thread a pipelined client's older
    requests can be decided after newer ones and are then dropped as
    stale. Blocks when that thread's ingress queue is full —
    equivalent to TCP back-pressure on a real connection. When
    [reply_many] is given, runs of replies destined for this connection
    that are drained in the same pass are delivered through it instead of
    one [reply_to] call each. [conflict] carries the router's conflict
    classification of this request, so the spine classifies once at
    ingress instead of re-deriving it at every stage (it reaches the
    [on_fresh] hook and, through it, the executor scheduler). *)

val deliver_reply : t -> Msmr_wire.Client_msg.reply -> unit
(** Called by the ServiceManager: route the reply to the thread owning
    the client and return immediately. Replies for unknown clients are
    dropped (the client reconnected elsewhere). *)

val ingress_length : t -> int
(** Total queued ingress items across workers, pending reply kicks
    included (for statistics). *)

val stop : t -> unit
(** Close ingress queues and join the worker threads. *)
