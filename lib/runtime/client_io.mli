(** ClientIO module: pool of client-facing I/O threads.

    Section V-A: a static pool of threads, each owning a subset of client
    connections. A ClientIO thread deserialises incoming requests, checks
    the reply cache (answering duplicates immediately), and feeds fresh
    requests to the RequestQueue; replies produced by the ServiceManager
    are handed back to the owning thread, which serialises them and
    invokes the connection's send function. The one exception is a
    batch the ServiceManager's scheduler runs itself on an idle
    executor pool: it writes those replies directly ({!write_replies}),
    through the same grouping code, to every connection whose sinks do
    not block. Such sinks must therefore be callable from any thread
    and return without waiting on the client; a connection whose sinks
    may block (a socket write) says so at {!submit}, and only its
    worker ever calls them.

    Each worker waits on one source, its ingress channel. The
    ServiceManager never blocks handing a reply over: it pushes onto the
    worker's unbounded lock-free MPSC reply queue and adds one [Kick] to
    the ingress, unless one is still pending, or calls a sink that does
    not block. A worker passes a fresh request to [hand_off], which the
    replica backs with a blocking [put] on its bounded RequestQueue, so a
    saturated pipeline stops the worker taking new ingress and, once the
    ingress fills, blocks {!submit} —
    the back-pressure that ultimately pushes back on clients (Section
    V-E). This cannot deadlock: nothing downstream of the RequestQueue
    waits on ClientIO or on a sink that may block. A client that stops
    reading stalls only the worker that owns its connection. *)

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
  pool_size:int ->
  hand_off:
    (Msmr_platform.Thread_state.t -> Msmr_wire.Client_msg.request -> unit) ->
  reply_cache:Reply_cache.t ->
  unit ->
  t
(** Starts [pool_size] threads named [<prefix>ClientIO-<i>].

    [hand_off st req] passes each fresh request on to be ordered, on the
    worker thread whose state is [st]. It may block, which is how the
    pool feels back-pressure; it must not wait on ClientIO itself. *)

val submit :
  ?reply_many:batch_sink ->
  ?sink_blocks:bool ->
  t ->
  raw:bytes ->
  reply_to:sink ->
  unit
(** Hand one serialised request to the pool (round-robin per client id,
    so one client always lands on the same thread, like a persistent
    connection). A client has at most one request outstanding: the
    reply cache keeps only each client's latest sequence number. Blocks
    when that thread's ingress queue is full — equivalent to TCP
    back-pressure on a real connection. When
    [reply_many] is given, runs of replies destined for this connection
    that are drained in the same pass are delivered through it instead of
    one [reply_to] call each.

    [sink_blocks] (default [false]) says that [reply_to] and
    [reply_many] may block their caller, as a socket write to a client
    that stops reading does: this connection's replies are then only
    ever written by its ClientIO thread. With the default, the sinks
    must not block, since the ServiceManager's scheduler may call them
    ({!write_replies}). *)

val deliver_reply : t -> Msmr_wire.Client_msg.reply -> unit
(** Called by the ServiceManager: route the reply to the thread owning
    the client and return immediately. Replies for unknown clients are
    dropped (the client reconnected elsewhere). *)

val write_replies : t -> Msmr_wire.Client_msg.reply list -> unit
(** Called by the ServiceManager's scheduler for a batch it ran itself
    (DESIGN.md section 9): encode the replies and write them to their
    connections on the calling thread, grouped per connection as a
    worker's drain groups them, skipping the reply queue and its
    [Kick]. A reply whose connection's sinks may block
    ([~sink_blocks:true] at {!submit}) is handed over as by
    {!deliver_reply} instead. Never blocks on a client. Replies for
    unknown clients are dropped. *)

val deliver_encoded :
  t -> client_id:int -> sink:sink -> bytes -> unit
(** Like {!deliver_reply} for a payload already serialised (a lease
    read's reply): queue it for the thread that owns [client_id], which
    passes it to [sink], and return immediately. The ServiceManager uses
    it for sinks that may block. *)

val ingress_length : t -> int
(** Total queued ingress items across workers, pending reply kicks
    included (for statistics). *)

val stop : t -> unit
(** Close ingress queues and join the worker threads. *)
