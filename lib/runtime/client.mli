(** Closed-loop client, as used in the paper's evaluation: each client
    sends one request, waits for the reply, then sends the next.

    One policy over two links. Requests are numbered sequentially; an
    attempt that times out or cannot reach its replica is resent to
    another replica, and the reply cache guarantees at-most-once
    execution. Replies to earlier requests are discarded. Reads follow
    redirect hints with a jittered backoff (1 ms doubling to 50 ms). The
    in-process link ({!create}) moves a failed attempt to a member that
    claims leadership, else to the next member; the TCP link
    ({!connect}) moves to the next address, and backs off refused
    connects from 20 ms doubling to 0.5 s.

    Unlike the TCP client this module replaced, TCP late replies now
    count in {!late_replies}, a TCP read bounce waits the read backoff,
    not the reconnect one, and a timeout adds to {!redirects} only when
    the target changes. Not thread-safe: one [t] per caller thread. *)

type t

val create :
  ?timeout_s:float ->
  cluster:Replica.Cluster.t ->
  client_id:int ->
  unit ->
  t
(** In-process client. [timeout_s] (default 1.0) is the per-attempt reply
    timeout before the request is resent. The client parks on its reply
    channel until a reply or the timeout. *)

val connect :
  ?timeout_s:float ->
  addrs:Unix.sockaddr list ->
  client_id:int ->
  unit ->
  t
(** TCP client. [addrs] are the client-facing addresses of the replicas
    in node-id order (read redirect hints index them), tried in order.
    No connection is made until the first request. [timeout_s] (default
    1.0) is the per-attempt reply timeout. *)

val call : t -> bytes -> bytes
(** Execute one request on the replicated service and return its reply.
    Blocks; retries internally until the cluster answers.
    @raise Failure when a TCP client's connects are refused 3·n times in
    a row. *)

val calls_made : t -> int

val retries : t -> int
(** Failed attempts (timed out or replica unreachable) that were resent. *)

val redirects : t -> int
(** Times a failed write attempt moved this client to a different
    replica (leader changes as seen from the client side). *)

val late_replies : t -> int
(** Replies discarded because they do not answer the current request: a
    retried request can be answered more than once, and the extra
    answers may arrive while a later request waits. *)

exception Reads_unsupported
(** The cluster runs with [lease_enabled = false]; reads cannot be served
    and are not retried. *)

val read : t -> bytes -> bytes
(** Linearizable read on the lease fast path: served by the leaseholder
    from its executed state machine, no consensus round. The payload must
    be a non-mutating command of the service. Redirects on
    [Not_leaseholder] (following the replica's leader hint) and retries
    across lease renewals and view changes.
    @raise Reads_unsupported when leases are disabled. *)

val read_stale : t -> staleness_s:float -> bytes -> bytes
(** Bounded-staleness read served by any replica whose state is provably
    no older than [staleness_s]; replicas that cannot prove freshness
    answer [Too_stale] and the client bounces (counted in
    {!read_redirects}). The first attempt goes to replica
    [client_id mod n], spreading clients over the cluster instead of
    aiming them at the leader.
    @raise Reads_unsupported when leases are disabled. *)

val read_redirects : t -> int
(** [Not_leaseholder] / [Too_stale] bounces the read fast path took. *)

val update_addrs : t -> Unix.sockaddr list -> unit
(** TCP client, membership changed: replace the endpoint set (in node-id
    order, like [connect]'s [addrs]). The live connection is kept when
    its address is unchanged at the same index; a target whose address
    moved restarts from the head of the new list, and ordinary rotation
    steers the client back to the leader.
    @raise Invalid_argument on an in-process client or an empty list. *)

val close : t -> unit
(** Drop a TCP client's connection (the next request reconnects), or
    close an in-process client's reply channel (the client is then
    unusable). *)
