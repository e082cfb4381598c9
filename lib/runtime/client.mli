(** Closed-loop client, as used in the paper's evaluation: each client
    sends one request, waits for the reply, then sends the next.

    Requests are numbered sequentially; on timeout the same request is
    retransmitted (possibly to another replica after a leader change) and
    the reply cache guarantees at-most-once execution. *)

type t

val create :
  ?timeout_s:float ->
  cluster:Replica.Cluster.t ->
  client_id:int ->
  unit ->
  t
(** [timeout_s] (default 1.0) is the per-attempt reply timeout before the
    request is resent, rotating to the next replica. The client parks on
    its reply channel until a reply or the timeout; the channel holds a
    self-pipe (two file descriptors) from the first wait until the
    client is collected. *)

val call : t -> bytes -> bytes
(** Execute one request on the replicated service and return its reply.
    Blocks; retries internally until the cluster answers. *)

val calls_made : t -> int

val retries : t -> int
(** Timed-out attempts that were retransmitted. *)

val redirects : t -> int
(** Times a timeout moved this client to a different replica (leader
    changes as seen from the client side). *)

val late_replies : t -> int
(** Replies discarded because they answered an earlier request: a
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
    with capped jittered backoff across lease renewals and view changes.
    @raise Reads_unsupported when leases are disabled. *)

val read_stale : t -> staleness_s:float -> bytes -> bytes
(** Bounded-staleness read served by any replica whose state is provably
    no older than [staleness_s]; replicas that cannot prove freshness
    answer [Too_stale] and the client bounces (counted in
    {!read_redirects}). First attempt is spread over the whole cluster,
    not aimed at the leader.
    @raise Reads_unsupported when leases are disabled. *)

val read_redirects : t -> int
(** [Not_leaseholder] / [Too_stale] bounces the read fast path took. *)
