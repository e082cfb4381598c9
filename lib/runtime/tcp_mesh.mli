(** Self-healing replica-to-replica TCP mesh.

    Every replica listens on its own address; for each pair the
    higher-id replica dials the lower-id one and identifies itself with
    a one-frame hello carrying its node id. {!create} blocks until the
    whole mesh is up once (peers may start in any order).

    Unlike a one-shot connect, the mesh stays alive for the process
    lifetime: when an established link dies mid-run, the dialing side
    redials with capped exponential backoff plus per-pair jitter, the
    listening side accepts the replacement, and the {!links} facades
    splice the new connection in transparently — senders drop frames
    while the link is down (the retransmitter recovers them), readers
    block until the link returns. Re-establishments are counted in
    {!reconnects}, which is what [msmr_replica_reconnect_total] reports
    when wired through [Replica.create ~reconnects]. *)

type t

val create :
  ?connect_timeout_s:float ->
  me:Msmr_consensus.Types.node_id ->
  addrs:(Msmr_consensus.Types.node_id * Unix.sockaddr) list ->
  unit ->
  t
(** [addrs] must contain every node including [me] (whose address is the
    one listened on).
    @raise Failure when the initial mesh cannot be completed within
    [connect_timeout_s] (default 30 s). *)

val links : t -> (Msmr_consensus.Types.node_id * Transport.link) list
(** One persistent link facade per peer, for [Replica.create]. Closing a
    facade permanently retires that peer's slot (no further redials). *)

val reconnects : t -> int
(** Links re-established after their initial connection — the mesh's
    contribution to [msmr_replica_reconnect_total]. *)

val add_peer :
  t -> peer:Msmr_consensus.Types.node_id -> addr:Unix.sockaddr -> Transport.link
(** Online membership change: splice [peer]'s slot into the mesh mid-run
    (a joiner), or reopen it after {!remove_peer} (re-admission). Returns
    the peer's link facade; the connection itself is established
    asynchronously by the dialer/acceptor, with sends dropping until it
    is up (retransmission recovers them). Idempotent for an
    already-open peer. *)

val remove_peer : t -> peer:Msmr_consensus.Types.node_id -> unit
(** Retire a decommissioned peer's slot: close its connection, stop
    redialing, and make its facade's reads return [None]. The slot can
    be reopened later with {!add_peer}. No-op for an unknown peer. *)

val close : t -> unit
(** Stop the acceptor and dialer threads and close every connection.
    Idempotent. *)
