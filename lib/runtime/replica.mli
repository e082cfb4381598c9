(** A full replica: the paper's threading architecture, assembled.

    Threads and queues (Figure 3):

    {v
      clients -> [ClientIO-0..k] ------+
                    ^                  | RequestQueue
                    | replies          | (+ Requests_ready on the DispatcherQueue)
                    |                  v
      [Replica] <--DecisionQueue-- [Protocol] <--DispatcherQueue-- link handler <-- peer p
                                      |  \--link.send--> peer p (heartbeats included)
                            LogQueue  v  (Durable mode)
                             [StableStorage] --(released sends)--> link.send
    v}

    A link send never blocks ({!Transport.link}): on the in-process
    {!Transport.Hub} it runs the peer's frame handler inline, so one
    Protocol thread puts a message straight on the next one's
    DispatcherQueue; over TCP the link carries the paper's ReplicaIO
    threads ({!Tcp_mesh}). A frame that finds a queue full is dropped,
    counted in [msmr_replica_send_queue_drops], and recovered by
    retransmission and catch-up.

    The Protocol thread owns the {!Msmr_consensus.Paxos} engine
    exclusively; every other thread communicates with it through queues
    (or, for the failure-detector timestamps that the frame handler and
    StableStorage record, through single-word shared state), enforcing
    the paper's no-lock rule inside the ReplicationCore. Protocol also
    batches: it drains the RequestQueue through the
    {!Msmr_consensus.Batcher} policy while the window has room and
    proposes each sealed batch itself (the paper's Batcher thread and
    ProposalQueue are folded in, DESIGN.md §11). It fires the retransmission, catch-up, lease-renewal and batch
    timers, and runs the {!Msmr_consensus.Failure_detector}: it sends
    the leader's heartbeats and acts on its own suspicions (the paper's
    retransmission and FailureDetector threads are folded in as well,
    DESIGN.md §2).

    Heartbeats therefore show that the ordering thread itself is alive.
    A leader whose Protocol thread is blocked (on a full LogQueue, say)
    for longer than [fd_timeout_s] stops heartbeating and is replaced,
    just as a crashed one would be.

    In [Durable] mode the Protocol thread never touches the disk: WAL
    events ride a bounded LogQueue to a dedicated StableStorage thread,
    which appends them in bursts — one fsync per burst under
    [Sync_every_write] (group commit) — and durability-dependent
    messages ([Prepare_ok], [Accepted], the leader's own [Accept]) are
    held back until the LSN they depend on is durable (see DESIGN.md
    §10). Under [Sync_periodic] the same thread runs the periodic
    fsync. *)

type t

type durability =
  | Ephemeral
      (** no stable storage — the paper's evaluation configuration *)
  | Durable of { dir : string; sync : Msmr_storage.Wal.sync_policy }
      (** WAL + snapshot checkpoints in [dir]; on [create] the replica
          recovers its view, accepted entries and executed prefix from
          there *)

val create :
  ?client_io_threads:int ->
  ?executor_threads:int ->
  ?durability:durability ->
  ?reconnects:(unit -> int) ->
  cfg:Msmr_consensus.Config.t ->
  me:Msmr_consensus.Types.node_id ->
  links:(Msmr_consensus.Types.node_id * Transport.link) list ->
  service:Service.t ->
  unit ->
  t
(** Build and start a replica. [links] must contain one link per peer
    (every node in [0, cfg.n) except [me]); the replica installs its
    frame handler on each before its Protocol thread starts, and
    {!stop} closes them. Defaults: 3 ClientIO threads
    and 1 executor. The Protocol thread batches requests itself. The
    RequestQueue is created for 1000 requests (the paper's setting),
    which its ring rounds up to 1024.

    [executor_threads] sizes the ServiceManager: the Replica thread is a
    scheduler over [executor_threads] Executor threads. Decided requests
    are routed by hashing the conflict keys reported by
    {!Service.t.conflict_keys}, so commands with intersecting key sets
    keep their decide order while disjoint commands may execute
    concurrently. [Global] commands (and commands spanning several lanes)
    run inline on the scheduler once the pool is quiescent. At-most-once
    is decided by the scheduler in decide order (a per-client dispatch
    frontier), so duplicate suppression is exact even though a client's
    non-conflicting commands may execute out of order on different
    executors. Snapshots and state installs always run with the pool
    quiescent. Parallel execution only helps services that classify
    commands with [Keys]; a service using the default [Global]
    classifier executes every command on the scheduler, in decide
    order. Only decided requests execute, and the scheduler classifies
    each one's conflict keys as it dispatches it.

    [reconnects] supplies the transport's reconnection counter (see
    {!Tcp_mesh}); it backs [msmr_replica_reconnect_total] and
    {!reconnects_count}. Default: a constant [0] (the in-process
    {!Transport.Hub} never reconnects). *)

val me : t -> Msmr_consensus.Types.node_id

val submit :
  ?reply_many:Client_io.batch_sink ->
  ?sink_blocks:bool ->
  t ->
  raw:bytes ->
  reply_to:Client_io.sink ->
  unit
(** Inject one serialised client request ({!Msmr_wire.Client_msg}); the
    reply is delivered, serialised, to [reply_to]. Blocks under overload
    (back-pressure). [reply_many], when given, receives coalesced runs of
    replies instead (see {!Client_io.submit}). [sink_blocks] (default
    [false]) says the sinks may block their caller, as a socket write
    does: the ServiceManager then never calls them itself, and a
    ClientIO thread writes every reply, lease reads' included. With the
    default, the sinks must return without waiting on the client.

    A client has at most one request outstanding: the reply cache keeps
    only each client's newest executed sequence number.

    Read frames ({!Msmr_wire.Client_msg.is_read_raw}) take the lease fast
    path instead: they bypass ClientIO, batching and Paxos and ride the
    DecisionQueue straight to the state machine, which answers through
    [reply_to] with a serialised {!Msmr_wire.Client_msg.read_reply}
    ([Read_unsupported] when the replica runs with
    [lease_enabled = false]). The read's payload must be a non-mutating
    command of the service — executing it locally must not change state. *)

val is_leader : t -> bool
val current_view : t -> Msmr_consensus.Types.view

val bsz_now : t -> int
(** The batching policy's BSZ limit in force: [cfg.max_batch_bytes], or 8 × the
    mean wire size of the requests batched so far when that is larger. *)

val executed_count : t -> int
(** Client requests executed so far (excludes duplicates and noops). *)

val decided_count : t -> int

val exec_inline_count : t -> int
(** Decided batches the scheduler executed itself on an idle executor
    pool (the value behind [msmr_replica_exec_inline_total]). *)

val executor_dispatched_count : t -> int
(** Requests the scheduler handed to the executor pool (the value behind
    [msmr_replica_executor_dispatched]). *)

val view_changes_count : t -> int
(** Views this replica has installed beyond its starting one (the value
    behind [msmr_replica_view_changes_total]). *)

val suspects_count : t -> int
(** Leader suspicions raised by this replica's failure detector (plus
    any {!inject_suspect} calls). *)

val reconnects_count : t -> int
(** Peer-link reconnections reported by the transport's [reconnects]
    callback; always [0] over a {!Transport.Hub}. *)

val lease_held : t -> bool
(** Does this replica hold a currently valid leader lease (own clock)?
    Always [false] with [lease_enabled = false]. *)

val lease_renewals_count : t -> int
(** Lease rounds that reached quorum (acquisitions + renewals); the value
    behind [msmr_lease_renewals_total]. *)

val reads_served_count : t -> int
(** Linearizable reads answered from the local state machine under a
    valid lease ([msmr_read_served_total]). *)

val reads_rejected_count : t -> int
(** Linearizable reads refused with [Not_leaseholder]
    ([msmr_read_rejected_total]). *)

val stale_reads_served_count : t -> int
(** Bounded-staleness reads served ([msmr_read_stale_served_total]). *)

val stale_reads_rejected_count : t -> int
(** Bounded-staleness reads refused with [Too_stale]
    ([msmr_read_stale_rejected_total]). *)

(** {2 Online membership change (DESIGN.md §17)} *)

val membership : t -> Msmr_consensus.Membership.t
(** The newest membership epoch this replica has adopted (at execute
    time of the ordering [Reconfig] instance). *)

val is_member : t -> bool
(** Is this replica in its own adopted membership? A removed replica is
    fenced: it never votes, grants a lease, heartbeats or serves a
    read. *)

val request_reconfig : t -> Msmr_consensus.Membership.t -> unit
(** Hand a target membership (epoch = current + 1, built with
    {!Msmr_consensus.Membership.add_learner} / [promote] / [remove]) to
    the Protocol thread, which orders it through the log. Best-effort:
    rejected proposals (not leader, reconfig already in flight, stale
    epoch) are dropped — poll {!membership} and retry. *)

val reconfigs_applied_count : t -> int
(** Membership epochs adopted ([msmr_replica_reconfig_applied_total]). *)

val snapshot_installs_count : t -> int
(** Snapshots installed through catch-up state transfer
    ([msmr_replica_snapshot_install_total]). *)

val first_undecided : t -> int
(** The engine's decided frontier as last published by the Protocol
    thread — the catch-up lag measure the join driver uses. *)

type queue_stats = {
  request_queue : int;
  dispatcher_queue : int;
  decision_queue : int;
  window_in_use : int;
}

val queue_stats : t -> queue_stats
(** Instantaneous sizes of the internal queues (Table I's quantities). *)

val inject_suspect : t -> unit
(** Test hook: make this replica suspect the current leader now, as if
    its failure detector had timed out. *)

val stall_stable_storage : t -> bool -> unit
(** Test hook: [stall_stable_storage t true] parks the StableStorage
    thread — no WAL append, no fsync, and no durability-gated message
    ([Prepare_ok]/[Accepted]/[Accept]) is released to the links —
    until [stall_stable_storage t false]. No-op on an [Ephemeral]
    replica. *)

val stop : t -> unit
(** Stop all threads and close the peer links. Idempotent. It does not
    wait out a failure-detector period: the detector's timers are the
    Protocol thread's, which wakes when its queue closes. *)

module Cluster : sig
  (** Convenience: an n-replica in-process cluster over a {!Transport.Hub}. *)

  type replica := t

  type t

  val create :
    ?client_io_threads:int ->
    ?executor_threads:int ->
    ?durability:(int -> durability) ->
    cfg:Msmr_consensus.Config.t ->
    service:(unit -> Service.t) ->
    unit ->
    t
  (** Fresh service instance per replica; [durability] maps a node id to
      its storage mode (default: all ephemeral); [executor_threads] is
      passed to every replica's {!create}. *)

  val replicas : t -> replica array
  val hub : t -> Transport.Hub.t

  val leader : t -> replica
  (** The replica currently believing it leads (falls back to replica 0
      if none does). *)

  val await_leader : ?timeout_s:float -> t -> replica
  (** Wait until some replica reports leadership. @raise Failure on
      timeout. *)

  val kill : t -> int -> unit
  (** Crash replica [i] in place: stop all its threads and close its
      links. Peers' sends to it drop silently until {!restart}. *)

  val restart : t -> int -> replica
  (** Rebuild replica [i] (idempotently stopping the old incarnation)
      with the same construction parameters; the new incarnation
      installs fresh handlers on its hub links. Under
      [Durable] durability the new incarnation recovers from the WAL in
      the same directory — the live crash-recovery path. Returns the new
      replica, which also replaces slot [i] of {!replicas}. *)

  val join : ?timeout_s:float -> ?promote:bool -> t -> int -> unit
  (** Bring node [i] (a running spare from the capacity universe, e.g.
      outside [Config.members0]) into the membership: order an
      add-learner epoch through the log, wait until state transfer has
      caught the joiner up to within one window of the leader, then
      (unless [promote = false]) order its promotion into the voting
      set. Blocks; @raise Failure on [timeout_s] (default 10 s per
      phase). *)

  val decommission : ?timeout_s:float -> t -> int -> unit
  (** Order node [i]'s removal from the membership and wait for
      adoption. The removed node keeps running but is fenced by the
      epoch change. @raise Failure on timeout. *)

  val stop : t -> unit
end
