(** A full replica: the paper's threading architecture, assembled.

    Threads and queues (Figure 3):

    {v
      clients -> [ClientIO-0..k]  --RequestQueue-->  [Batcher]
                    ^                                   |
                    | replies                     ProposalQueue
                    |                                   v
      [Replica] <--DecisionQueue-- [Protocol] <--DispatcherQueue-- [ReplicaIORcv-p]
                                      |  \--SendQueue-p--> [ReplicaIOSnd-p] --> peer p
                                      |
                     [FailureDetector]  [Retransmitter]
                                      |
                            LogQueue  v  (Durable mode)
                             [StableStorage] --(released sends)--> SendQueues
    v}

    The Protocol thread owns the {!Msmr_consensus.Paxos} engine
    exclusively; every other thread communicates with it through queues
    (or, for the failure-detector timestamps, through single-word shared
    state), enforcing the paper's no-lock rule inside the
    ReplicationCore.

    In [Durable] mode the Protocol thread never touches the disk: WAL
    events ride a bounded LogQueue to a dedicated StableStorage thread,
    which appends them in bursts — one fsync per burst under
    [Sync_every_write] (group commit) — and durability-dependent
    messages ([Prepare_ok], [Accepted], the leader's own [Accept]) are
    held back until the LSN they depend on is durable (see DESIGN.md
    §10). *)

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
  ?batcher_threads:int ->
  ?executor_threads:int ->
  ?gid:int ->
  ?durability:durability ->
  ?reconnects:(unit -> int) ->
  cfg:Msmr_consensus.Config.t ->
  me:Msmr_consensus.Types.node_id ->
  links:(Msmr_consensus.Types.node_id * Transport.link) list ->
  service:Service.t ->
  unit ->
  t
(** Build and start a replica. [links] must contain one link per peer
    (every node in [0, cfg.n) except [me]). Defaults: 3 ClientIO threads,
    1 Batcher thread (more is the paper's Section VI-B extension). The
    RequestQueue holds 1000 requests (the paper's setting), the
    ProposalQueue 20 batches.

    [executor_threads] sizes the ServiceManager. The default [1] is the
    paper's single Replica thread executing decisions inline. With [k > 1]
    the Replica thread becomes a scheduler over [k] Executor threads:
    decided requests are routed by hashing the conflict keys reported by
    {!Service.t.conflict_keys}, so commands with intersecting key sets
    (and all [Global] ones) keep their decide order while disjoint
    commands execute concurrently. At-most-once is decided by the
    scheduler in decide order (a per-client dispatch frontier), so
    duplicate suppression is exact even though a client's non-conflicting
    commands may execute out of order on different executors. Snapshots
    and state installs always run with the pool quiescent. Parallel
    execution only helps services
    that classify commands with [Keys]; a service using the default
    [Global] classifier degenerates to serial execution plus barrier
    overhead.

    [gid] is this replica's consensus group in a multi-group deployment
    (see {!Replica_group} and [Config.groups]): the engine bootstraps at
    view [gid] — so node [gid mod cfg.n] leads the group — and metrics
    carry a [group="<gid>"] label. Omitted (the default), the replica is
    the classic single-group deployment, unchanged.

    [reconnects] supplies the transport's reconnection counter (see
    {!Tcp_mesh}); it backs [msmr_replica_reconnect_total] and
    {!reconnects_count}. Default: a constant [0] (the in-process
    {!Transport.Hub} never reconnects). *)

val me : t -> Msmr_consensus.Types.node_id

val submit :
  ?reply_many:Client_io.batch_sink ->
  ?conflict:Service.conflict ->
  t ->
  raw:bytes ->
  reply_to:Client_io.sink ->
  unit
(** Inject one serialised client request ({!Msmr_wire.Client_msg}); the
    reply is delivered, serialised, to [reply_to]. Blocks under overload
    (back-pressure). [reply_many], when given, receives coalesced runs of
    replies instead (see {!Client_io.submit}). [conflict] carries an
    upstream conflict classification of the request (the multi-group
    {!Router} computes one to pick the group), so the spine classifies
    each request once (see {!Client_io.submit}).

    A client has at most one request outstanding. The reply cache keeps
    only each client's newest executed sequence number, so with
    [batcher_threads > 1] a pipelined client's requests can be decided
    out of order, and its older requests are then dropped as stale.

    Read frames ({!Msmr_wire.Client_msg.is_read_raw}) take the lease fast
    path instead: they bypass ClientIO/Batcher/Paxos and ride the
    DecisionQueue straight to the state machine, which answers through
    [reply_to] with a serialised {!Msmr_wire.Client_msg.read_reply}
    ([Read_unsupported] when the replica runs with
    [lease_enabled = false]). The read's payload must be a non-mutating
    command of the service — executing it locally must not change state. *)

val is_leader : t -> bool
val current_view : t -> Msmr_consensus.Types.view

val tuned_now : t -> int * int
(** [(bsz, wnd)] currently in force. With [cfg.auto_tune] these are the
    autotune controller's latest published values (the Batcher threads
    read the same atomics); without it they stay at the static config. *)

val executed_count : t -> int
(** Client requests executed so far (excludes duplicates and noops). *)

val decided_count : t -> int

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

(** {2 Speculative execution accounting (Config.speculate)}

    All four are [0] unless the replica runs with [cfg.speculate = true],
    [executor_threads > 1] and a service implementing
    {!Service.t.execute_undo}. *)

val spec_dispatched_count : t -> int
(** Speculation frames admitted and pre-dispatched to the executor lanes
    ahead of commit ([msmr_executor_spec_dispatch_total]). *)

val spec_confirmed_count : t -> int
(** Frames whose predicted order matched the decide stream — their staged
    reply was promoted and delivered without re-execution
    ([msmr_executor_spec_confirm_total]). *)

val spec_aborted_count : t -> int
(** Frames rolled back (mispredict, view change, Global command,
    snapshot or linearizable read) ([msmr_executor_spec_abort_total]). *)

val spec_requeued_count : t -> int
(** Decided requests re-executed on the ordered path after a mispredict
    on their key ([msmr_executor_spec_requeue_total]). *)

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
  proposal_queue : int;
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
    ([Prepare_ok]/[Accepted]/[Accept]) is released to the send queues —
    until [stall_stable_storage t false]. No-op on an [Ephemeral]
    replica. *)

val stop : t -> unit
(** Stop all threads and close the peer links. Idempotent. *)

module Cluster : sig
  (** Convenience: an n-replica in-process cluster over a {!Transport.Hub}. *)

  type replica := t

  type t

  val create :
    ?client_io_threads:int ->
    ?executor_threads:int ->
    ?gid:int ->
    ?durability:(int -> durability) ->
    cfg:Msmr_consensus.Config.t ->
    service:(unit -> Service.t) ->
    unit ->
    t
  (** Fresh service instance per replica; [durability] maps a node id to
      its storage mode (default: all ephemeral); [executor_threads] and
      [gid] are passed to every replica's {!create}
      (a cluster with [gid = g] is one group of a multi-group deployment;
      see {!Replica_group} for the assembled sharded cluster). *)

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
      links. Peers see dead connections; their sends drop silently until
      {!restart}. *)

  val restart : t -> int -> replica
  (** Rebuild replica [i] (idempotently stopping the old incarnation)
      with fresh hub queues and the same construction parameters. Under
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
