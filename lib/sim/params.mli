(** Simulation parameters: cluster profiles, CPU cost model, workload.

    The cost model is calibrated (see DESIGN.md §5) so the simulated
    JPaxos leader matches the paper's anchor points: ≈15 K requests/s on
    one `parapluie` core, NIC-bound ≈100-120 K requests/s at 8+ cores,
    with the per-thread busy shares of Figure 8. *)

type profile = {
  profile_name : string;
  max_cores : int;
  cpu_speed : float;
      (** single-thread speed relative to parapluie (costs divide by it) *)
  pkt_rate : float;      (** NIC packets/s per direction (kernel limit) *)
  bandwidth : float;     (** bytes/s *)
}

val parapluie : profile
(** 24-core AMD Opteron 6164 HE cluster, 1 GbE. *)

val edel : profile
(** 8-core Intel Xeon E5520 cluster, 1 GbE. *)

type costs = {
  client_read : float;   (** ClientIO: read + deserialise + cache check *)
  client_write : float;  (** ClientIO: serialise + write reply *)
  batcher_per_req : float;
  batcher_per_batch : float;
  protocol_per_event : float;
  exec_per_req : float;  (** ServiceManager: execute + reply cache update *)
  io_ser_per_msg : float;
  io_ser_per_byte : float;
  io_deser_per_msg : float;
  io_deser_per_byte : float;
  switch_cost : float;   (** context switch *)
  dispatch_per_req : float;
      (** parallel ServiceManager: scheduler cost to classify + route one
          request to an executor (paid only when [exec_threads > 1]) *)
}

val default_costs : costs

type sync_policy =
  | Sync_none
      (** no stable storage — the paper's evaluation configuration, and
          the exact pre-durability simulation path *)
  | Sync_serial
      (** [Wal.Sync_every_write] without the pipeline: the Protocol
          thread blocks on one device fsync per persisted event — the
          serial-bottleneck shape the durability pipeline removes *)
  | Sync_group
      (** the StableStorage pipeline: a per-node StableStorage process
          drains a log queue in bursts, pays one device fsync per burst
          (group commit), then releases the gated sends *)

type t = {
  profile : profile;
  costs : costs;
  n : int;                  (** replicas *)
  groups : int;
      (** independent consensus groups (multi-group Paxos, modelled
          only in the simulator). [1] (the default) is the paper's single
          group. Each group runs its own Paxos engine, Batcher(s),
          ServiceManager, lease, failure detector and log on every node,
          sharing the node's CPU, NIC, ReplicaIO links and
          StableStorage; group [g] is led by node [g mod n], spreading
          leader work (and leader NIC load) round-robin over the
          cluster. Clients are partitioned over groups by conflict key
          (modelled as [cid mod groups]). Every other field applies
          per group, except [reconfig_at], which requires
          [groups = 1]; with [groups > 1], a non-empty [members0] must
          hold every group's home [g mod n]. *)
  cores : int;              (** cores per node *)
  client_io_threads : int;
  wnd : int;                (** max parallel ballots (WND) *)
  bsz : int;                (** max batch bytes (BSZ) *)
  n_clients : int;
  request_size : int;       (** wire size of one request (paper: 128 B) *)
  reply_size : int;
  warmup : float;           (** simulated seconds discarded *)
  duration : float;         (** simulated seconds measured *)
  net_contention_per_io_thread : float;
      (** kernel network-stack slowdown per ClientIO thread beyond 8 —
          the effect behind Figure 9's degradation *)
  n_batchers : int;
      (** extension (paper §VI-B): parallel Batcher threads, each with
          its own request queue *)
  rss : bool;
      (** extension (paper footnote 5): Receive Side Scaling spreads NIC
          interrupts over cores, doubling the kernel packet budget *)
  exec_threads : int;
      (** extension (CBASE-style parallel ServiceManager): executor
          threads the scheduler fans decided requests out to. [1] (the
          default) is the paper's serial ServiceManager, simulated on the
          exact pre-executor path. *)
  steal : bool;
      (** extension (lock-free runtime): work-stealing executor pool.
          Requests route to per-conflict-key lanes (8 per executor);
          each lane is owned by a token held by exactly one executor at
          a time, and an executor whose token queue runs dry steals
          half the victim's tokens. [false] (the default, also used
          when [exec_threads <= 1]) keeps the fixed-route pool
          (golden-pinned). Deterministic: victims
          are scanned in ring order, no RNG. *)
  speculate : bool;
      (** extension (DESIGN.md section 16): early scheduling +
          optimistic speculative execution. The leader pre-dispatches
          each fresh request into its executor lane at ingress and
          executes it optimistically against the predicted (log-append)
          order; the decide then confirms the staged result or rolls it
          back and re-executes ordered. Needs an executor pool
          ([exec_threads > 1]); a serial ServiceManager never
          speculates. [false] (the default) is byte-for-byte the ordered
          path (golden-pinned). A simulator-only model: the live
          runtime executes only decided requests. *)
  mispredict_ratio : float;
      (** fraction of speculations whose prediction is forced wrong
          (deterministic floor-counter pattern, no RNG) — models
          reproposal / reordering windows that the single-leader happy
          path never exhibits, making rollback falsifiable. [0.0] (the
          default) mispredicts only on real reorderings (view changes,
          chaos). Applies only when [speculate = true]. *)
  skew : float;
      (** fraction of clients classified "hot" (deterministic hash, no
          RNG): hot clients all route to executor 0's lanes, modelling
          a zipfian-like conflict-key skew that convoys a fixed-route
          pool. [0.0] (the default) is byte-for-byte the uniform path.
          Applies only when [exec_threads > 1]. *)
  conflict_ratio : float;
      (** fraction of decided requests classified Global (conflicting
          with everything): each forces a quiescence barrier before
          executing serially on the scheduler. [0.0] = fully parallel
          workload; [1.0] = serial. Deterministic pattern, no RNG. *)
  sync_policy : sync_policy;
      (** durable-mode model; [Sync_none] (the default) leaves the
          simulation byte-for-byte the pre-durability path *)
  fsync_latency : float;
      (** seconds one device fsync takes (default 5 ms — a commodity
          magnetic disk of the paper's era); fsyncs on one node's device
          serialise *)
  auto_tune : bool;
      (** run the {!Msmr_consensus.Autotune} controller on the leader in
          simulated time: [wnd]/[bsz] become the starting point and the
          controller retunes them every [tune_epoch]. [false] (the
          default) is byte-for-byte the static path. Runs stay fully
          deterministic either way. Requires [reconfig_at = []]. The
          live runtime has no such controller (DESIGN.md §11). *)
  tune_epoch : float;  (** controller epoch in simulated seconds *)
  read_ratio : float;
      (** fraction of each client's operations that are reads (the
          read-heavy fast path, DESIGN.md §15). [0.0] (the default) is
          byte-for-byte the all-write path (golden-pinned). Reads are
          interleaved deterministically (floor-counter pattern, no RNG).
          With [lease = false] reads take the ordered path like any
          write — the "ordered-read baseline" bench008 compares
          against. *)
  lease : bool;
      (** leader-lease read fast path: group leaders run quorum-granted
          lease renewal rounds ({!Msmr_consensus.Lease} driven in
          simulated time on per-node drifted clocks) and serve reads
          from local executed state, bypassing Batcher/Protocol/
          replication; non-holders reject and the client retries toward
          the leader hint. [false] (the default) leaves the event
          stream byte-for-byte the lease-free one (golden-pinned). *)
  stale_reads : bool;
      (** with [lease]: reads carry a staleness bound
          ([staleness_bound]) and spread over {e all} replicas; a
          follower answers from local state when it can prove freshness
          (caught-up decide stream within the bound), else rejects.
          [false] sends every read to the leaseholder
          (linearizable). *)
  clock_skew : float;
      (** bound on per-node clock error (seconds): node [i] reads time
          [t*(1+drift_i) + offset_i] with the deterministic per-node
          drift and offset kept within this bound — the clock model the
          lease's [clock_skew_bound_s] padding is up against. [0.0] =
          perfect clocks. *)
  lease_duration : float;
      (** lease length in simulated seconds (renewed every third);
          becomes [Config.lease_duration_s] for the sim's lease
          policy *)
  staleness_bound : float;
      (** client-supplied bound for [stale_reads] (seconds) *)
  faults : Sfault.event list;
      (** fault-injection schedule. [[]] (the default) disables the whole
          chaos machinery and is byte-for-byte the fault-free simulation
          path (golden-pinned). Non-empty runs stay fully deterministic:
          the schedule plus [chaos_seed] fix every drop, delay and
          duplication. *)
  members0 : int list;
      (** boot-time voting membership over the node-id universe [0, n)
          ([Config.members0]); [[]] (the default) means all nodes.
          Non-member nodes still run as processes — they are the spare
          capacity [reconfig_at] can grow into. *)
  reconfig_at : (float * int list) list;
      (** membership-change schedule: at each simulated time, drive the
          cluster's voter set to the given target (adding nodes as
          learners, promoting them once caught up, then removing the
          rest), one consensus-ordered step at a time through the
          current leader. [[]] (the default) disables the reconfig
          driver; like [faults], a non-empty schedule enables the chaos
          machinery (failure detector, retransmissions, safety
          checking) and stays fully deterministic. Requires
          [groups = 1]. *)
  chaos_seed : int;  (** seeds the per-run chaos PRNG ({!Sfault.make_net}) *)
  chaos_fd_interval : float;
      (** failure-detector heartbeat interval under chaos (overrides
          [Config.fd_interval_s]; the fault-free path runs no detector) *)
  chaos_fd_timeout : float;   (** leader-silence suspicion timeout *)
  chaos_rtx_interval : float; (** retransmission interval under chaos *)
  chaos_client_timeout : float;
      (** chaos clients retransmit the same request (to the node they
          believe leads) after this long without a reply *)
  chaos_bucket : float;
      (** width of the completion-timeline buckets in the result (the
          throughput trajectory through a fault) *)
}

val default : ?profile:profile -> n:int -> cores:int -> unit -> t
(** Paper defaults: WND 10, BSZ 1300, 1800 clients, 128 B requests, 8 B
    replies, ClientIO threads auto-chosen by {!auto_io_threads}. *)

val auto_io_threads : cores:int -> int
(** The paper tunes ClientIO threads per core count (3-6 optimal); this
    picks a sensible value: [max 1 (min 5 (cores - 1))]. *)
