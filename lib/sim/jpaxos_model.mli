(** Simulated JPaxos replica group: the paper's threading architecture
    (Figure 3) running the {e real} {!Msmr_consensus.Paxos} engine on the
    simulated substrate (cores, locks, queues, NICs).

    Per replica the model spawns the same threads as the live runtime —
    [ClientIO-0..k], [Batcher], [Protocol], [Replica] (ServiceManager)
    and one [ReplicaIOSnd-p]/[ReplicaIORcv-p] pair per peer — and drives
    them with a closed-loop client population attached to the leader
    (node 0), as in the paper's evaluation setup. With
    [Params.groups > 1] the per-group stages are replicated per
    consensus group (thread names gain a [-g<g>] suffix) while the
    CPU, NIC, ReplicaIO and StableStorage stay shared per node.

    One call to {!run} is one experiment run; it returns every quantity
    the paper's figures and tables report. *)

type replica_report = {
  cpu_util_pct : float;
      (** total CPU consumed, % of one core (100% = 1 core busy) *)
  blocked_pct : float;
      (** sum of thread blocked time, % of the run duration *)
  threads : (string * Sstats.totals) list;   (** per-thread profile *)
}

type result = {
  throughput : float;            (** client requests completed / second *)
  client_latency : float;        (** mean client round-trip (s) *)
  instance_latency : float;      (** mean leader propose→decide (s) *)
  avg_batch_reqs : float;
  avg_batch_bytes : float;
  avg_window : float;            (** mean parallel ballots in execution *)
  avg_request_queue : float;
  avg_proposal_queue : float;
  avg_dispatcher_queue : float;
  replicas : replica_report array;   (** index 0 = leader *)
  leader_tx_pps : float;
  leader_rx_pps : float;
  leader_tx_mbps : float;        (** MB/s out *)
  leader_rx_mbps : float;
  rtt_leader : float;            (** probe RTT leader <-> follower (s) *)
  rtt_followers : float;         (** probe RTT follower <-> follower (s) *)
  rtt_idle : float;              (** probe RTT between two idle nodes (s) *)
  wal_syncs : int;
      (** leader device fsyncs in the measured window ([0] when
          [sync_policy = Sync_none]) *)
  wal_group_avg : float;
      (** mean records made durable per leader fsync — the group-commit
          batching factor ([1.0] under [Sync_serial] by construction) *)
  tuned_bsz_final : int;
      (** BSZ in force at the end of the run: the {!Msmr_consensus.Autotune}
          controller's last published value under [auto_tune] (group 0's
          controller when [groups > 1]), the static [bsz] otherwise *)
  tuned_wnd_final : int;         (** likewise for WND *)
  view_changes : int;
      (** distinct (group, view) pairs any node installed past the
          group's bootstrap view (group [g] starts in view [g]) — [0] on a
          fault-free run, where every group keeps its first leader *)
  unavailable_s : float;
      (** widest window of the measured interval with no committing
          leader (max commit gap on the acting leader, including the
          tail); [0.] when [faults = []] *)
  recovery_s : float;
      (** worst crash→first-post-recovery-commit time over all restarts
          in the schedule; [0.] if nothing crashed (or never recovered) *)
  completed : int;               (** client requests completed (measured) *)
  safety_ok : bool;
      (** safety check: no node executed a request twice, all
          executed-request logs agree on their common prefix, and no
          fast-path read travelled back in time w.r.t. the issuing
          client's acked writes ([stale_answers = 0]); [true] when
          [faults = []] and no reads ran *)
  executed_min : int;            (** executed-log length, laggiest node *)
  executed_max : int;            (** executed-log length, most advanced *)
  client_retries : int;          (** chaos-client request retransmissions *)
  reads_completed : int;
      (** fast-path reads completed (measured); [0] unless
          [lease && read_ratio > 0.] *)
  read_rejects : int;
      (** read attempts refused by a replica (no lease / freshness not
          provable) and retried toward the leaseholder (measured) *)
  stale_answers : int;
      (** read-safety violations: linearizable reads older than the
          client's last acked write at issue, bounded-staleness reads
          older than the bound allows at serve time. Counted over the
          whole run (warm-up included); any nonzero forces
          [safety_ok = false] *)
  timeline : (float * int) array;
      (** completions per [chaos_bucket]-wide bucket (bucket start time,
          count) — the throughput trajectory through the fault schedule;
          [[||]] when [faults = []] *)
  events : int;                  (** simulation events processed *)
  group_throughputs : float array;
      (** per-group requests completed / second; [[| throughput |]] when
          [groups = 1] *)
  globals_executed : int;
      (** Global commands executed through the node's quiescence barrier
          (measured; [conflict_ratio > 0.] with [groups > 1] or
          [exec_threads > 1] — a serial single-group ServiceManager runs
          every command alone, so it classifies none) *)
  steals : int;
      (** successful token steals in the work-stealing executor pools
          over the whole run, warm-up included ([Params.steal] with
          [exec_threads > 1] — at saturation no executor idles, so
          steals concentrate in the ramp); [0] on the fixed-route and
          serial paths *)
  spec_dispatched : int;
      (** speculation frames the leader pre-dispatched ahead of commit,
          whole run ([Params.speculate]); [0] with speculation off *)
  spec_confirmed : int;
      (** speculations whose predicted order matched the decide stream —
          the staged result was promoted without re-execution *)
  spec_aborted : int;
      (** speculations rolled back (forced mispredict, view change /
          crash, linearizable read, Global barrier) *)
  commit_exec_latency : float;
      (** mean decide→reply latency (s) over measured completions — the
          commit→execute gap the speculative path collapses. Measured on
          every parallel-ServiceManager path, speculation on or off;
          [0.] when unmeasured (serial path, or no completions) *)
  reconfigs_applied : int;
      (** [Membership_changed] adoptions summed over all nodes, whole run
          ([Params.reconfig_at]); [0] with a static membership *)
  final_epoch : int;
      (** highest membership epoch any node had adopted by the end of the
          run; [0] with a static membership *)
  trace : Msmr_obs.Trace.t option;
      (** present iff [run ~trace:true]; stamped in simulated time and
          covering exactly the measured window — export with
          {!Msmr_obs.Trace_export.write_file} *)
}

val run : ?trace:bool -> Params.t -> result
(** Deterministic: same parameters, same result. [trace] (default
    [false]) records per-thread state spans (cat = module, name = the
    state), decide / batch-seal instants, lock-contention instants and
    queue-depth counters for the measured window; headline results are
    also published to {!Msmr_obs.Metrics.default} with [mode="sim"]
    labels.

    [Params.groups] is one parameter of one model: every node holds a
    Paxos engine, Batcher(s), queues, ServiceManager (and executor
    pool), lease and failure detector per group; group [g] bootstraps
    in view [g], led by node [g mod n]. ClientIO routes each request
    inline to its group by client id (one [dispatch_per_req] when
    [groups > 1]); Protocol fans out inline; per-group logs are
    multiplexed over the shared per-peer links and StableStorage. A
    Global command (classified on group 0's decide stream at
    [conflict_ratio]) closes a node-local barrier that quiesces every
    group's in-flight execution before it runs alone. Every fault kind,
    [auto_tune], [n_batchers], [exec_threads], [steal], [skew],
    [speculate] and leases work at any group count.

    Multi-group ordering is a simulator-only prediction: the live
    runtime orders through one group (DESIGN.md §13).

    @raise Invalid_argument if [groups < 1]; or if [groups > 1] and
    [reconfig_at <> []] (the model does not coordinate epoch walks
    across groups); or if [auto_tune] and [reconfig_at <> []] (a
    Reconfig takes effect [wnd] instances after its decision, and the
    controller may open more than [wnd]); or if [groups > 1] and
    [members0] lacks a group's home node [g mod n]. *)
