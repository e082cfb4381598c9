(** MultiPaxos protocol engine (pure, deterministic).

    This is the logic executed by the Protocol thread (Section V-C2). It
    is written as a Moore-style state machine: every entry point feeds one
    event in and returns the list of {!action}s the caller must carry out
    (send messages, schedule/cancel retransmissions, hand decided batches
    to the service, ...). The engine performs no I/O, spawns no threads
    and never reads the clock, which makes it:

    - directly testable (the property tests drive whole clusters of
      engines through random message schedules and check agreement), and
    - shared verbatim between the live runtime and the discrete-event
      simulator.

    Protocol shape (matching JPaxos): Phase 1 ([Prepare]/[Prepare_ok])
    once per view change; Phase 2 ([Accept]/[Accepted]) per instance with
    [Accepted] sent only to the leader, which then broadcasts a small
    [Decide] carrying the deciding view. Batching and pipelining (WND) are
    built in; catch-up transfers decided entries or a service snapshot. *)

type rtx_key =
  | Rtx_prepare of Types.view
  | Rtx_accept of Types.view * Types.iid

val pp_rtx_key : Format.formatter -> rtx_key -> unit

type action =
  | Send of { dest : Types.node_id list; msg : Msg.t }
  | Execute of { iid : Types.iid; value : Value.t }
      (** Emitted in strict instance order, exactly once per instance. *)
  | Schedule_rtx of { key : rtx_key; dest : Types.node_id list; msg : Msg.t }
  | Cancel_rtx of rtx_key
  | View_changed of {
      view : Types.view;
      leader : Types.node_id;
      i_am_leader : bool;
    }
  | Install_snapshot of { next_iid : Types.iid; state : bytes }
      (** Received through catch-up; the service must restore this state,
          which covers every instance below [next_iid]. *)
  | Membership_changed of {
      membership : Membership.t;
      effective_iid : Types.iid;
    }
      (** A consensus-ordered reconfiguration was adopted: [membership]
          governs every instance from [effective_iid] on. The runtime
          must re-arm the failure detector's peer set, invalidate
          leases, and fence itself if it is no longer a member
          (DESIGN.md section 17). *)

val pp_action : Format.formatter -> action -> unit

type stats = {
  mutable decided : int;          (** instances decided locally *)
  mutable noops_decided : int;
  mutable view_changes : int;
  mutable catchup_queries_sent : int;
  mutable msgs_in : int;
  mutable msgs_out : int;
}

type t

val create : ?view0:Types.view -> Config.t -> me:Types.node_id -> t
(** [view0] (default 0) is the view the engine starts in. The live
    replica always starts in view 0. The simulator's multi-group model
    passes [view0 = gid], so group [gid]'s initial leader is
    [Types.leader_of_view ~n view0 = gid mod n] and leadership spreads
    round-robin over the replicas. *)

val bootstrap : t -> action list
(** Start the engine. The leader of the initial view ([view0 mod n];
    node 0 in the default single-group layout) becomes active
    immediately — on a fresh group nothing can have been accepted in an
    earlier view, so Phase 1 is unnecessary. Every node reports the
    initial [View_changed]. *)

val recover :
  ?configs:(Types.iid * Membership.t) list ->
  Config.t ->
  me:Types.node_id ->
  view:Types.view ->
  accepted:(Types.iid * Types.view * Value.t) list ->
  decided:(Types.iid * Types.view * Value.t) list ->
  snapshot:(Types.iid * bytes) option ->
  t * action list
(** Rebuild an engine from durable state (see
    [Msmr_storage.Replica_store]). The node re-enters [view] as a
    follower — even if it used to lead it, it must run Phase 1 again
    before proposing. The returned actions replay the executed prefix:
    [Install_snapshot] (if any) followed by [Execute] for contiguous
    decided instances; the caller feeds them to the service before
    processing new traffic. [?configs] (newest first) restores the
    membership history from a checkpoint; reconfigs decided in the
    replayed WAL suffix are re-adopted on top. Use instead of
    {!bootstrap}. *)

(** {1 Introspection} *)

val me : t -> Types.node_id
val view : t -> Types.view
val leader : t -> Types.node_id
val is_leader : t -> bool
(** True when this node leads the current view {e and} has finished
    Phase 1. *)

val can_propose : t -> bool
(** Leader, Phase 1 complete, and fewer than WND instances in flight. *)

val log : t -> Log.t
val stats : t -> stats
val window_in_use : t -> int

val membership : t -> Membership.t
(** The newest adopted membership epoch. *)

val membership_at : t -> Types.iid -> Membership.t
(** The membership governing instance [iid]. *)

val configs : t -> (Types.iid * Membership.t) list
(** Membership history, newest first, as persisted in checkpoints and
    carried inside catch-up snapshots. *)

val reconfig_in_flight : t -> bool
(** A [Value.Reconfig] this node opened has not executed yet; ordinary
    proposals are queued behind it. *)

val reconfig_alpha : t -> int
(** The decide-to-effect lag α: a Reconfig decided at instance d
    governs instances from d + α. α is [cfg.window], the smallest lag
    the pipelining invariant allows. *)

val window : t -> int
(** WND currently in force ([cfg.window] unless retuned). *)

val set_window : t -> int -> unit
(** Retune WND online (clamped to >= 1); the simulator's {!Autotune}
    controller is the only caller. Must be called from the thread that
    owns the engine — the engine is single-threaded state. Shrinking
    below the current in-flight count stops new proposals until enough
    instances decide; nothing in flight is cancelled. A window above
    [cfg.window] outruns {!reconfig_alpha}, so a retuned engine must not
    order reconfigurations. *)

(** {1 Events} *)

val propose : t -> Batch.t -> action list
(** Open a new instance for [batch]. Call only when {!can_propose}; if
    the window is full the batch is silently queued internally and
    proposed as instances complete. *)

val propose_reconfig : t -> Membership.t -> action list
(** Order a membership change ([Membership.add_learner], [promote] or
    [remove] of the current {!membership}) through the log. Returns []
    when it cannot be opened right now (not the active leader, window
    full, another reconfig in flight, stale epoch) — callers retry.
    Takes effect {!reconfig_alpha} instances after its decide point. *)

val receive : t -> from:Types.node_id -> Msg.t -> action list
(** Handle a protocol message from a peer. Malformed or stale messages
    are dropped (returning any catch-up actions they trigger). *)

val suspect_leader : t -> action list
(** Failure-detector verdict: the current leader is unresponsive. The
    node advances to the next view it leads and starts Phase 1. No-op if
    this node already leads the current view. *)

val tick_catchup : t -> action list
(** Periodic housekeeping: if this replica knows of decided instances it
    has not decided locally, ask the leader for them (rate-limited to one
    outstanding query). *)

val catchup_due : t -> bool
(** Whether {!tick_catchup} has work: a query is outstanding (its
    rate-limit ticks are running down), or this replica is not the
    leader and knows of decided instances it has not decided locally.
    Pure. A runtime arms its catch-up timer only while this holds. *)

val note_snapshot : t -> next_iid:Types.iid -> state:bytes -> action list
(** The service took a snapshot covering every instance below [next_iid].
    The engine retains it for catch-up replies and truncates the log,
    keeping [log_retain] decided entries below the snapshot point. *)
