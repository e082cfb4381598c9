(** Quorum-granted leader lease (read fast path, DESIGN.md section 15).

    Pure policy, mirroring {!Paxos}'s Moore-machine discipline: the module
    never reads a clock — every transition takes an explicit [now_ns]
    (monotonic nanoseconds on the local node), so the runtime and the
    deterministic simulator drive the same code.

    Protocol (Raft-style leases over the heartbeat tick):

    - The leader of the current view starts a renewal round every
      [lease_duration_s / 3]: it records its local clock [t0] and sends
      [Lease_ping {view; t0_ns = t0}] to every peer.
    - A follower receiving a ping from its current view's leader promises
      not to help elect {e any other node} for [lease_duration_s] after
      its local receipt time, and echoes [Lease_grant {view; t0_ns}].
      Promises are exclusive: while one is active, pings from a different
      node are ignored.
    - When grants from a quorum (the leader counts itself) name the
      current round's [t0], the lease is held until
      [t0 + lease_duration_s - clock_skew_bound_s] {e on the leader's
      clock}. Because [t0] was taken before any ping was sent, every
      granting follower's promise expires at least [lease_duration_s]
      after [t0] minus at most the skew bound — i.e. after the leader's
      own expiry. The grant quorum intersects every Phase-1 quorum, so no
      new leader can be elected (and hence no conflicting write decided)
      while the holder still believes its lease valid.
    - Enforcement is promise-side and conservative: the runtime drops
      incoming [Prepare]s whose candidate the promise excludes (safe —
      Phase 1 is retransmitted) and skips local [Suspect] verdicts while
      a promise to the current leader is active (safe — the failure
      detector re-arms and re-fires).
    - Any view change conservatively invalidates the holder side; the
      promise side survives, which is exactly what protects an old
      leaseholder from a new leader elected behind its back. *)

type t

val create : Config.t -> me:int -> view:int -> t
(** Fresh lease state for one consensus group. [view] is the engine's
    bootstrap view. *)

val set_view : t -> view:int -> unit
(** View change: drop all holder-side state (any held lease, the
    in-flight renewal round). Grantor-side promises are kept — they
    protect the {e previous} holder until they time out. *)

val ping_due : t -> now_ns:int -> bool
(** Holder side: is it time to start a renewal round?  True every
    [lease_duration_s / 3] (and immediately on a fresh view). Only
    meaningful on the node currently leading. *)

val next_ping_ns : t -> int
(** When {!ping_due} next turns true ([min_int] before a view's first). *)

val make_ping : t -> now_ns:int -> Msg.t
(** Start a renewal round anchored at [now_ns]; returns the
    [Lease_ping] to broadcast. Resets the round's grant set to self. *)

val on_ping : t -> from:int -> view:int -> t0_ns:int -> now_ns:int -> Msg.t option
(** Grantor side. [Some grant] extends/installs the promise and must be
    sent back to [from]; [None] means the ping was refused (wrong view,
    sender is not that view's leader, or an exclusive promise to a
    different node is still active). *)

val on_grant : t -> from:int -> view:int -> t0_ns:int -> quorum:int -> bool
(** Holder side: account a grant. Returns [true] when this grant
    completed the quorum for the current round (the lease was acquired or
    renewed — the renewal counter ticks exactly once per round). *)

val held : t -> now_ns:int -> bool
(** Does this node hold a valid lease at [now_ns] (its own clock)? *)

val held_until_ns : t -> int
(** Lease expiry on the local clock; [0] when never held / invalidated. *)

val promise_until_ns : t -> int
(** Expiry of the active grantor-side promise; [0] when none was made. *)

val promise_blocks : t -> candidate:int -> now_ns:int -> bool
(** Does the active promise forbid helping elect [candidate]?  True iff
    a promise to some [l <> candidate] is still unexpired. Drives both
    the Prepare drop and the Suspect deferral. *)

val renewals : t -> int
(** Rounds that reached quorum since creation (acquisitions count). *)
