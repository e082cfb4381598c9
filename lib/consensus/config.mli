(** Static replica-group configuration.

    The two headline tuning knobs of the paper are here: [window] (WND,
    the maximum number of concurrently executing ballots — pipelining)
    and [max_batch_bytes] (BSZ — batching). The paper's baseline settings
    are WND = 10, BSZ = 1300 bytes (Section VI). *)

type t = {
  n : int;                        (** number of replicas (2f + 1) *)
  window : int;                   (** WND: max concurrent instances *)
  max_batch_bytes : int;          (** BSZ: max payload bytes per batch;
                                      live batching raises the limit
                                      to 8 × the mean request size when
                                      that is larger *)
  max_batch_delay_s : float;      (** flush an underfull batch after this
                                      while Paxos is busy *)
  retransmit_interval_s : float;  (** protocol message retransmission *)
  fd_interval_s : float;          (** heartbeat period of the leader *)
  fd_timeout_s : float;           (** silence before suspecting the leader *)
  catchup_interval_s : float;     (** gap-detection / catch-up period *)
  snapshot_every : int;           (** take a service snapshot every this
                                      many executed instances; 0 = never *)
  log_retain : int;               (** decided entries kept below the last
                                      snapshot point (for cheap catch-up) *)
  lease_enabled : bool;           (** quorum-granted leader lease enabling
                                      the local read fast path (DESIGN.md
                                      section 15); [false] leaves the
                                      ordered path byte-for-byte — the
                                      goldens pin it *)
  lease_duration_s : float;       (** lease validity from the grant round's
                                      send timestamp; renewed every
                                      [lease_duration_s / 3] while leading *)
  clock_skew_bound_s : float;     (** assumed bound on pairwise clock drift
                                      over one lease duration; subtracted
                                      from the holder's expiry so a granting
                                      follower's promise always outlives the
                                      holder's own view of the lease *)
  members0 : int list;            (** boot-time voting membership as a
                                      subset of the node-id universe
                                      [0, n); [[]] (the default) means
                                      all of [0, n) — the static path
                                      the goldens pin. [n] stays the
                                      capacity of the id space; online
                                      reconfiguration (DESIGN.md
                                      section 17) moves the membership
                                      within it *)
}

val default : n:int -> t
(** Paper settings: WND = 10, BSZ = 1300, 50 ms batch delay cap,
    retransmission 100 ms, heartbeats 100 ms / timeout 500 ms, catch-up
    50 ms, snapshot every 10_000 instances, retain 1_000 entries.
    Leases off (duration 2 s, skew bound 100 ms when enabled).
    The delay cap binds only while the ordering pipeline is busy: the
    live runtime seals its open batch at once when Paxos has nothing in
    flight. The simulator always waits for BSZ or the cap, and keeps
    BSZ at [max_batch_bytes]. *)

val validate : t -> (unit, string) result
(** Check invariants (n >= 1 and odd for the usual f derivation,
    window >= 1, batch size positive, finite positive periods). *)

val f : t -> int
(** Crash faults tolerated: [(n - 1) / 2]. *)
