(** Durable consensus state for one replica.

    Combines a {!Wal} of protocol events with an atomically-replaced
    checkpoint file holding the latest service snapshot. The acceptor
    invariants it protects across a crash:

    - the promised view never regresses ([log_view] before acting in a
      higher view);
    - an accepted (iid, view, value) survives if the corresponding
      [Accepted]/[Prepare_ok] message survived (with
      [Wal.Sync_every_write]; weaker policies trade this for speed, as
      the paper's evaluation configuration does);
    - decided entries and snapshots let recovery rebuild the executed
      prefix.

    A snapshot checkpoint makes all earlier WAL records obsolete: the
    WAL is reset right after the checkpoint is persisted. *)

type event =
  | View of Msmr_consensus.Types.view
  | Accepted of {
      iid : Msmr_consensus.Types.iid;
      view : Msmr_consensus.Types.view;
      value : Msmr_consensus.Value.t;
    }
  | Decided of { iid : Msmr_consensus.Types.iid; view : Msmr_consensus.Types.view }

type t

val openw : ?sync:Wal.sync_policy -> dir:string -> unit -> t
(** Default policy: [Sync_periodic] (call {!sync} periodically; the
    replica's StableStorage thread does). *)

val log_event : t -> event -> int
(** Append one event; returns the store-level LSN assigned to it.
    Store LSNs count events logged through this handle and stay
    monotone across the WAL swap a {!checkpoint} performs. *)

val log_batch : ?st:Msmr_platform.Thread_state.t -> t -> event list -> int
(** Append a batch of events through one {!Wal.append_many} — under
    [Sync_every_write] the whole batch becomes durable under a single
    fsync (group commit). Returns the LSN of the last event (the
    current LSN for an empty batch). With [st], store-lock contention
    is accounted as [Blocked]. *)

val sync : ?st:Msmr_platform.Thread_state.t -> t -> int
(** Flush the WAL; returns the durable LSN watermark (= {!lsn} on
    return). With [st], store-lock contention is accounted as
    [Blocked]. *)

val lsn : t -> int
(** Last LSN handed out. *)

val durable_lsn : t -> int
(** Every event with LSN <= [durable_lsn t] is on stable storage (or
    superseded by an fsynced checkpoint). Under [Sync_every_write] this
    trails {!lsn} only inside an in-flight append. *)

val close : t -> unit

val checkpoint :
  ?configs:(Msmr_consensus.Types.iid * Msmr_consensus.Membership.t) list ->
  t ->
  next_iid:Msmr_consensus.Types.iid ->
  state:bytes ->
  unit
(** Persist a service snapshot covering instances below [next_iid]
    (atomic: write-temp + rename + fsync) and reset the WAL. [configs]
    (newest first, default none) records the membership history adopted
    so far, so recovery re-fences under the right epoch even though the
    ordering [Reconfig] instances live below the snapshot. *)

type recovered = {
  r_view : Msmr_consensus.Types.view;
  r_accepted :
    (Msmr_consensus.Types.iid
     * Msmr_consensus.Types.view
     * Msmr_consensus.Value.t)
      list;  (** newest acceptance per instance, undecided ones *)
  r_decided :
    (Msmr_consensus.Types.iid
     * Msmr_consensus.Types.view
     * Msmr_consensus.Value.t)
      list;  (** in instance order *)
  r_snapshot : (Msmr_consensus.Types.iid * bytes) option;
  r_configs :
    (Msmr_consensus.Types.iid * Msmr_consensus.Membership.t) list;
      (** membership history from the checkpoint, newest first; [[]] for
          pre-reconfiguration checkpoints (boot membership applies) *)
}

val recover : dir:string -> unit -> recovered
(** Read the checkpoint and replay the WAL. An empty or missing
    directory yields a pristine state. *)
