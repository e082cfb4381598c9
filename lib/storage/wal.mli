(** Segmented write-ahead log.

    Records are opaque byte blobs framed as
    [len:4][crc32(payload):4][payload] and appended to numbered segment
    files ([wal-000042.log]); a new segment starts once the current one
    exceeds [segment_bytes]. Recovery replays every record in order and
    stops at the first torn or corrupt record, truncating the log there
    (the standard crash-consistency contract: a prefix survives).

    Writers choose a {!sync_policy}:
    - [Sync_every_write]: fsync before {!append} returns — the classic
      acceptor durability requirement, and the bottleneck the paper
      deliberately avoids in its experiments. {!append_many} applies it
      {e once per batch}: one fsync covers every record appended since
      the last sync (group commit).
    - [Sync_periodic]: a caller (the replica's StableStorage thread)
      calls {!sync} on its own schedule; a crash may lose a suffix;
    - [No_sync]: rely on the OS cache entirely.

    Under every policy a segment is fsynced before rotation leaves it,
    and the directory is fsynced after a segment file is created, so one
    fsync of the current segment covers every unsynced record.

    Appends return the record's LSN — the 1-based count of records
    appended through this handle — so callers can gate work on the
    durable watermark {!synced} reaching it.

    Metrics (labels [{dir="..."}], removed on {!close}):
    [msmr_wal_sync_total] fsyncs performed, [msmr_wal_group_size]
    records covered per fsync, [msmr_wal_last_sync_ns] monotonic stamp
    of the last {!sync} tick (updated even when there was nothing to flush, so
    an idle periodic syncer is visible).

    Thread-safe: appends are serialised internally. *)

type sync_policy =
  | Sync_every_write
  | Sync_periodic
  | No_sync

type t

val openw : ?segment_bytes:int -> dir:string -> sync:sync_policy -> unit -> t
(** Open for appending, creating [dir] if needed. New records go after
    everything {!replay} would return. Default segment size 64 MiB. *)

val append : t -> bytes -> int
(** Append one record; returns its LSN. Under [Sync_every_write] the
    record is durable on return. *)

val append_many : t -> bytes list -> int
(** Append a batch with one frame write per record but the sync policy
    applied once at the end; returns the LSN of the last record (or the
    current LSN for an empty batch). Under [Sync_every_write] this is
    the group-commit path: the whole batch becomes durable under a
    single fsync. *)

val sync : t -> int
(** Flush to stable storage if any record since the last sync needs it;
    returns the durable LSN watermark. *)

val close : t -> unit

val appended : t -> int
(** Records appended through this handle (= the last LSN handed out). *)

val synced : t -> int
(** Durable LSN watermark: every record with LSN <= [synced t] has been
    covered by an fsync issued through this handle. *)

val replay : dir:string -> (bytes -> unit) -> int
(** Feed every intact record, in order, to the callback; returns the
    count. Corrupt/torn suffixes are truncated on disk so a subsequent
    {!openw} appends at a clean boundary. A missing directory replays
    nothing. *)

val reset : dir:string -> unit
(** Delete all segments (used after a snapshot makes the prefix
    obsolete — callers typically rewrite a checkpoint first). *)
