(** Reply cache: at-most-once execution.

    Queried by every ClientIO thread when a request arrives and updated by
    the ServiceManager thread after execution (Section V-D). Backed by the
    sharded {!Msmr_platform.Concurrent_map} — the paper found a
    coarse-locked table collapses under this access pattern and switched
    to [ConcurrentHashMap].

    Clients number requests sequentially, so it suffices to remember the
    newest executed request per client.

    {2 Staged (speculative) replies}

    The speculative execution path (DESIGN.md section 16) executes ahead
    of commit, so its replies exist before the request is durably
    ordered. {!stage} parks such a reply invisibly: {!lookup} and
    {!already_executed} never see staged entries, so a client retry of a
    speculated-but-unconfirmed request still reads [Fresh] and takes the
    ordered path. {!confirm} promotes a staged reply into the committed
    cache (the point it becomes client-visible); {!unstage} drops it on
    abort, leaving no dedup-state residue. *)

type t

type lookup =
  | Fresh            (** never seen: execute it *)
  | Cached of bytes  (** the newest executed request: resend this reply *)
  | Stale            (** older than the newest executed: drop silently *)

val create : ?shards:int -> unit -> t

val lookup : t -> Msmr_wire.Client_msg.request_id -> lookup

val store : t -> Msmr_wire.Client_msg.request_id -> bytes -> unit
(** Record the reply for a client's newest executed request (monotone:
    ignores regressions in [seq]). *)

val already_executed : t -> Msmr_wire.Client_msg.request_id -> bool
(** [Cached _ | Stale]. Used by speculative admission and by the
    baseline's mono replica to skip requests that already executed.
    Consults committed replies only — staged speculative replies do not
    count as executed. *)

val stage : t -> Msmr_wire.Client_msg.request_id -> bytes -> unit
(** Park the reply of a speculative execution. Invisible to {!lookup} /
    {!already_executed} until {!confirm}. At most one staged entry per
    client (clients are sequential); a newer [stage] overwrites. *)

val peek : t -> Msmr_wire.Client_msg.request_id -> bytes option
(** The staged reply for exactly this request id, if any — without
    promoting it. *)

val confirm : t -> Msmr_wire.Client_msg.request_id -> bytes option
(** Promote the staged reply for this request id into the committed cache
    and return it; [None] if nothing (or a different seq) is staged —
    the caller falls back to ordered re-execution. *)

val unstage : t -> Msmr_wire.Client_msg.request_id -> unit
(** Drop the staged reply for this request id (speculation aborted).
    No-op if nothing matching is staged. *)

val staged_size : t -> int
(** Staged entries currently parked (0 when no speculation in flight). *)

val size : t -> int
