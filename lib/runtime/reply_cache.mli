(** Reply cache: at-most-once execution.

    Queried by {!Replica.submit} on the client's thread when a request
    arrives (the paper's ClientIO work) and updated by the thread that
    executes the request (Section V-D). Backed by the
    sharded {!Msmr_platform.Concurrent_map} — the paper found a
    coarse-locked table collapses under this access pattern and switched
    to [ConcurrentHashMap].

    Clients number requests sequentially, so it suffices to remember the
    newest executed request per client. *)

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
(** [Cached _ | Stale]. Used by the baseline's mono replica to skip
    requests that already executed. *)

val size : t -> int
