(** Batching policy (pure).

    The paper's Batcher thread (Section V-C1) turns the stream of client requests
    into batches bounded by BSZ bytes ([max_batch_bytes]) or by a delay
    cap: an underfull batch is flushed once its oldest request has waited
    [max_batch_delay_s]. The live runtime adds a third trigger: it seals
    the open batch with {!flush_idle} as soon as the ordering pipeline is
    idle, so batches form only while Paxos is busy. This module is the
    policy only. The live runtime runs it on the Protocol thread, beside
    the Paxos engine ([protocol_loop] in [Msmr_runtime.Replica]); the
    simulator runs it on a Batcher thread of its own, as the paper does,
    models its cost separately and seals on BSZ or the delay cap only. *)

type t

val create : ?tuned_bsz:int Atomic.t -> Config.t -> src:Types.node_id -> t
(** [tuned_bsz] makes BSZ dynamic: the limit is re-read from the atomic
    on every {!add} / flush, and whoever writes it publishes a new limit
    without locks (the live runtime's size-scaled limit, the
    simulator's {!Autotune} controller). Without it the limit is the
    static [cfg.max_batch_bytes]. *)

val bsz_limit : t -> int
(** The size limit currently in force ([tuned_bsz] if dynamic). *)

val pending_requests : t -> int
(** O(1): an explicit count is maintained alongside the open list. *)

val pending_bytes : t -> int

type seal_stats = {
  seals_size : int;    (** batches sealed because the size limit was hit *)
  seals_delay : int;   (** batches flushed on the delay cap (or forced) *)
  seals_idle : int;    (** batches sealed by {!flush_idle} *)
  sealed_bytes : int;  (** total payload bytes across all sealed batches *)
  limit_bytes : int;   (** sum of the BSZ limit in force at each seal —
                           [sealed_bytes /. limit_bytes] is the mean
                           batch fill ratio *)
}

val seal_stats : t -> seal_stats
(** Monotone counters since [create]; callers diff snapshots for
    per-epoch figures. Written only by the thread that owns the policy
    (live: the Protocol thread; simulator: its Batcher); a cross-thread
    reader sees benignly-stale word-consistent values. *)

val add :
  t -> Msmr_wire.Client_msg.request -> now_ns:int64 -> Batch.t option
(** Append a request to the open batch. Returns a completed batch when the
    size limit is reached: either the open batch (with the new request
    folded in when it fits exactly) or the previously open batch when the
    new request would overflow it (the request then starts the next
    batch). A single request larger than BSZ forms its own batch. *)

val flush_due : t -> now_ns:int64 -> Batch.t option
(** Flush the open batch if its oldest request has waited at least
    [max_batch_delay_s]. *)

val force_flush : t -> Batch.t option
(** Flush whatever is pending (used on shutdown and by tests); counted
    in [seals_delay]. *)

val flush_idle : t -> Batch.t option
(** Flush whatever is pending because the ordering pipeline has nothing
    in flight; counted in [seals_idle] only, so the delay-seal signal
    that {!Autotune} reads is unchanged. *)

val deadline_ns : t -> int64 option
(** When {!flush_due} will next have something to do, if anything is
    pending. *)
