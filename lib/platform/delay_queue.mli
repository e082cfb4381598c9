(** Priority blocking queue of timed entries with lock-free cancellation.

    Substrate of the Retransmitter thread (Section V-C4): the Protocol
    thread schedules a retransmission for every message it sends and — on
    the hot path, once per decided instance — cancels it. Cancellation must
    not take a lock or wake the consumer, so it only sets an atomic flag on
    the entry; the consumer drops cancelled entries lazily when their
    deadline expires, exactly as described in the paper. *)

type 'a t

type handle
(** Cancellation handle for one scheduled entry. *)

val create : unit -> 'a t

val schedule : 'a t -> at_ns:int64 -> 'a -> handle
(** Enqueue [v] to become due at absolute monotonic time [at_ns]. *)

val cancel : handle -> unit
(** Mark the entry cancelled. Lock-free; never wakes the consumer.
    Idempotent. *)

val is_cancelled : handle -> bool

val pending : 'a t -> int
(** Number of scheduled entries, including cancelled ones not yet
    collected (racy snapshot). *)

val pop_due : 'a t -> now_ns:int64 -> 'a option
(** Non-blocking: pop the earliest entry if it is due at [now_ns],
    silently discarding cancelled entries on the way. *)

val next_due_ns : 'a t -> int64 option
(** Deadline of the earliest live entry, if any. *)

val take : ?st:Thread_state.t -> 'a t -> 'a
(** Block until the earliest live entry becomes due and return it. The
    consumer parks until the head's deadline ({!Channel.take_timeout});
    a {!schedule} that becomes the new head wakes it sooner.
    @raise Closed if the queue is closed. *)

exception Closed

val close : 'a t -> unit
(** Wake and stop consumers. Idempotent. *)
