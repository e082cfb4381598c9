(** Stage-spine channel: a {!Bounded_queue}-compatible facade over the
    lock-free rings of {!Lf_queue}.

    Every inter-stage edge of the replica (RequestQueue, ProposalQueue,
    DispatcherQueue, DecisionQueue, SendQueues, LogQueue) goes through
    this type. A channel is an SPSC or MPMC ring. The data path is a few
    atomic operations; blocking is *spin-then-park*: a short bounded
    burst of polls (counted in {!Waitstats} as spins), then a park on a
    fallback condition variable (counted as a park and accounted as
    [Waiting] in {!Thread_state}). Because the data path never takes a
    lock, tracer-attributed [Blocked] time on the spine stays near zero.

    Semantics mirror {!Bounded_queue} exactly (same [Closed] exception,
    so {!Worker.spawn}'s shutdown handling applies unchanged), with one
    carve-out: a [put] racing [close] itself may drop the element. The
    spine only closes queues at shutdown, where in-flight work is
    discarded anyway.

    [kind] declares the producer/consumer discipline. [Spsc] is a
    contract, not a guard: callers must guarantee a single producer
    thread and a single consumer thread. Use [Mpmc] when in doubt. *)

type 'a t

type kind = Spsc | Mpmc

exception Closed
(** Physically equal to {!Bounded_queue.Closed}. *)

val create : kind:kind -> capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. Note the MPMC ring
    rounds [capacity] up to a power of two (see {!Lf_queue}). *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool
val is_closed : 'a t -> bool

val put : ?st:Thread_state.t -> 'a t -> 'a -> unit
(** Blocking append. @raise Closed if the channel is closed. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking; [false] when full. @raise Closed if closed. *)

val take : ?st:Thread_state.t -> 'a t -> 'a
(** Blocking removal. @raise Closed once closed and drained. *)

val try_take : 'a t -> 'a option
(** Non-blocking; [None] when empty. Never raises. *)

val take_timeout : ?st:Thread_state.t -> 'a t -> timeout_s:float -> 'a option
(** Like {!take} with a deadline; [None] on timeout.
    @raise Closed once closed and drained. *)

val take_batch : ?st:Thread_state.t -> 'a t -> max:int -> 'a list
(** Blocks for the first element, then drains up to [max] without
    blocking. @raise Closed once closed and drained. *)

val take_batch_into : ?st:Thread_state.t -> 'a t -> buf:'a option array -> int
(** Allocation-light {!take_batch}: fills [buf] from index 0, resets the
    unused tail to [None], returns the count (≥ 1).
    @raise Closed once closed and drained. *)

val drain_into : 'a t -> buf:'a option array -> int
(** Non-blocking {!take_batch_into}: drains whatever is immediately
    available (possibly nothing). Never raises. *)

val close : 'a t -> unit
(** Idempotent. Wakes all parked threads; subsequent [put]s raise
    {!Closed}; [take]s drain the remainder then raise {!Closed}. *)
