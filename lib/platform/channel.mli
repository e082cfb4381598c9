(** Stage-spine channel: a bounded blocking FIFO over the lock-free
    rings of {!Lf_queue}. It is the only blocking queue of the live
    runtime.

    Every inter-stage edge of the replica (RequestQueue, ProposalQueue,
    DispatcherQueue, DecisionQueue, SendQueues, LogQueue), the in-process
    transport's pipes and the executor pool's lanes and token rings go
    through this type. The data path is a few atomic operations. A
    thread that cannot proceed parks at once on a condition variable;
    {!take_timeout} parks on the same one as {!take}, through a
    monotonic-clock timed wait (OCaml 5.1's [Condition] has none), so
    a channel holds no file descriptor. Every park is counted in
    {!Waitstats}, in total and under the channel's name, and, given a
    {!Thread_state.t}, accounted as [Waiting]. The bound is what makes
    back-pressure flow control work (Section V-E of the paper): a stage
    that cannot keep up fills its input channel and its producers
    block.

    [close] makes [put] raise {!Closed} and lets [take] drain the
    remainder before raising it, with one carve-out: a [put] racing
    [close] itself may drop the element. The spine only closes queues
    at shutdown, where in-flight work is discarded anyway.

    [kind] declares the producer/consumer discipline. [Spsc] is a
    contract, not a guard: callers must guarantee a single producer
    thread and a single consumer thread. Use [Mpmc] when in doubt. *)

type 'a t

type kind = Spsc | Mpmc

exception Closed
(** Raised by [put]/[take] on a closed channel; {!Worker.spawn} treats it
    as a clean exit. *)

val create : name:string -> kind:kind -> capacity:int -> 'a t
(** [name] is the {!Waitstats} counter this channel's parks are counted
    under, besides the process-wide total; channels may share a name.
    @raise Invalid_argument if [capacity <= 0]. Note the MPMC ring
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
(** Like {!take} with a deadline; [None] once [timeout_s] has passed
    (at once when [timeout_s <= 0]). A [put] or {!close} wakes the
    waiter early. The deadline is on the monotonic clock of
    {!Mclock.now_ns}, so a wall-clock step neither ends nor stretches
    the wait. @raise Closed once closed and drained. *)

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
