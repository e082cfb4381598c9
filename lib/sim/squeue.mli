(** Simulated bounded blocking queue.

    Models a mutex-guarded blocking queue, the runtime's stage queue
    before {!Msmr_platform.Channel}, including its
    internal lock: [put]/[take] acquire a per-queue {!Slock} and burn
    [op_cost] CPU inside the critical section, so threads hammering the
    same queue from different cores show genuine blocked time (this is
    where the Batcher's ~15% blocked share in the paper's Figure 8 comes
    from). Waiting for data/space is accounted as [Waiting].

    The queue keeps a time-weighted length {!Sstats.Gauge} for Table I. *)

type 'a t

val create :
  Engine.t ->
  cpu:Cpu.t ->
  capacity:int ->
  ?op_cost:float ->
  name:string ->
  unit ->
  'a t
(** [op_cost] defaults to 250 ns per operation. *)

val name : 'a t -> string
val length : 'a t -> int
val capacity : 'a t -> int

val put : 'a t -> Sstats.thread -> 'a -> unit
(** Blocks (state [Waiting]) while full. *)

val try_put : 'a t -> Sstats.thread -> 'a -> bool

val take : 'a t -> Sstats.thread -> 'a
(** Blocks (state [Waiting]) while empty. *)

val try_take : 'a t -> Sstats.thread -> 'a option

val take_timeout : 'a t -> Sstats.thread -> timeout:float -> 'a option

val avg_length : 'a t -> float
val reset_stats : 'a t -> unit

val set_on_length : 'a t -> (int -> unit) -> unit
(** [set_on_length t f] installs a hook called with the new queue
    length after every push and pop — the observability layer uses it
    to record queue-depth counter series in the trace. *)

val set_on_contended : 'a t -> (Slock.t -> Sstats.thread -> unit) -> unit
(** Forward of {!Slock.set_on_contended} for the queue's internal
    lock. *)
