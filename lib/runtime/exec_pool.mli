(** Parallel ServiceManager executor pool.

    The scheduler thread (the replica's DecisionQueue consumer) routes
    each decided request to a *lane* — [Hashtbl.hash key mod lanes] —
    and the pool runs the lanes on [n_exec] executor threads. There are
    many more lanes than executors; each lane is an SPSC ring owned by
    whichever executor holds its unique *token*, and idle executors
    steal half of a random victim's tokens. A zipfian-hot shard
    therefore spreads over idle siblings — the convoy the paper's
    single-queue profile shows — while same-key requests still execute
    one at a time, in decide order, because only the token holder
    drains a lane. With [n_exec = 1] the same path runs; the single
    executor holds every token and its steal scans find no victim.

    Invariants relied on by the replica:
    - per-lane execution order = dispatch order (so per-key decide
      order);
    - {!quiesce} returns only when every {!send}-dispatched request has
      finished executing (snapshots, state install, multi-key/global
      commands);
    - {!send} and {!quiesce} are scheduler-only; {!executor_loop} is the
      whole executor thread body. *)

type 'a t

val create : n_exec:int -> unit -> 'a t
(** @raise Invalid_argument if [n_exec < 1]. *)

val n_exec : 'a t -> int

val lanes : 'a t -> int
(** Route keys with [Hashtbl.hash key mod lanes t]. *)

val send : ?st:Msmr_platform.Thread_state.t -> 'a t -> lane:int -> 'a -> unit
(** Dispatch to a lane (blocking under back-pressure). During shutdown
    the request may be dropped; counters never leak. *)

val send_rr : ?st:Msmr_platform.Thread_state.t -> 'a t -> 'a -> unit
(** Dispatch a conflict-free request to the next lane round-robin. *)

val idle : 'a t -> bool
(** Every {!send}-dispatched request has finished executing: the
    non-blocking form of {!quiesce}'s condition. *)

val quiesce : 'a t -> Msmr_platform.Thread_state.t -> unit
(** Block (accounted [Waiting]) until the pool is idle. *)

val executor_loop :
  'a t ->
  idx:int ->
  exec:('a -> unit) ->
  st:Msmr_platform.Thread_state.t ->
  unit
(** Body of executor thread [idx]: runs until {!close} and the backlog
    is drained. [exec] exceptions propagate after the pool's counters
    are unwedged. *)

val close : 'a t -> unit
(** Idempotent; wakes every executor so it can drain and exit. *)

val depth : 'a t -> int
(** Queued-but-undispatched requests across all lanes (racy snapshot). *)

val dispatched : 'a t -> int
val barriers : 'a t -> int

val steals : 'a t -> int
(** Token-steal operations that obtained at least one token. *)

val steal_fails : 'a t -> int
(** Full victim scans that found nothing to steal. *)
