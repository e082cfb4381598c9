(** Per-thread state accounting for the live runtime.

    The paper profiles every thread of the replica into four states
    (Section VI-B): [busy] (executing), [blocked] (acquiring a lock),
    [waiting] (on a condition variable, i.e. idle waiting for work) and
    [other] (sleeping, in a system call, or runnable but not scheduled).

    This module provides the same accounting for the live runtime: each
    instrumented thread registers a handle and the synchronisation
    primitives ({!Channel}, ...) mark state
    transitions through it. Accounting is cheap: one clock read and a
    few stores per transition, all on the owning thread (reads from
    other threads are racy-but-monotone snapshots, which is fine for
    profiling).

    A handle can additionally carry a {!tracer}: a callback invoked on
    every state {e change} with the closed same-state interval. The
    observability layer ([Msmr_obs.Trace]) plugs in here to turn the
    accounting into Chrome-trace thread-state spans without this module
    depending on it. *)

type state =
  | Busy      (** executing application work *)
  | Blocked   (** blocked acquiring a lock *)
  | Waiting   (** waiting on a condition variable for work *)
  | Other     (** sleeping, in a system call, or not scheduled *)

val state_to_string : state -> string
(** ["busy"], ["blocked"], ["waiting"] or ["other"] — the span names of
    the trace taxonomy (docs/OBSERVABILITY.md). *)

type t
(** Accounting handle for one thread. *)

val create : name:string -> t
(** [create ~name] makes a handle starting in {!Busy}. The handle is
    registered in the global registry until {!unregister}. If an
    auto-tracer is installed ({!set_auto_tracer}), the new handle gets
    its tracer attached immediately. *)

val name : t -> string
(** The thread name given at {!create}. *)

val set : t -> state -> unit
(** [set t s] switches the thread to state [s], attributing the elapsed
    time since the last transition to the previous state. Must be called
    from the owning thread. Setting the current state again is a cheap
    no-op for the tracer: consecutive same-state intervals merge. *)

val enter : t -> state -> (unit -> 'a) -> 'a
(** [enter t s f] runs [f ()] in state [s] and restores the previous
    state afterwards (also on exception). *)

type totals = {
  busy_ns : int64;
  blocked_ns : int64;
  waiting_ns : int64;
  other_ns : int64;
}
(** Accumulated nanoseconds per state. *)

val totals : t -> totals
(** Snapshot of accumulated time per state, including the still-open
    current interval, so the four fields always sum to the handle's
    lifetime. *)

val unregister : t -> unit
(** Remove the handle from the global registry (totals remain
    readable). *)

val snapshot_all : unit -> (string * totals) list
(** Name and totals of every registered thread, in registration
    order. *)

val reset_all : unit -> unit
(** Zero the accounting of every registered thread (used to discard the
    warm-up period of a measurement, as the paper does). Also restarts
    any open trace span at the reset point. *)

val pp_report : Format.formatter -> (string * totals) list -> unit
(** Render a percentage breakdown per thread, normalised to the longest
    thread lifetime in the snapshot (mirrors the paper's Figure 8). *)

(** {1 Tracing hooks}

    Hooks are deliberately plain callbacks so that [msmr.platform]
    stays dependency-free; [Msmr_obs] supplies implementations. *)

type tracer = state -> int64 -> int64 -> unit
(** [tracer state t0_ns t1_ns]: the thread spent [[t0_ns, t1_ns)] in
    [state]. Called from the owning thread, on state changes only. *)

val attach_tracer : t -> tracer -> unit
(** Attach a tracer to one handle; the current span restarts now. *)

val detach_tracer : t -> unit

val flush_tracer : t -> unit
(** Emit the currently open same-state interval (without changing
    state) — call at the end of a capture so span totals match
    {!totals}. *)

val set_auto_tracer : (name:string -> tracer option) -> unit
(** Install a factory consulted by every future {!create}: returning
    [Some tr] attaches [tr] to the new handle. Install it {e before}
    spawning the threads to trace (the reference is read without a
    lock). *)

val clear_auto_tracer : unit -> unit
(** Stop auto-attaching tracers to new handles (existing attachments
    are kept). *)
