(** Monotonic clock helpers.

    All durations in this code base are expressed in nanoseconds as [int64]
    (wrap-around would take ~292 years) or, for convenience at API
    boundaries, in seconds as [float]. *)

external now_ns : unit -> (int64[@unboxed])
  = "mclock_now_ns" "mclock_now_ns_unboxed"
[@@noalloc]
(** Current monotonic time in nanoseconds ([CLOCK_MONOTONIC]: counts from
    an arbitrary origin, typically boot, and never steps backwards when
    the wall clock is adjusted). Not related to wall-clock time; only
    differences are meaningful. *)

val ns_of_s : float -> int64
(** Convert seconds to nanoseconds (rounds to nearest). *)

val s_of_ns : int64 -> float
(** Convert nanoseconds to seconds. *)

val sleep_s : float -> unit
(** Sleep the current thread for the given number of seconds. *)
