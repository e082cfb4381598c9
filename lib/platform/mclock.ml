(* [clock_gettime(CLOCK_MONOTONIC)] through a C stub: unboxed and
   allocation-free in native code. *)
external now_ns : unit -> (int64[@unboxed])
  = "mclock_now_ns" "mclock_now_ns_unboxed"
[@@noalloc]

let ns_of_s s = Int64.of_float ((s *. 1e9) +. 0.5)
let s_of_ns ns = Int64.to_float ns /. 1e9
let sleep_s s = if s > 0. then Unix.sleepf s
