(** Process-wide wait accounting for the channels.

    The paper's profiles attribute stall time per thread
    ({!Thread_state}); these counters attribute it per *mechanism*: how
    often a {!Channel} waiter parked, in total and per channel name.
    The observability layer exposes them as [msmr_queue_park_total] and
    [msmr_channel_park_total{queue=...}] (docs/OBSERVABILITY.md).

    Each park is two atomic adds, no lock: the total and its name's
    counter. Channels that share a name (every replica's DecisionQueue,
    every executor lane) share one counter. *)

type counter
(** The park counter of one channel name. *)

val counter : string -> counter
(** The counter for [name], made on first use (takes a lock; channel
    creation only). *)

val note_park : counter -> unit
(** Count one park under the process-wide total and [counter]. *)

val park_total : unit -> int
(** Parks of every channel since start (or {!reset}). *)

val name : counter -> string
val parks_of : counter -> int

val counters : unit -> counter list
(** Every name registered so far. *)

val spin_total : unit -> int
(** Always 0: channels park without spinning. Kept for readers of the
    former spin counter. *)

val reset : unit -> unit
(** Zero every counter (benchmarks discard warm-up with this). *)
