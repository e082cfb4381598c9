(** Process-wide wait accounting for the channels.

    The paper's profiles attribute stall time per thread
    ({!Thread_state}); this counter attributes it per *mechanism*: how
    often a {!Channel} waiter parked. The observability layer exposes it
    as [msmr_queue_park_total] (docs/OBSERVABILITY.md).

    The counter is a plain atomic — one add per park, no labels. *)

val note_park : unit -> unit
val park_total : unit -> int

val spin_total : unit -> int
(** Always 0: channels park without spinning. Kept for readers of the
    former spin counter. *)

val reset : unit -> unit
(** Zero the counter (benchmarks discard warm-up with this). *)
