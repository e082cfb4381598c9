(** Retransmission timers (pure policy, Section V-C4).

    The engine schedules a retransmission for every message it sends
    ({!Paxos.Schedule_rtx}) and cancels it once answered
    ({!Paxos.Cancel_rtx}), once per decided instance. Kept on the
    engine-owning thread, a cancel takes no lock and wakes nobody: the
    property the paper buys with a dedicated thread. Like {!Paxos}, the
    module reads no clock. Every timer uses the same interval, so
    deadlines rise in scheduling order and a FIFO queue holds them all;
    a cancelled timer is dropped when it reaches the head. *)

type t

val create : interval_s:float -> t

val schedule :
  t -> now_ns:int64 -> Paxos.rtx_key -> dest:Types.node_id list -> Msg.t ->
  unit
(** Arm [key] to resend the message to [dest] every [interval_s],
    replacing a timer [key] still has. *)

val cancel : t -> Paxos.rtx_key -> int64 option
(** Disarm [key]; returns the [now_ns] it was scheduled at. For the
    leader's [Rtx_accept], cancel time minus that is commit latency. *)

val pop_due : t -> now_ns:int64 -> (Types.node_id list * Msg.t) list
(** The retransmissions due at [now_ns], oldest first, each re-armed
    for [now_ns + interval]. *)

val next_due_ns : t -> int64 option
(** Deadline of the oldest armed timer. *)
