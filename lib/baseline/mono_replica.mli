(** The "traditional" monolithic RSM the paper argues against
    (Sections I and III): one event-loop thread does everything —
    deserialise client requests, check the reply cache, batch, run the
    replication protocol, execute the service and produce replies. Peer
    I/O is the links': over the in-process Hub a send runs the peer's
    frame handler inline, so the event loop is the only replica
    thread.

    It runs the same pure {!Msmr_consensus.Paxos} engine and the same
    {!Msmr_runtime.Transport} links as the staged runtime, so the two
    are directly comparable: on a single core the monolithic design is
    perfectly respectable (the paper: "before the multi-core era, a
    single-thread event-driven design was a good choice"); its ceiling
    is the single thread, which the simulator experiments expose.

    The API mirrors a subset of {!Msmr_runtime.Replica}. *)

type t

val create :
  cfg:Msmr_consensus.Config.t ->
  me:Msmr_consensus.Types.node_id ->
  links:(Msmr_consensus.Types.node_id * Msmr_runtime.Transport.link) list ->
  service:Msmr_runtime.Service.t ->
  unit ->
  t

val me : t -> Msmr_consensus.Types.node_id
val is_leader : t -> bool
val executed_count : t -> int

val submit : t -> raw:bytes -> reply_to:(bytes -> unit) -> unit
(** Enqueue one serialised client request; the reply callback runs on
    the event-loop thread. *)

val stop : t -> unit

module Cluster : sig
  type replica := t

  type t

  val create :
    cfg:Msmr_consensus.Config.t ->
    service:(unit -> Msmr_runtime.Service.t) ->
    unit ->
    t

  val replicas : t -> replica array
  val await_leader : ?timeout_s:float -> t -> replica
  val stop : t -> unit
end
