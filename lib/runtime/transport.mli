(** Replica-to-replica byte transport.

    A {!link} is one direction-agnostic connection to a peer, carrying
    framed byte blobs. The ReplicaIO threads (one reader + one sender per
    peer, Section V-B) are written against this interface, so the same
    runtime runs over an in-process {!Hub} (tests, examples, fault
    injection) or real TCP sockets ({!Tcp}). *)

type link = {
  send_bytes : bytes -> unit;
      (** Blocking write of one frame. May block when the peer is slow —
          this is why only the dedicated sender thread calls it. Silently
          drops the frame when the connection is down (the retransmitter
          recovers). *)
  send_many : bytes list -> unit;
      (** Blocking write of a run of frames, coalesced into one syscall
          where the transport supports it ({!Tcp} uses
          [Frame.write_many]); same drop semantics as {!send_bytes}.
          The sender thread drains its queue in bounded bursts through
          this. *)
  recv_bytes : unit -> bytes option;
      (** Blocking read of one frame; [None] when the link is closed. *)
  close : unit -> unit;
}

module Hub : sig
  (** In-process network between [n] replicas with fault injection. *)

  type t

  val create : ?capacity:int -> n:int -> unit -> t
  (** [capacity] bounds each directed byte queue (default 4096 frames).
      A queue is a single-producer single-consumer {!Msmr_platform.Channel}:
      each link endpoint has one sending and one receiving thread at a
      time, as ReplicaIO runs them. *)

  val link : t -> me:int -> peer:int -> link
  (** The link endpoint at [me] towards [peer]. Each ordered pair has one
      queue; calling [link] twice returns endpoints backed by the same
      queues. *)

  val set_drop_rate : t -> src:int -> dst:int -> float -> unit
  (** Probability of silently dropping each frame from [src] to [dst]
      (deterministic PRNG seeded per pair). *)

  val cut : t -> int -> unit
  (** Disconnect a node: all its incoming and outgoing frames are dropped
      until {!heal}. Models a crashed or partitioned replica. *)

  val heal : t -> int -> unit

  val sever : t -> src:int -> dst:int -> unit
  (** Cut one directed link: frames from [src] to [dst] are dropped until
      {!heal_link}; every other pair is unaffected. Two [sever] calls
      make the cut symmetric. *)

  val heal_link : t -> src:int -> dst:int -> unit

  val renew : t -> int -> unit
  (** Prepare the hub for an in-process restart of [node]: replace its
      inbound queues (closed when the previous incarnation shut down)
      with fresh ones so peers' sends flow again. Call before creating
      the replacement replica. *)

  val close : t -> unit

  val frames_sent : t -> int
  (** Total frames accepted into the hub (dropped ones included). *)
end

module Tcp : sig
  val connect_link : Unix.sockaddr -> link
  (** Client side of a replica connection; raises [Unix.Unix_error] on
      failure. *)

  val link_of_fd : Unix.file_descr -> link
  (** Wrap an accepted socket. *)
end
