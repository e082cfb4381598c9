(** Replica-to-replica byte transport.

    A {!link} is one push-based connection to a peer, carrying framed
    byte blobs: a send never blocks, and received frames go to the
    handler the replica installed. The same runtime runs over an
    in-process {!Hub} (tests, examples, fault injection) or real TCP
    sockets ({!Tcp}). *)

type link = {
  send : bytes -> bool;
      (** Hand one frame to the transport without blocking; safe from
          several threads, and one thread's frames arrive in order.
          [false] when the transport dropped it for back-pressure (a full
          TCP writer queue). A frame lost to fault injection or a down
          connection returns [true], as one lost on the wire would. *)
  on_receive : (bytes -> unit) -> unit;
      (** Install the handler for the peer's frames, replacing any
          earlier one. It runs on the sender's thread over the {!Hub},
          on the link's reader thread over {!Tcp}, and must not block. *)
  close : unit -> unit;
      (** Swap the handler for a drop, atomically. *)
}

module Hub : sig
  (** In-process network between [n] replicas with fault injection. A
      send runs the receiving endpoint's handler on the sender's
      thread: nothing here can block, so there is no queue and no I/O
      thread. *)

  type t

  val create : n:int -> unit -> t

  val link : t -> me:int -> peer:int -> link
  (** The link endpoint at [me] towards [peer]. A restarted replica
      calls [link] again and installs its own handler. *)

  val set_drop_rate : t -> src:int -> dst:int -> float -> unit
  (** Probability of silently dropping each frame from [src] to [dst]
      (deterministic PRNG seeded per pair, shared by the sending
      threads under a lock). *)

  val cut : t -> int -> unit
  (** Disconnect a node: all its incoming and outgoing frames are dropped
      until {!heal}. Models a crashed or partitioned replica. *)

  val heal : t -> int -> unit

  val sever : t -> src:int -> dst:int -> unit
  (** Cut one directed link: frames from [src] to [dst] are dropped until
      {!heal_link}; every other pair is unaffected. Two [sever] calls
      make the cut symmetric. *)

  val heal_link : t -> src:int -> dst:int -> unit

  val frames_sent : t -> int
  (** Total frames handed to the hub, one per destination (dropped ones
      included). *)
end

module Tcp : sig
  type conn
  (** One socket, written and read by blocking calls. After an I/O
      error it is dead: writes drop and reads return [None]. *)

  val conn_of_fd : Unix.file_descr -> conn

  val write : conn -> bytes list -> unit
  (** Frames in one syscall ([Frame.write_many]). *)

  val read : conn -> bytes option
  val close_conn : conn -> unit
  (** Shut down and close the socket, waking a thread blocked on it.
      Idempotent. *)

  val pump :
    sender:string ->
    receiver:string ->
    write:(bytes list -> unit) ->
    read:(unit -> bytes option) ->
    link * (unit -> unit)
  (** A link over blocking I/O, with Section V-B's ReplicaIO threads:
      [send] puts the frame on a bounded writer queue (4096 frames) that
      the [sender] thread drains into [write], up to 32 frames a call;
      the [receiver] thread starts with the first handler and hands it
      every frame [read] returns until [None]. The second component
      stops the pump (closes the queue, joins both threads); call it
      once [read] returns [None]. *)

  val link_of_fd : Unix.file_descr -> link
  (** A {!pump} over one socket; [close] closes the socket and stops
      the pump. *)

  val connect_link : Unix.sockaddr -> link
  (** Client side of a replica connection; raises [Unix.Unix_error] on
      failure. *)
end
