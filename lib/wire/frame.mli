(** Length-prefixed framing over file descriptors.

    Both the client front-end and the ReplicaIO TCP transport carry
    frames: a 4-byte big-endian payload length followed by the payload.
    [read] handles short reads; [write] handles short writes. *)

exception Oversized of int
(** Raised when a peer announces a frame larger than [max_frame]. *)

val max_frame : int
(** Upper bound on accepted frame payloads (16 MiB) — guards against
    malformed peers allocating unbounded memory. *)

val write : Unix.file_descr -> bytes -> unit
(** Write one frame. @raise Unix.Unix_error on I/O failure. *)

val write_many : Unix.file_descr -> bytes list -> unit
(** Write several frames with a single [write(2)] (one coalesced buffer).
    Equivalent to [List.iter (write fd)] but cheaper; a client
    connection's writer uses it to flush the replies queued together.
    @raise Unix.Unix_error on I/O failure. *)

val read : Unix.file_descr -> bytes option
(** Read one frame; [None] on clean EOF at a frame boundary.
    @raise End_of_file on EOF mid-frame,
    @raise Oversized on an over-long announced length. *)
