(** TCP front-end for client connections.

    Accepts client sockets and bridges them to {!Replica.submit}: each
    connection gets a reader thread that feeds request frames to the
    ClientIO pool; replies are written back framed (a per-connection
    mutex serialises concurrent reply writers). This is the deployment
    path used by [bin/msmr_replica]; in-process tests and examples talk
    to {!Replica.submit} directly. *)

type t

val start : Replica.t -> port:int -> t
(** Listen on [0.0.0.0:port]. *)

val port : t -> int
val connections : t -> int

val stop : t -> unit
(** Close the listener and all client connections. *)
