(** TCP front-end for client connections.

    Accepts client sockets and bridges them to {!Replica.submit}. Each
    connection gets two threads, which take the place of the paper's
    ClientIO pool (Section V-A). Its reader, [conn-<id>], reads request
    frames and calls {!Replica.submit} with them; a full RequestQueue
    blocks it, so the client's further requests wait in the socket
    (back-pressure). Its writer, [conn-<id>-writer], drains the
    connection's bounded outbox of replies and writes each run of them
    with one [write(2)].

    The reply sink that replica threads call only queues on the outbox
    and never waits on the client. When the outbox is full the client
    has stopped reading: its connection is shut down, and the client
    reconnects and retries, which the reply cache answers. A connection
    also closes when {!Replica.submit} fails (the replica stopped).

    This is the deployment path used by [bin/msmr_replica]; in-process
    tests and examples talk to {!Replica.submit} directly. *)

type t

val start : Replica.t -> port:int -> t
(** Listen on [0.0.0.0:port]. *)

val port : t -> int
val connections : t -> int
(** Open client connections. *)

val stop : t -> unit
(** Close the listener and all client connections. *)
