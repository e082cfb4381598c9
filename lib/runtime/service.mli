(** Replicated service interface.

    The state machine being replicated. [execute] must be deterministic:
    given the same state and the same request sequence, every replica must
    produce the same results. [snapshot]/[restore] support log truncation
    and state transfer to lagging replicas.

    {2 Conflict classes and parallel execution}

    The parallel ServiceManager (CBASE / early-scheduling style, after
    Marandi et al. and Alchieri et al.) executes {e non-conflicting}
    decided commands concurrently on an executor pool. [conflict_keys]
    classifies a command:

    - [Keys ks] — the command only touches the conflict classes named by
      [ks] (typically the keys it reads or writes). Two commands conflict
      iff their key sets intersect; conflicting commands are executed in
      decide order, non-conflicting commands may run concurrently on
      different executor threads.
    - [Global] — the command may touch arbitrary state: it is serialised
      against {e everything} (the executors are quiesced first). This is
      always a safe answer, and the default.

    Contract when a service returns [Keys _] for some commands: [execute]
    may then be called concurrently from several executor threads for
    commands with disjoint key sets, so shared state must tolerate that
    (e.g. a sharded map); commands whose key sets intersect are still
    serialised by the runtime, and [snapshot]/[restore] are only invoked
    with all executors quiescent. Services that always answer [Global]
    keep the original single-threaded contract unchanged.

    The runtime calls [execute] only for decided commands, never ahead
    of commit, so a service needs no rollback: the optimistic
    execute-then-undo path of DESIGN.md section 16 is a simulator
    model only. *)

type conflict =
  | Keys of string list
      (** touches only these conflict classes (reads count as writes:
          classification is conservative) *)
  | Global  (** may touch anything — serialise against all commands *)

type t = {
  execute : Msmr_wire.Client_msg.request -> bytes;
  snapshot : unit -> bytes;
  restore : bytes -> unit;
  conflict_keys : Msmr_wire.Client_msg.request -> conflict;
}

val global_conflicts : Msmr_wire.Client_msg.request -> conflict
(** [fun _ -> Global]: the safe default classifier (fully serial). *)

val make :
  ?conflict_keys:(Msmr_wire.Client_msg.request -> conflict) ->
  execute:(Msmr_wire.Client_msg.request -> bytes) ->
  snapshot:(unit -> bytes) ->
  restore:(bytes -> unit) ->
  unit ->
  t
(** Assemble a service; [conflict_keys] defaults to {!global_conflicts}. *)

val null : ?reply_size:int -> unit -> t
(** The paper's benchmark service (Section VI): discards the request
    payload and answers with [reply_size] bytes (default 8). Snapshot is
    empty. Classifies everything [Global]. *)

val accumulator : unit -> t
(** A tiny deterministic service used by tests: interprets the payload as
    a decimal integer, adds it to a running sum and replies with the new
    sum (as a decimal string). Snapshots carry the sum. Every command
    touches the sum, so everything is [Global] (serial). *)
