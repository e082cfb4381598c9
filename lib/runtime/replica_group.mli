(** Multi-group Paxos: an in-process sharded cluster.

    Compartmentalized multi-group deployment (ROADMAP open item 1 /
    DESIGN.md §13): [groups] independent consensus groups, each an
    n-replica {!Replica.Cluster} with its own Paxos instance, log,
    Batcher and decide stream, with group [g] led by node [g mod n] —
    leadership (and the leader's fan-out bandwidth, the single-group
    ceiling) spreads round-robin over the node ids.

    {!submit} is the router stage: it classifies each request through
    the conflict classifier and hands it to the group that
    {!Router.target_of_conflict} names. [Global] requests are serialised
    against {e every} group through a quiescence gate: the router stops
    admitting new requests, waits until every group's in-flight
    requests have replied, runs the global through group 0's log, and
    reopens the gate when its reply arrives.

    The barrier quiesces at the routing/reply level — a reply proves the
    request executed on its group's leader, so when the gate closes the
    leaders' service states are mutually consistent up to the admitted
    prefix. Followers may still be applying their decide streams; the
    same relaxation the per-group catch-up already tolerates. The
    simulator's multi-group model implements the node-local equivalent
    (a barrier across the per-group Replica threads of each node).

    Online membership change (DESIGN.md §17) is a single-group feature:
    each inner {!Replica.Cluster} supports [join]/[decommission], but
    this module does not coordinate an epoch walk across groups —
    [Config.validate] requires [members0] to contain every group's
    initial leader, and a multi-group deployment is expected to keep
    its membership static (reconfigure per group, or drain and
    redeploy). *)

type t

val create :
  ?client_io_threads:int ->
  ?executor_threads:int ->
  ?conflict:(Msmr_wire.Client_msg.request -> Service.conflict) ->
  ?durability:(gid:int -> node:int -> Replica.durability) ->
  groups:int ->
  cfg:Msmr_consensus.Config.t ->
  service:(gid:int -> Service.t) ->
  unit ->
  t
(** Build [groups] clusters of [cfg.n] replicas each (the [groups] field
    of [cfg] is overridden). [service ~gid] must yield a fresh service
    instance per call; state is {e partitioned}, not replicated, across
    groups — a group's instances only ever see that group's requests.

    [conflict] is the router's classifier; it must agree with the
    classification the services themselves report (same keys → same
    group, see {!Router}). Default: the classifier of a throwaway
    [service ~gid:0] instance.

    [durability] maps (group, node) to a storage mode — give each group
    its own directory or use {!Msmr_storage.Replica_store}'s [?gid]
    namespace. Default: all ephemeral. *)

val groups : t -> int

val cluster : t -> gid:int -> Replica.Cluster.t
(** Group [gid]'s underlying cluster (for tests and fault injection). *)

val await_leaders : ?timeout_s:float -> t -> unit
(** Wait until every group has an active leader. @raise Failure on
    timeout. *)

val submit : t -> raw:bytes -> reply_to:Client_io.sink -> unit
(** Route one serialised client request ({!Msmr_wire.Client_msg}) to its
    group's current leader; [Global] requests take the quiescence
    barrier described above. Blocks while the gate is closed. The
    barrier waits for one outstanding request per client and group, so
    a duplicate the reply cache drops without replying cannot hold it
    shut, and a duplicate of an answered [Global] skips it.

    Read frames take the lease fast path: classified by the same
    [conflict] function, linearizable reads go to their group's acting
    leader (the leaseholder), bounded-staleness reads round-robin over
    the group's replicas, and neither touches the Global gate (reads
    mutate nothing and a group's keys are only written through its own
    log). *)

val routed_count : t -> int
(** Requests routed so far (behind [msmr_replica_router_routed_total]). *)

val globals_count : t -> int
(** Requests that took the cross-group barrier. *)

val reads_routed_count : t -> int
(** Read frames routed by the fast path (behind
    [msmr_replica_router_reads_total]). *)

val stop : t -> unit
(** Stop every group's cluster. Idempotent. *)
