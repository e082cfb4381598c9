(** Sharded concurrent hash map with fine-grained locking.

    This is the OCaml equivalent of [java.util.concurrent.ConcurrentHashMap]
    used by the paper for the reply cache (Section V-D): queried by every
    submitting thread on request arrival and updated by the ServiceManager
    on execution. Coarse-grained locking performs poorly here; the map is
    split into [shards] independent hash tables, each protected by its own
    mutex, so threads touching different shards never contend. *)

type ('k, 'v) t

val create : ?shards:int -> ?initial_size:int -> unit -> ('k, 'v) t
(** [create ()] uses 16 shards. [shards] is rounded up to a power of two.
    Keys are hashed with [Hashtbl.hash]. *)

val shards : ('k, 'v) t -> int

val find_opt : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace. *)

val remove : ('k, 'v) t -> 'k -> unit

val update : ('k, 'v) t -> 'k -> ('v option -> 'v option) -> unit
(** Atomic read-modify-write of one binding: [update m k f] replaces the
    binding with [f (find_opt m k)] ([None] removes it), holding only that
    shard's lock. *)

val length : ('k, 'v) t -> int
(** Total bindings (sums shard sizes; consistent only in quiescence). *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Folds shard by shard; bindings added/removed concurrently may or may
    not be observed. *)

val clear : ('k, 'v) t -> unit
