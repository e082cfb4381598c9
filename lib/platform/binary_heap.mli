(** Array-based binary min-heap.

    The simulator's event queue: fast [add]/[pop_min] on large heaps.
    Not thread-safe; callers synchronise externally. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** Min-heap ordered by [cmp] (smallest element first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit

val min_elt : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop_min : 'a t -> 'a option
(** Remove and return the smallest element. *)
