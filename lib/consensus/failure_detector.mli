(** Leader failure detector (pure policy).

    Mirrors Section V-C3: the leader sends heartbeats to peers it has not
    talked to recently; followers suspect the leader after a period of
    silence. The per-peer timestamps are plain [int] nanosecond values
    updated directly by whichever thread sends or delivers a frame,
    without notifying the thread that polls the detector — safe because
    timestamps only increase, so a missed update merely delays the
    corresponding event, never inverts it (the paper makes exactly this
    argument). Everything else ({!set_view}, {!set_membership},
    {!poll}, {!next_wake_ns}) belongs to that one polling thread. *)

type t

val create : Config.t -> me:Types.node_id -> now_ns:int64 -> t

val note_recv : t -> from:Types.node_id -> now_ns:int64 -> unit
(** Any protocol message from [from] counts as a liveness proof. Callable
    from any thread (single word store). *)

val note_send : t -> dest:Types.node_id -> now_ns:int64 -> unit
(** Any message sent to [dest] postpones the need for a heartbeat.
    Callable from any thread (single word store). *)

val set_view : t -> view:Types.view -> now_ns:int64 -> unit
(** View change: reset the leader's liveness grace period. *)

val set_membership : t -> Membership.t -> now_ns:int64 -> unit
(** Membership epoch change: re-arm the peer set. Heartbeats are sent
    only to current members, freshly added members start with a full
    grace period, and a detector whose own node has been removed goes
    silent entirely (never heartbeats, never suspects). *)

type verdict =
  | Heartbeat_to of Types.node_id list
      (** Leader side: peers that have not heard from us for a full
          heartbeat interval. *)
  | Suspect of Types.node_id
      (** Follower side: the current leader has been silent too long. *)

val poll : t -> now_ns:int64 -> verdict list
(** Evaluate the policy. After a [Suspect] verdict, the detector arms a
    fresh timeout so it does not re-suspect on every poll. *)

val next_wake_ns : t -> now_ns:int64 -> int64
(** Earliest time at which {!poll} could have something new to say, and
    never before [now_ns]. A leader's wake stays due until each member
    peer's heartbeat is recorded with {!note_send}. Never due while
    this node is not a member: it is fenced until the next
    {!set_membership}. *)
