module Bq = Msmr_platform.Channel
module Waitstats = Msmr_platform.Waitstats
module Worker = Msmr_platform.Worker
module Thread_state = Msmr_platform.Thread_state
module Cmap = Msmr_platform.Concurrent_map
module Mclock = Msmr_platform.Mclock
module Counter = Msmr_platform.Rate_meter.Counter
module Client_msg = Msmr_wire.Client_msg
open Msmr_consensus

let log_src = Logs.Src.create "msmr.replica" ~doc:"Replica runtime"

module Log_ = (val Logs.src_log log_src : Logs.LOG)

type event =
  | Peer_msg of { from : Types.node_id; msg : Msg.t }
  | Suspect
      (** [inject_suspect]: handled as the failure detector's own
          suspicion, which the Protocol thread acts on directly. *)
  | Snapshot_taken of { next_iid : Types.iid; state : bytes }
  | Requests_ready
      (** [submit]'s signal: the RequestQueue has requests for the
          Protocol thread to batch (keeps the event loop fully
          blocking). *)
  | Reconfig_request of Membership.t
      (** Administrative membership change: hand the target epoch to the
          engine-owning thread, which orders it through the log
          ({!Paxos.propose_reconfig}). Rejected requests (not leader,
          another reconfig in flight, ...) are dropped — callers poll the
          adopted epoch and retry. *)

type decision =
  | Exec of { iid : Types.iid; value : Value.t }
  | Install of { state : bytes }
  | Read_exec of { read : Client_msg.read; reply_to : bytes -> unit }
      (** Lease read riding the DecisionQueue (DESIGN.md section 15): FIFO
          behind every decided instance enqueued before it, so by the time
          the ServiceManager pops it the apply frontier has reached the
          lease-covered commit point — that queue position {e is} the
          linearizability wait. Lease validity is checked at pop time. *)

type durability =
  | Ephemeral
  | Durable of { dir : string; sync : Msmr_storage.Wal.sync_policy }

(* StableStorage pipeline (Durable mode). The Protocol thread never
   touches the disk: it assigns each persisted event an LSN and puts it
   on the (bounded) log queue, and tags every durability-dependent send
   with the LSN it must wait for. The StableStorage thread drains the
   queue in bursts, writes each burst through one
   [Replica_store.log_batch] — under [Sync_every_write] that is one
   fsync for the whole burst (group commit) — and only then releases
   the gated messages whose LSN the watermark has passed. The queue is
   FIFO and a message is always enqueued after its log event, so
   release order equals log order. *)
type ss_item =
  | Ss_log of Msmr_storage.Replica_store.event
  | Ss_release of {
      lsn : int;  (** release once LSNs <= this are on stable storage *)
      dest : Types.node_id list;
      msg : Msg.t;
      enq_ns : int64;
    }

type stable = {
  log_q : ss_item Bq.t;
  ss_periodic : bool;  (* [Sync_periodic]: this thread runs the fsync *)
  ss_lsn : int Atomic.t;  (* last LSN assigned by the Protocol thread *)
  ss_stall : bool Atomic.t;  (* test hook: park the pipeline *)
  ss_hold : Msmr_platform.Histogram.t;  (* gated-send hold time, seconds *)
}

(* ServiceManager: a scheduler thread consumes the DecisionQueue in
   decide order and routes each request to a lane of the {!Exec_pool} by
   hashing its conflict key, so commands on the same key always land on
   the same lane and keep their decide order, while commands on different
   keys run concurrently. The pool runs many lanes over the executors
   (one by default) and idle executors steal lane tokens from busy
   siblings. Global / multi-lane commands and snapshots first quiesce the
   pool, then run inline on the scheduler. A batch decided while the pool
   is idle and nothing is queued behind it runs inline too, replies
   included (see [exec_inline]). *)

(* Lease runtime state (Config.lease_enabled). The pure {!Lease} policy
   is Protocol-thread private — every mutation happens while handling a
   dispatcher event; what other threads need is published through
   single-word atomics, same discipline as [am_leader]/[view_now]:
   [lease_until] for the ServiceManager's serve/refuse check, the
   heartbeat frontier pair for follower freshness. *)
type lease_ctx = {
  lease : Lease.t;
  lease_until : int Atomic.t;
      (* holder-side expiry, local monotonic ns; 0 = not held. Zeroed on
         every view change (conservative invalidation). *)
  hb_frontier : int Atomic.t;
      (* leader's first_undecided carried by its last Heartbeat *)
  hb_recv_ns : int Atomic.t;   (* local receipt time of that Heartbeat *)
  lease_renewals : Counter.t;
}

type t = {
  cfg : Config.t;
  me : Types.node_id;
  service : Service.t;
  (* Queues (Figure 3). *)
  dispatcher_q : event Bq.t;
  request_q : Client_msg.request Bq.t;
  requests_kicked : bool Atomic.t;
      (* up: the Protocol thread will drain the RequestQueue without
         another [Requests_ready], since one is queued or requests were
         left there for it (see [submit] and the Protocol thread's
         [feed]) *)
  decision_q : decision Bq.t;
  (* Modules. *)
  links : (Types.node_id * Transport.link) list;
  store : Msmr_storage.Replica_store.t option;
  stable : stable option;   (* Some iff [store] is Some *)
  recovered : Msmr_storage.Replica_store.recovered option;
  reply_cache : Reply_cache.t;
  routes : (int, bytes -> unit) Cmap.t;
      (* client_id -> the sink of its newest fresh request; written by
         submitting threads, read by whichever thread replies *)
  pool : Client_msg.request Exec_pool.t;
  exec_frontier : (int, int) Hashtbl.t;
      (* client_id -> newest seq dispatched, maintained by the scheduler
         in decide order. At-most-once must be decided here, not on the
         executors: a client's commands on different keys run on
         different executors, so an executor-side newest-seq check could
         race with a later command of the same client finishing first
         and wrongly suppress a fresh one. Scheduler-private. *)
  lease_ctx : lease_ctx option;  (* Some iff cfg.lease_enabled *)
  fd : Failure_detector.t;
      (* Protocol-thread private, except the per-peer timestamps stored
         by the peer-frame handler ([note_recv]) and by StableStorage's
         releases ([note_send]). *)
  (* Shared introspection state (single-word, lock-free). *)
  leader_now : int Atomic.t;
  view_now : int Atomic.t;
  am_leader : bool Atomic.t;
  executed : Counter.t;
  decided : Counter.t;
  (* Client ingress and egress, registry counters (atomic adds). *)
  m_requests : Msmr_obs.Metrics.counter;
  m_replies : Msmr_obs.Metrics.counter;
  m_malformed : Msmr_obs.Metrics.counter;
  exec_inline : Counter.t;      (* batches the scheduler ran itself *)
  send_q_drops : Counter.t;     (* peer frames dropped for back-pressure *)
  view_changes : Counter.t;     (* views installed after view 0 *)
  suspects : Counter.t;         (* local failure-detector verdicts acted on *)
  (* Read fast path accounting + follower freshness (lease mode). *)
  reads_served : Counter.t;
  reads_rejected : Counter.t;
  stale_served : Counter.t;
  stale_rejected : Counter.t;
  (* Membership (online reconfiguration, DESIGN.md section 17). The
     Protocol thread adopts epochs at execute time and publishes them
     here; readers (metrics, lease/read fencing, Cluster drivers) are
     lock-free. [configs_now] mirrors the engine's membership history
     (newest first) for checkpoints. *)
  membership_now : Membership.t Atomic.t;
  configs_now : (Types.iid * Membership.t) list Atomic.t;
  reconfigs_applied : Counter.t;
  snapshot_installs : Counter.t;
  applied_iid : int Atomic.t;
      (* apply frontier: next iid the ServiceManager has NOT yet applied;
         written by the SM/scheduler thread, read by stale-read checks *)
  last_apply_ns : int Atomic.t; (* when the SM last applied a decision *)
  reconnects : unit -> int;
      (* transport-level link re-establishments (Tcp_mesh); [fun () -> 0]
         for transports without reconnection *)
  running : bool Atomic.t;
  mutable threads : Worker.t list;
  window_now : int Atomic.t;
  first_undecided_now : int Atomic.t;
  (* The BSZ limit in force, scaled with the mean request size by the
     Protocol thread (see [protocol_loop]'s [add]); read by the policy
     and by metrics. *)
  bsz_now : int Atomic.t;
  batcher : Batcher.t;  (* Protocol-thread private; metrics read it *)
}

let me t = t.me
let bsz_now t = Atomic.get t.bsz_now
let is_leader t = Atomic.get t.am_leader
let current_view t = Atomic.get t.view_now
let executed_count t = Counter.get t.executed
let decided_count t = Counter.get t.decided
let exec_inline_count t = Counter.get t.exec_inline
let executor_dispatched_count t = Exec_pool.dispatched t.pool
let view_changes_count t = Counter.get t.view_changes
let suspects_count t = Counter.get t.suspects
let reconnects_count t = t.reconnects ()
let reads_served_count t = Counter.get t.reads_served
let reads_rejected_count t = Counter.get t.reads_rejected
let stale_reads_served_count t = Counter.get t.stale_served
let stale_reads_rejected_count t = Counter.get t.stale_rejected
let membership t = Atomic.get t.membership_now
let is_member t = Membership.is_member (membership t) t.me
let reconfigs_applied_count t = Counter.get t.reconfigs_applied
let snapshot_installs_count t = Counter.get t.snapshot_installs
let first_undecided t = Atomic.get t.first_undecided_now

let request_reconfig t m =
  try Bq.put t.dispatcher_q (Reconfig_request m) with Bq.Closed -> ()

let now_int_ns () = Int64.to_int (Mclock.now_ns ())

let lease_held t =
  match t.lease_ctx with
  | None -> false
  | Some lc ->
    let u = Atomic.get lc.lease_until in
    u > 0 && now_int_ns () < u

let lease_renewals_count t =
  match t.lease_ctx with
  | None -> 0
  | Some lc -> Counter.get lc.lease_renewals

type queue_stats = {
  request_queue : int;
  dispatcher_queue : int;
  decision_queue : int;
  window_in_use : int;
}

let queue_stats t =
  { request_queue = Bq.length t.request_q;
    dispatcher_queue = Bq.length t.dispatcher_q;
    decision_queue = Bq.length t.decision_q;
    window_in_use = Atomic.get t.window_now }

(* Read ingress: decode and put the read on the DecisionQueue. No
   batching, no Paxos, no ReplyCache — reads are idempotent, so they must
   not occupy at-most-once dedup slots (a read storm cannot evict a
   pending write's cached reply). The queue put is the linearizability
   wait (see [Read_exec]); called from client threads, hence the MPMC
   DecisionQueue in lease mode. *)
let submit_read t ~raw ~reply_to =
  match Client_msg.read_of_bytes raw with
  | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
    Log_.warn (fun m -> m "replica %d: bad read frame" t.me)
  | read -> (
      let reject status =
        reply_to
          (Client_msg.read_reply_to_bytes { rid = read.id; status })
      in
      match t.lease_ctx with
      | None -> reject Client_msg.Read_unsupported
      | Some _ -> (
          try Bq.put t.decision_q (Read_exec { read; reply_to })
          with Bq.Closed ->
            reject (Client_msg.Not_leaseholder (Atomic.get t.leader_now))))

(* A reply leaves on the thread that produced it: every sink returns
   without waiting on its client (see [submit]). *)
let send_reply t sink (reply : Client_msg.reply) =
  Msmr_obs.Metrics.incr t.m_replies;
  sink (Client_msg.reply_to_bytes reply)

(* Write ingress, on the submitting thread: decode, answer a retry from
   the reply cache, and queue a fresh request for the Protocol thread.
   The put blocks while the RequestQueue is full, the back-pressure that
   reaches clients (Section V-E). The wait always ends: nothing
   downstream of the queue waits on a submitter or on a sink, and [stop]
   closes the queue first. *)
let submit t ~raw ~reply_to =
  if Client_msg.is_read_raw raw then submit_read t ~raw ~reply_to
  else if not (Atomic.get t.running) then invalid_arg "Replica.submit: stopped"
  else
    match Client_msg.request_of_bytes raw with
    | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
      (* Dropped, as a server drops a corrupt frame. *)
      Msmr_obs.Metrics.incr t.m_malformed
    | req -> (
        Msmr_obs.Metrics.incr t.m_requests;
        match Reply_cache.lookup t.reply_cache req.id with
        | Reply_cache.Cached result ->
          send_reply t reply_to { id = req.id; result }
        | Reply_cache.Stale -> ()
        | Reply_cache.Fresh ->
          Cmap.set t.routes req.id.client_id reply_to;
          Bq.put t.request_q req;
          (* The flag keeps one [Requests_ready] queued per drain. *)
          if not (Atomic.exchange t.requests_kicked true) then
            try ignore (Bq.try_put t.dispatcher_q Requests_ready)
            with Bq.Closed -> ())

let inject_suspect t = Bq.put t.dispatcher_q Suspect

let stall_stable_storage t stalled =
  match t.stable with
  | Some ss -> Atomic.set ss.ss_stall stalled
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Protocol thread: executes engine actions. *)

(* Encode once and hand the same frame to every destination's link
   ([Msg.encode] returns a fresh copy, so sharing it is safe; [t.links]
   has no entry for [t.me]). A send never blocks (Section V-B): a
   transport that cannot take the frame drops it, and retransmission and
   catch-up recover. *)
let enqueue_send t dest msg =
  let frame = lazy (Msg.encode msg) and now = Mclock.now_ns () in
  List.iter
    (fun d ->
       match List.assoc_opt d t.links with
       | Some (link : Transport.link) ->
         if link.send (Lazy.force frame) then
           Failure_detector.note_send t.fd ~dest:d ~now_ns:now
         else Counter.incr t.send_q_drops
       | None -> ())
    dest

(* Which messages witness state that must be on stable storage before
   they reach the wire: a [Prepare_ok] carries a promise, an [Accepted]
   an acceptance, and the leader's own [Accept] broadcast implies its
   self-acceptance (logged when the proposal is scheduled). Everything
   else — [Decide], heartbeats, catch-up traffic — bypasses the gate. *)
let durability_gated = function
  | Msg.Prepare_ok _ | Msg.Accepted _ | Msg.Accept _ -> true
  | Msg.Prepare _ | Msg.Decide _ | Msg.Catchup_query _ | Msg.Catchup_reply _
  | Msg.Heartbeat _ | Msg.Lease_ping _ | Msg.Lease_grant _ -> false

(* Route a send through the durability gate. In Durable mode a gated
   message rides the StableStorage queue tagged with the current LSN —
   every event logged so far, in particular the one it depends on, is
   covered — and is sent only once that LSN is durable. Ephemeral mode
   ([stable = None]) is the direct path, unchanged. *)
let enqueue_send_gated t dest msg =
  match t.stable with
  | Some ss when durability_gated msg ->
    (try
       Bq.put ss.log_q
         (Ss_release
            { lsn = Atomic.get ss.ss_lsn; dest; msg;
              enq_ns = Mclock.now_ns () })
     with Bq.Closed -> ())
  | Some _ | None -> enqueue_send t dest msg

let protocol_apply t rtx actions =
  let now = Mclock.now_ns () in
  List.iter
    (fun action ->
       match action with
       | Paxos.Send { dest; msg } -> enqueue_send_gated t dest msg
       | Paxos.Execute { iid; value } ->
         Counter.incr t.decided;
         (try Bq.put t.decision_q (Exec { iid; value })
          with Bq.Closed -> ())
       | Paxos.Schedule_rtx { key; dest; msg } ->
         Retransmit.schedule rtx ~now_ns:now key ~dest msg
       | Paxos.Cancel_rtx key -> ignore (Retransmit.cancel rtx key)
       | Paxos.View_changed { view; leader; i_am_leader } ->
         if view <> Atomic.get t.view_now then Counter.incr t.view_changes;
         Atomic.set t.view_now view;
         Atomic.set t.leader_now leader;
         Atomic.set t.am_leader i_am_leader;
         (* Conservative lease invalidation: any view change drops the
            holder side immediately (the grantor-side promise survives
            inside [Lease.t] — it protects the previous holder). *)
         (match t.lease_ctx with
          | Some lc ->
            Lease.set_view lc.lease ~view;
            Atomic.set lc.lease_until 0
          | None -> ());
         Failure_detector.set_view t.fd ~view ~now_ns:now;
         Log_.info (fun m ->
             m "replica %d: view %d, leader %d%s" t.me view leader
               (if i_am_leader then " (me)" else ""))
       | Paxos.Install_snapshot { next_iid = _; state } ->
         Counter.incr t.snapshot_installs;
         (try Bq.put t.decision_q (Install { state }) with Bq.Closed -> ())
       | Paxos.Membership_changed { membership; effective_iid } ->
         Counter.incr t.reconfigs_applied;
         Atomic.set t.membership_now membership;
         Atomic.set t.configs_now
           ((effective_iid, membership) :: Atomic.get t.configs_now);
         (* Epoch fencing: the quorum composition changed, so any held
            lease is conservatively invalid — and a removed node must
            never serve another lease read. *)
         (match t.lease_ctx with
          | Some lc -> Atomic.set lc.lease_until 0
          | None -> ());
         Failure_detector.set_membership t.fd membership ~now_ns:now;
         Log_.info (fun m ->
             m "replica %d: membership epoch %d at iid %d (%s)" t.me
               membership.Membership.epoch effective_iid
               (Format.asprintf "%a" Membership.pp membership)))
    actions

(* Requests the Protocol thread batches per loop pass at most. *)
let feed_burst = 256

(* BSZ scales with the request size: the limit is at least this many
   mean-sized requests, so large requests still share an instance under
   load. Requests up to [max_batch_bytes / 8] bytes (162 at the paper's
   1300) keep the configured limit. *)
let bsz_requests = 8

let protocol_loop t st =
  (* Owned here, with the engine: a cancel takes no lock (Section V-C4). *)
  let rtx = Retransmit.create ~interval_s:t.cfg.retransmit_interval_s in
  (* Durable mode: every promise is logged before the Prepare_ok leaves,
     every acceptance before the Accepted leaves (with Sync_every_write
     this is the full acceptor durability contract; the weaker policies
     trade a suffix for speed, as the paper's evaluation setup does).
     "Logged" means handed to the StableStorage pipeline: the event gets
     the next LSN and goes on the log queue; the dependent message is
     enqueued behind it (see [enqueue_send_gated]) and cannot overtake
     it. The put blocks when the queue is full — that back-pressure is
     the pipeline's flow control: a disk that cannot keep up slows the
     Protocol thread instead of growing an unbounded buffer. *)
  let persist ev =
    match t.stable with
    | Some ss ->
      Atomic.incr ss.ss_lsn;
      (try Bq.put ss.log_q (Ss_log ev) with Bq.Closed -> ())
    | None -> ()
  in
  let persist_actions actions =
    if Option.is_some t.stable then
      List.iter
        (fun action ->
           match action with
           | Paxos.View_changed { view; _ } ->
             persist (Msmr_storage.Replica_store.View view)
           | Paxos.Schedule_rtx
               { key = Paxos.Rtx_accept (view, iid);
                 msg = Msg.Accept { value; _ }; _ } ->
             (* The leader accepts its own proposal. *)
             persist (Msmr_storage.Replica_store.Accepted { iid; view; value })
           | Paxos.Execute { iid; _ } ->
             persist
               (Msmr_storage.Replica_store.Decided
                  { iid; view = Atomic.get t.view_now })
           | Paxos.Send _ | Paxos.Schedule_rtx _ | Paxos.Cancel_rtx _
           | Paxos.Install_snapshot _
           (* Derived state: membership is rebuilt from checkpoint configs
              plus replay of the decided Reconfig instances. *)
           | Paxos.Membership_changed _ -> ())
        actions
  in
  let apply actions =
    persist_actions actions;
    protocol_apply t rtx actions
  in
  let engine =
    match t.recovered with
    | None ->
      let engine = Paxos.create t.cfg ~me:t.me in
      apply (Paxos.bootstrap engine);
      engine
    | Some r ->
      let engine, replays =
        Paxos.recover ~configs:r.Msmr_storage.Replica_store.r_configs t.cfg
          ~me:t.me ~view:r.Msmr_storage.Replica_store.r_view
          ~accepted:r.r_accepted
          ~decided:r.r_decided ~snapshot:r.r_snapshot
      in
      (* Replays rebuild the service state; do not re-log them. *)
      protocol_apply t rtx replays;
      engine
  in
  (* Lease protocol (Config.lease_enabled): every Lease.t transition
     happens here, on the engine-owning thread, so the pure policy needs
     no synchronisation. The grantor's promise is enforced below by
     dropping excluded Prepares (safe: Phase 1 is retransmitted) and
     deferring Suspect verdicts (safe: the failure detector re-arms). *)
  (* Lease quorum and peer set follow the adopted membership epoch: only
     voters grant, and a majority of the current voters is required. With
     a static full membership this is exactly the old [n/2 + 1] over all
     peers. *)
  let lease_quorum () = Membership.quorum (Atomic.get t.membership_now) in
  let lease_peers () =
    List.filter (fun p -> p <> t.me)
      (Atomic.get t.membership_now).Membership.voters
  in
  (* A leading voter's lease: the only one renewed. *)
  let held_lease () =
    match t.lease_ctx with
    | Some lc
      when Atomic.get t.am_leader
           && Membership.is_voter (Atomic.get t.membership_now) t.me ->
      Some lc
    | Some _ | None -> None
  in
  (* Every loop pass: a view's first round starts on the pass that
     installs its leadership. *)
  let lease_tick () =
    match held_lease () with
    | Some lc ->
      let now = now_int_ns () in
      if Lease.ping_due lc.lease ~now_ns:now then begin
        let ping = Lease.make_ping lc.lease ~now_ns:now in
        (* A singleton group grants to itself at ping time. *)
        Atomic.set lc.lease_until (Lease.held_until_ns lc.lease);
        enqueue_send t (lease_peers ()) ping
      end
    | None -> ()
  in
  let on_lease_msg lc from msg =
    match msg with
    | Msg.Lease_ping { view; t0_ns }
      (* A removed replica never grants: its promise could outlive its
         knowledge of the epoch that excluded it. *)
      when Membership.is_voter (Atomic.get t.membership_now) t.me -> (
        match
          Lease.on_ping lc.lease ~from ~view ~t0_ns ~now_ns:(now_int_ns ())
        with
        | Some grant ->
          (* Never durability-gated: a grant witnesses only clock state. *)
          enqueue_send t [ from ] grant
        | None -> ())
    | Msg.Lease_grant { view; t0_ns } ->
      if
        Atomic.get t.am_leader
        && Lease.on_grant lc.lease ~from ~view ~t0_ns ~quorum:(lease_quorum ())
      then begin
        Counter.incr lc.lease_renewals;
        Atomic.set lc.lease_until (Lease.held_until_ns lc.lease)
      end
    | _ -> ()
  in
  (* Does an active promise exclude the node that [Prepare view] tries to
     elect? (The candidate for a view is statically its leader.) *)
  let promise_drops_prepare view =
    match t.lease_ctx with
    | None -> false
    | Some lc ->
      Lease.promise_blocks lc.lease
        ~candidate:(Types.leader_of_view ~n:t.cfg.Config.n view)
        ~now_ns:(now_int_ns ())
  in
  let promise_defers_suspect () =
    match t.lease_ctx with
    | None -> false
    | Some lc ->
      (* Acting on the suspicion would start Phase 1 for a view this
         node leads; the promise forbids helping elect anyone but the
         grantee. *)
      Lease.promise_blocks lc.lease ~candidate:t.me ~now_ns:(now_int_ns ())
  in
  let handle = function
    | Requests_ready -> ()
    | Reconfig_request m -> apply (Paxos.propose_reconfig engine m)
    | Peer_msg { from; msg = (Msg.Lease_ping _ | Msg.Lease_grant _) as msg }
      when Option.is_some t.lease_ctx ->
      on_lease_msg (Option.get t.lease_ctx) from msg
    | Peer_msg { from = _; msg = Msg.Prepare { view; _ } }
      when promise_drops_prepare view ->
      (* Dropped, not rejected: the excluded candidate's Rtx_prepare will
         retry after the promise (and with it the lease) has expired. *)
      ()
    | Peer_msg { from; msg } ->
      (* Acceptor durability: the promise/acceptance must hit the log
         before the corresponding Prepare_ok/Accepted can leave. Logging
         before the engine even looks at the message is pessimistic
         (stale messages get logged too) but recovery keeps only the
         highest view per instance, so it is safe. *)
      (match msg with
       | Msg.Accept { view; iid; value } ->
         persist (Msmr_storage.Replica_store.Accepted { iid; view; value })
       | Msg.Prepare { view; _ } ->
         persist (Msmr_storage.Replica_store.View view)
       | Msg.Catchup_reply { entries; _ } ->
         (* Values learnt through catch-up never came in an Accept;
            persist them so recovery does not lose the executed prefix. *)
         List.iter
           (fun (e : Msg.log_entry) ->
              if e.e_decided then begin
                persist
                  (Msmr_storage.Replica_store.Accepted
                     { iid = e.e_iid; view = e.e_view; value = e.e_value });
                persist
                  (Msmr_storage.Replica_store.Decided
                     { iid = e.e_iid; view = e.e_view })
              end)
           entries
       | Msg.Prepare_ok _ | Msg.Accepted _ | Msg.Decide _
       | Msg.Catchup_query _ | Msg.Heartbeat _ | Msg.Lease_ping _
       | Msg.Lease_grant _ -> ());
      (* Follower freshness for bounded-staleness reads: remember the
         current leader's last advertised decided frontier and when it
         arrived. *)
      (match (msg, t.lease_ctx) with
       | Msg.Heartbeat { view; first_undecided }, Some lc
         when view = Atomic.get t.view_now && from = Atomic.get t.leader_now
         ->
         Atomic.set lc.hb_frontier first_undecided;
         Atomic.set lc.hb_recv_ns (now_int_ns ())
       | _ -> ());
      apply (Paxos.receive engine ~from msg)
    | Suspect when promise_defers_suspect () ->
      (* The detector re-arms after a verdict, so the suspicion re-fires
         after the promise has lapsed; a live leader will have renewed by
         then. *)
      ()
    | Suspect ->
      Counter.incr t.suspects;
      apply (Paxos.suspect_leader engine)
    | Snapshot_taken { next_iid; state } ->
      apply (Paxos.note_snapshot engine ~next_iid ~state)
  in
  (* Failure detection (Section V-C3) runs here too: the detector is
     this thread's, and the frame handler and StableStorage only store
     per-peer timestamps into it. Heartbeats therefore prove that the
     ordering thread itself is alive. *)
  let detect now =
    List.iter
      (function
        | Failure_detector.Heartbeat_to peers ->
          (* Only an ACTIVE leader advertises liveness: a recovered or
             deposed node that still sits in a view it nominally leads
             must not suppress the other replicas' suspicion. *)
          if Atomic.get t.am_leader then
            enqueue_send t peers
              (Msg.Heartbeat
                 { view = Atomic.get t.view_now;
                   first_undecided =
                     Msmr_consensus.Log.first_undecided (Paxos.log engine) });
          (* Sent as of now, even when not sent or dropped for
             back-pressure (like a frame lost on the wire): the next
             heartbeat is an interval away, not due again on the next
             pass. *)
          List.iter
            (fun p -> Failure_detector.note_send t.fd ~dest:p ~now_ns:now)
            peers
        | Failure_detector.Suspect _ -> handle Suspect)
      (Failure_detector.poll t.fd ~now_ns:now)
  in
  (* Batching (Section V-C1) runs here too, beside the engine whose
     window tells when an open batch may be sealed at once. The policy
     and its state are private to this thread. *)
  let policy = t.batcher in
  (* Wire bytes and count of every request batched so far. *)
  let seen_bytes = ref 0 and seen = ref 0 in
  (* Time between the last two passes that drained requests, and when
     the last one ran, in ns. *)
  let arrival_gap = ref 0 and last_arrival = ref (now_int_ns ()) in
  (* When the drain seal is due; see [seal]. *)
  let drain_seal_at = ref None in
  let propose = Option.iter (fun batch -> apply (Paxos.propose engine batch)) in
  (* Batch [req]; [true] if that sealed and proposed a batch. *)
  let add req =
    seen_bytes := !seen_bytes + Client_msg.request_wire_size req;
    incr seen;
    let limit =
      max t.cfg.Config.max_batch_bytes (bsz_requests * !seen_bytes / !seen)
    in
    if limit <> Atomic.get t.bsz_now then Atomic.set t.bsz_now limit;
    let sealed = Batcher.add policy req ~now_ns:(Mclock.now_ns ()) in
    propose sealed;
    Option.is_some sealed
  in
  (* Seal the open batch on the delay cap, or once nothing is in flight:
     at once when requests just arrived (the idle seal), else one
     inter-arrival gap after the pipeline drained, since under load the
     next request comes within it and joins the batch (the drain seal). *)
  let seal ~arrived =
    let now = Mclock.now_ns () in
    propose (Batcher.flush_due policy ~now_ns:now);
    drain_seal_at :=
      if Batcher.pending_requests policy = 0 || Paxos.window_in_use engine > 0
      then None
      else
        let due =
          if arrived then now
          else
            Option.value !drain_seal_at
              ~default:(Int64.add now (Int64.of_int !arrival_gap))
        in
        if Int64.compare now due < 0 then Some due
        else begin
          propose (Batcher.flush_idle policy);
          None
        end
  in
  (* Drain a bounded burst of the RequestQueue through the policy while
     the window allows, proposing each sealed batch at once. With the
     window full the rest stays queued, and submitters feel it as
     back-pressure. *)
  let feed () =
    if Paxos.can_propose engine then begin
      (* Lower the flag before draining: a request put after the drain
         finds it down and queues a fresh [Requests_ready]. *)
      Atomic.set t.requests_kicked false;
      let rec drain k =
        if k = 0 then k
        else
          match Bq.try_take t.request_q with
          | None -> k
          | Some req ->
            (* Only a proposal can fill the window. *)
            if add req && not (Paxos.can_propose engine) then k - 1
            else drain (k - 1)
      in
      let arrived = drain feed_burst < feed_burst in
      if arrived then begin
        let now = now_int_ns () in
        arrival_gap := now - !last_arrival;
        last_arrival := now
      end;
      let room = Paxos.can_propose engine in
      if not (Bq.is_empty t.request_q) then begin
        (* Left queued, so [submit] need not signal. A full window gets
           its next pass from the messages that free it; an open one
           takes the rest on the next pass. *)
        Atomic.set t.requests_kicked true;
        if room then
          try ignore (Bq.try_put t.dispatcher_q Requests_ready)
          with Bq.Closed -> ()
      end;
      if room then seal ~arrived
    end
  in
  (* Park until the earliest timer: a retransmission, the catch-up tick,
     the failure detector's next heartbeat or suspicion, the held lease's
     next renewal or, while a batch may be proposed, its delay cap or
     drain seal. The catch-up tick is armed only while the engine has
     catch-up work ({!Paxos.catchup_due}), so a caught-up replica does
     not wake for it. *)
  let catchup_ns = Mclock.ns_of_s t.cfg.catchup_interval_s in
  let next_catchup = ref None in
  let timeout_s () =
    let earliest at = Option.fold ~none:at ~some:(Int64.min at) in
    let now = Mclock.now_ns () in
    let at = Failure_detector.next_wake_ns t.fd ~now_ns:now in
    let at = earliest at !next_catchup in
    let at = earliest at (Retransmit.next_due_ns rtx) in
    let at =
      match held_lease () with
      | Some lc -> Int64.min at (Int64.of_int (Lease.next_ping_ns lc.lease))
      | None -> at
    in
    let at =
      if Paxos.can_propose engine then
        earliest (earliest at (Batcher.deadline_ns policy)) !drain_seal_at
      else at
    in
    Mclock.s_of_ns (Int64.sub at now)
  in
  while Atomic.get t.running do
    (match Bq.take_timeout ~st t.dispatcher_q ~timeout_s:(timeout_s ()) with
     | Some ev ->
       handle ev;
       (* Drain a bounded burst to amortise queue locking. *)
       let rec burst k =
         if k > 0 then
           match Bq.try_take t.dispatcher_q with
           | Some ev -> handle ev; burst (k - 1)
           | None -> ()
       in
       burst 64
     | None -> ()
     | exception Bq.Closed -> Atomic.set t.running false);
    let now = Mclock.now_ns () in
    (* Gated too: a timer can fire before a slow disk made the original
       durable. *)
    List.iter
      (fun (dest, msg) -> enqueue_send_gated t dest msg)
      (Retransmit.pop_due rtx ~now_ns:now);
    (match !next_catchup with
     | Some at when Int64.compare now at >= 0 ->
       next_catchup := None;
       apply (Paxos.tick_catchup engine)
     | Some _ | None -> ());
    detect now;
    feed ();
    lease_tick ();
    if not (Paxos.catchup_due engine) then next_catchup := None
    else if Option.is_none !next_catchup then
      next_catchup := Some (Int64.add now catchup_ns);
    Atomic.set t.window_now (Paxos.window_in_use engine);
    Atomic.set t.first_undecided_now
      (Msmr_consensus.Log.first_undecided (Paxos.log engine))
  done

(* ------------------------------------------------------------------ *)
(* StableStorage thread (Durable mode): the other end of the pipeline
   described at [ss_item]. Burst size bounds how many events one fsync
   can cover, and therefore how long a gated message can wait behind
   unrelated appends. Under [Sync_periodic] it also syncs every 5 ms,
   after a burst or on an idle timeout; an empty [Wal.sync] still
   refreshes msmr_wal_last_sync_ns, so an idle pipeline is visible. *)

let sync_interval_ns = Mclock.ns_of_s 0.005

let stable_storage_loop t (ss : stable) st =
  let store = Option.get t.store in
  let pending : (int * Types.node_id list * Msg.t * int64) Queue.t =
    Queue.create ()
  in
  (* FIFO: the head has the smallest LSN, so releases happen in log
     order. *)
  let release watermark =
    let rec go () =
      match Queue.peek_opt pending with
      | Some (lsn, dest, msg, enq_ns) when lsn <= watermark ->
        ignore (Queue.pop pending);
        Msmr_platform.Histogram.record ss.ss_hold
          (Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) enq_ns));
        enqueue_send t dest msg;
        go ()
      | _ -> ()
    in
    go ()
  in
  let next_sync =
    ref (if ss.ss_periodic then Int64.add (Mclock.now_ns ()) sync_interval_ns
         else Int64.max_int)
  in
  let buf = Array.make 255 None in  (* a burst: its first item + 255 *)
  let events = ref [] in
  let add = function
    | Ss_log ev -> events := ev :: !events
    | Ss_release { lsn; dest; msg; enq_ns } ->
      Queue.push (lsn, dest, msg, enq_ns) pending
  in
  let continue = ref true in
  while !continue do
    (match
       if ss.ss_periodic then
         Bq.take_timeout ~st ss.log_q
           ~timeout_s:(Mclock.s_of_ns (Int64.sub !next_sync (Mclock.now_ns ())))
       else Some (Bq.take ~st ss.log_q)
     with
     | exception Bq.Closed -> continue := false
     | None -> ()
     | Some first ->
       (* Test hook: park with the burst in hand — nothing is logged or
          released while stalled. *)
       while Atomic.get ss.ss_stall && Atomic.get t.running do
         Thread_state.enter st Thread_state.Waiting (fun () ->
             Mclock.sleep_s 0.0005)
       done;
       add first;
       let n = Bq.drain_into ss.log_q ~buf in
       for i = 0 to n - 1 do
         Option.iter add buf.(i);
         buf.(i) <- None
       done;
       (* One [log_batch] per burst: under [Sync_every_write] every
          event in it shares a single fsync (group commit), and the
          returned LSN is durable. Under the weaker policies the
          pre-pipeline contract was append-before-send, so the appended
          LSN is the right release watermark there too. *)
       let watermark =
         Msmr_storage.Replica_store.log_batch ~st store (List.rev !events)
       in
       events := [];
       release watermark);
    let now = Mclock.now_ns () in
    if !continue && Int64.compare now !next_sync >= 0 then begin
      ignore (Msmr_storage.Replica_store.sync ~st store);
      next_sync := Int64.add now sync_interval_ns
    end
  done

(* ------------------------------------------------------------------ *)
(* Peer frames. Each link runs this handler on the thread that delivers
   the frame: on the Hub the sending replica's Protocol (or
   StableStorage) thread, over TCP the link's reader thread. It never
   blocks: a full DispatcherQueue drops the frame, and retransmission
   and catch-up recover it. *)

let receive t peer raw =
  match Msg.decode raw with
  | msg -> (
      Failure_detector.note_recv t.fd ~from:peer ~now_ns:(Mclock.now_ns ());
      match Bq.try_put t.dispatcher_q (Peer_msg { from = peer; msg }) with
      | false -> Counter.incr t.send_q_drops
      | true | (exception Bq.Closed) -> ())
  | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
    Log_.warn (fun m -> m "replica %d: bad frame from %d" t.me peer)

(* ------------------------------------------------------------------ *)
(* ServiceManager: the Replica thread schedules decided requests over the
   executor pool (see [pool] above). With one executor (the default) the
   pool runs every lane on that executor. *)

(* Execute one decided request unconditionally: service call, reply
   cache update. At-most-once was already decided at dispatch time, in
   decide order (see [exec_frontier]). *)
let execute t (req : Client_msg.request) : Client_msg.reply =
  let result = t.service.execute req in
  Reply_cache.store t.reply_cache req.id result;
  Counter.incr t.executed;
  { id = req.id; result }

(* [execute], then write the reply to its client's sink. A client
   with no route here submitted elsewhere (this replica learned the
   request as a follower): its reply is dropped. *)
let exec_request t req =
  let reply = execute t req in
  match Cmap.find_opt t.routes reply.id.client_id with
  | Some sink -> send_reply t sink reply
  | None -> ()

(* Serve one read popped off the DecisionQueue, on the scheduler
   thread. The FIFO position already provided the apply-frontier wait;
   what remains is the authority check at execution time:

   - linearizable: this node must hold a currently valid lease. Valid
     lease => no newer leader exists => every write this cluster has
     acknowledged is in our applied prefix (writes enqueued behind us in
     the queue are unacknowledged, hence concurrent — ordering the read
     before them is legal). The read bypasses the ReplyCache entirely.
   - bounded staleness: any replica may answer if its state is provably
     no older than the client's bound — it was caught up to the leader's
     advertised frontier within the bound, or it applied a decision
     within the bound with nothing pending (an idle caught-up follower),
     or it is the leaseholder (trivially fresh).

   The scheduler executes the read inline without quiescing the pool:
   an executor-resident write is un-replied (replies only happen at
   execution), hence concurrent with this read, and the service stores
   are per-key atomic — so serving the pre-write value linearizes the
   read before that write. *)
let exec_read t (read : Client_msg.read) reply_to =
  let lc = Option.get t.lease_ctx in
  let now = now_int_ns () in
  let member = Membership.is_member (Atomic.get t.membership_now) t.me in
  let holder () =
    let u = Atomic.get lc.lease_until in
    (* Epoch fencing: a replica removed from the membership never serves
       a read, lease or not (its lease was zeroed at adoption; this also
       covers the window before it learns of its own removal through a
       newer epoch it helped decide). *)
    member && Atomic.get t.am_leader && u > 0 && now < u
  in
  let serve () = t.service.execute { id = read.id; payload = read.payload } in
  let hint () = Atomic.get t.leader_now in
  let status =
    if read.staleness_ns < 0 then
      if holder () then begin
        Counter.incr t.reads_served;
        Client_msg.Read_ok (serve ())
      end
      else begin
        Counter.incr t.reads_rejected;
        Client_msg.Not_leaseholder (hint ())
      end
    else begin
      let fresh_ns =
        if not member then 0
        else if holder () then now
        else
          let hb =
            if Atomic.get t.applied_iid >= Atomic.get lc.hb_frontier then
              Atomic.get lc.hb_recv_ns
            else 0
          in
          let idle =
            if Bq.length t.decision_q = 0 then Atomic.get t.last_apply_ns
            else 0
          in
          max hb idle
      in
      if fresh_ns > 0 && now - fresh_ns <= read.staleness_ns then begin
        Counter.incr t.stale_served;
        Client_msg.Read_ok (serve ())
      end
      else begin
        Counter.incr t.stale_rejected;
        Client_msg.Too_stale (hint ())
      end
    end
  in
  reply_to (Client_msg.read_reply_to_bytes { rid = read.id; status })

(* Apply-frontier bookkeeping. *)
let note_applied t ~iid =
  Atomic.set t.applied_iid (iid + 1);
  Atomic.set t.last_apply_ns (now_int_ns ())

(* Snapshot bookkeeping; the caller guarantees quiescence. *)
let take_snapshot t ~iid =
  let state = t.service.snapshot () in
  (match t.store with
   | Some store ->
     Msmr_storage.Replica_store.checkpoint store ~next_iid:(iid + 1) ~state
       ~configs:(Atomic.get t.configs_now)
   | None -> ());
  try Bq.put t.dispatcher_q (Snapshot_taken { next_iid = iid + 1; state })
  with Bq.Closed -> ()

(* --- Scheduling over the executor pool (see {!Exec_pool}) ------------ *)

let route pool key = Hashtbl.hash key mod Exec_pool.lanes pool

(* At-most-once, decided by the scheduler in decide order (see
   [exec_frontier]). Returns [true] when the request is fresh and must be
   dispatched. Duplicates are skipped silently: resending cached replies
   is [submit]'s job at ingress. *)
let frontier_admit t (req : Client_msg.request) =
  match Hashtbl.find_opt t.exec_frontier req.id.client_id with
  | Some newest when req.id.seq <= newest -> false
  | _ ->
    Hashtbl.replace t.exec_frontier req.id.client_id req.id.seq;
    true

(* Route one decided request. Same key -> same lane -> decide order
   preserved among conflicting commands; disjoint keys run concurrently.
   Commands spanning several lanes, and Global ones, are executed inline
   between two well-defined pool states. *)
let dispatch t st (req : Client_msg.request) =
  if frontier_admit t req then
    let pool = t.pool in
    match t.service.conflict_keys req with
    | Service.Keys [] ->
      (* Conflicts with nothing: spread over the pool. *)
      Exec_pool.send_rr ~st pool req
    | Service.Keys [ key ] -> Exec_pool.send ~st pool ~lane:(route pool key) req
    | Service.Keys keys -> (
        match List.sort_uniq compare (List.map (route pool) keys) with
        | [ lane ] -> Exec_pool.send ~st pool ~lane req
        | _ ->
          Exec_pool.quiesce pool st;
          exec_request t req)
    | Service.Global ->
      Exec_pool.quiesce pool st;
      exec_request t req

(* The idle path. With no dispatched request unfinished and no decision
   queued behind this batch, no executor could overlap with it, so the
   scheduler runs the batch itself, replies included: no executor wake.
   Per-key decide order holds as on the pool path: every earlier request
   has finished ([Exec_pool.idle]) and the scheduler, the only
   dispatcher, runs this batch to completion before it pops the next
   decision. *)
let exec_inline t (requests : Client_msg.request list) =
  Counter.incr t.exec_inline;
  List.iter
    (fun req -> if frontier_admit t req then exec_request t req)
    requests

let scheduler_loop t st =
  let pool = t.pool in
  let instances_executed = ref 0 in
  let continue = ref true in
  while !continue do
    match Bq.take ~st t.decision_q with
    | exception Bq.Closed -> continue := false
    | Install { state } ->
      (* State transfer replaces the whole service state. *)
      Exec_pool.quiesce pool st;
      t.service.restore state
    | Read_exec { read; reply_to } ->
      (* Inline, no quiesce: see [exec_read] for why racing an
         executor-resident (un-replied, hence concurrent) write is a
         legal linearization. *)
      exec_read t read reply_to
    | Exec { iid; value } ->
      (match value with
       (* Reconfig instances mutate the engine's membership (adopted on
          the Protocol thread), not the service state. *)
       | Value.Noop | Value.Reconfig _ -> ()
       | Value.Batch batch ->
         if Exec_pool.idle pool && Bq.is_empty t.decision_q then
           exec_inline t batch.requests
         else List.iter (dispatch t st) batch.requests);
      if Option.is_some t.lease_ctx then note_applied t ~iid;
      incr instances_executed;
      if t.cfg.snapshot_every > 0
         && !instances_executed mod t.cfg.snapshot_every = 0
      then begin
        (* Snapshots must capture a prefix-closed state. *)
        Exec_pool.quiesce pool st;
        take_snapshot t ~iid
      end
  done;
  (* Let the executors drain and exit. *)
  Exec_pool.close pool

(* ------------------------------------------------------------------ *)
(* Observability: every replica exposes its queue depths, window and
   progress counters in the shared registry (docs/OBSERVABILITY.md).
   Gauges are snapshot-time closures over state the replica already
   keeps, so the hot path pays nothing. *)

let metric_labels t = [ ("mode", "live"); ("replica", string_of_int t.me) ]

let metric_names =
  [ "msmr_replica_request_queue_depth";
    "msmr_replica_dispatcher_queue_depth";
    "msmr_replica_decision_queue_depth";
    "msmr_replica_window_in_use";
    "msmr_replica_decided";
    "msmr_replica_executed";
    "msmr_replica_send_queue_drops";
    "msmr_client_io_requests_total";
    "msmr_client_io_replies_total";
    "msmr_client_io_malformed_total";
    "msmr_replica_executor_queue_depth";
    "msmr_replica_executor_dispatched";
    "msmr_replica_exec_inline_total";
    "msmr_replica_executor_barriers";
    "msmr_executor_steal_total";
    "msmr_executor_steal_fail_total";
    "msmr_replica_log_queue_depth";
    "msmr_replica_durable_hold_s";
    "msmr_replica_bsz_now";
    "msmr_replica_batch_fill";
    "msmr_replica_flush_size_total";
    "msmr_replica_flush_delay_total";
    "msmr_replica_flush_idle_total";
    "msmr_replica_view_changes_total";
    "msmr_replica_suspect_total";
    "msmr_replica_reconnect_total";
    "msmr_lease_held";
    "msmr_lease_renewals_total";
    "msmr_lease_until_ns";
    "msmr_read_served_total";
    "msmr_read_rejected_total";
    "msmr_read_stale_served_total";
    "msmr_read_stale_rejected_total";
    "msmr_replica_reconfig_epoch";
    "msmr_replica_reconfig_applied_total";
    "msmr_replica_reconfig_member";
    "msmr_replica_reconfig_voters";
    "msmr_replica_snapshot_install_total" ]

let register_metrics t =
  let labels = metric_labels t in
  let g name f = Msmr_obs.Metrics.gauge ~labels name f in
  let fi x = float_of_int x in
  g "msmr_replica_request_queue_depth" (fun () -> fi (Bq.length t.request_q));
  g "msmr_replica_dispatcher_queue_depth" (fun () ->
      fi (Bq.length t.dispatcher_q));
  g "msmr_replica_decision_queue_depth" (fun () -> fi (Bq.length t.decision_q));
  g "msmr_replica_window_in_use" (fun () -> fi (Atomic.get t.window_now));
  g "msmr_replica_decided" (fun () -> fi (Counter.get t.decided));
  g "msmr_replica_executed" (fun () -> fi (Counter.get t.executed));
  g "msmr_replica_send_queue_drops" (fun () -> fi (Counter.get t.send_q_drops));
  g "msmr_replica_executor_queue_depth" (fun () -> fi (Exec_pool.depth t.pool));
  g "msmr_replica_executor_dispatched" (fun () ->
      fi (Exec_pool.dispatched t.pool));
  g "msmr_replica_exec_inline_total" (fun () -> fi (Counter.get t.exec_inline));
  g "msmr_replica_executor_barriers" (fun () -> fi (Exec_pool.barriers t.pool));
  g "msmr_executor_steal_total" (fun () -> fi (Exec_pool.steals t.pool));
  g "msmr_executor_steal_fail_total" (fun () ->
      fi (Exec_pool.steal_fails t.pool));
  (* Process-wide park accounting for the channels, in total and per
     channel name (every name created so far). Registered with
     process-global labels: re-registration by another replica is a
     no-op replace of an identical closure, and the gauges are
     deliberately not removed on [stop]. *)
  Msmr_obs.Metrics.gauge ~labels:[ ("mode", "live") ] "msmr_queue_park_total"
    (fun () -> fi (Waitstats.park_total ()));
  List.iter
    (fun c ->
       Msmr_obs.Metrics.gauge
         ~labels:[ ("mode", "live"); ("queue", Waitstats.name c) ]
         "msmr_channel_park_total"
         (fun () -> fi (Waitstats.parks_of c)))
    (Waitstats.counters ());
  g "msmr_replica_log_queue_depth" (fun () ->
      match t.stable with
      | Some ss -> fi (Bq.length ss.log_q)
      | None -> 0.);
  let seals () = Batcher.seal_stats t.batcher in
  g "msmr_replica_bsz_now" (fun () -> fi (Atomic.get t.bsz_now));
  g "msmr_replica_batch_fill" (fun () ->
      (* cumulative mean fill ratio: payload bytes over the BSZ limit in
         force at each seal *)
      let s = seals () in
      if s.limit_bytes = 0 then 0.
      else fi s.sealed_bytes /. fi s.limit_bytes);
  g "msmr_replica_flush_size_total" (fun () -> fi (seals ()).seals_size);
  g "msmr_replica_flush_delay_total" (fun () -> fi (seals ()).seals_delay);
  g "msmr_replica_flush_idle_total" (fun () -> fi (seals ()).seals_idle);
  g "msmr_replica_view_changes_total" (fun () ->
      fi (Counter.get t.view_changes));
  g "msmr_replica_suspect_total" (fun () -> fi (Counter.get t.suspects));
  g "msmr_replica_reconnect_total" (fun () -> fi (t.reconnects ()));
  g "msmr_lease_held" (fun () -> if lease_held t then 1. else 0.);
  g "msmr_lease_renewals_total" (fun () -> fi (lease_renewals_count t));
  g "msmr_lease_until_ns" (fun () ->
      match t.lease_ctx with
      | Some lc -> fi (Atomic.get lc.lease_until)
      | None -> 0.);
  g "msmr_read_served_total" (fun () -> fi (Counter.get t.reads_served));
  g "msmr_read_rejected_total" (fun () -> fi (Counter.get t.reads_rejected));
  g "msmr_read_stale_served_total" (fun () -> fi (Counter.get t.stale_served));
  g "msmr_read_stale_rejected_total" (fun () ->
      fi (Counter.get t.stale_rejected));
  g "msmr_replica_reconfig_epoch" (fun () ->
      fi (Atomic.get t.membership_now).Membership.epoch);
  g "msmr_replica_reconfig_applied_total" (fun () ->
      fi (Counter.get t.reconfigs_applied));
  g "msmr_replica_reconfig_member" (fun () -> if is_member t then 1. else 0.);
  g "msmr_replica_reconfig_voters" (fun () ->
      fi (Membership.n_voters (Atomic.get t.membership_now)));
  g "msmr_replica_snapshot_install_total" (fun () ->
      fi (Counter.get t.snapshot_installs))

let unregister_metrics t =
  let labels = metric_labels t in
  List.iter (fun name -> Msmr_obs.Metrics.remove ~labels name) metric_names

(* RequestQueue capacity in requests (the paper's setting; the MPMC ring
   rounds it up to 1024). *)
let request_queue_capacity = 1000

let create ?(executor_threads = 1)
    ?(durability = Ephemeral) ?(reconnects = fun () -> 0) ~cfg ~me ~links
    ~service () =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error e -> invalid_arg ("Replica.create: " ^ e));
  if executor_threads < 1 then
    invalid_arg "Replica.create: executor_threads < 1";
  let expected = List.sort compare (List.filter (fun p -> p <> me)
                                      (List.init cfg.Config.n Fun.id)) in
  let got = List.sort compare (List.map fst links) in
  if expected <> got then invalid_arg "Replica.create: bad link set";
  let recovered, store =
    match durability with
    | Ephemeral -> (None, None)
    | Durable { dir; sync } ->
      (* Replay first, then open the WAL for appending. *)
      let r = Msmr_storage.Replica_store.recover ~dir () in
      (Some r, Some (Msmr_storage.Replica_store.openw ~sync ~dir ()))
  in
  let stable =
    match durability with
    | Ephemeral -> None
    | Durable { sync; _ } ->
      let labels = [ ("mode", "live"); ("replica", string_of_int me) ] in
      Some
        { log_q =
            (* Protocol produces, StableStorage consumes. *)
            Bq.create ~name:"log_queue" ~kind:Bq.Spsc ~capacity:8192;
          ss_periodic = sync = Msmr_storage.Wal.Sync_periodic;
          ss_lsn = Atomic.make 0;
          ss_stall = Atomic.make false;
          ss_hold = Msmr_obs.Metrics.histogram ~labels "msmr_replica_durable_hold_s" }
  in
  let bsz_now = Atomic.make cfg.Config.max_batch_bytes in
  (* Membership history seed: the checkpoint's configs if one was
     recovered, else the boot membership. Reconfigs decided after the
     checkpoint re-adopt during log replay (Membership_changed actions). *)
  let configs0 =
    match recovered with
    | Some { Msmr_storage.Replica_store.r_configs = (_ :: _) as cs; _ } -> cs
    | Some _ | None -> [ (0, Membership.initial cfg) ]
  in
  let batcher = Batcher.create ~tuned_bsz:bsz_now cfg ~src:me in
  let counter name =
    Msmr_obs.Metrics.counter
      ~labels:[ ("mode", "live"); ("replica", string_of_int me) ] name
  in
  (* Producer/consumer discipline per edge: the peers' sending threads
     (through [receive]), submitters, the scheduler and the Protocol
     thread itself all feed the dispatcher (MPMC); submitting threads
     feed the RequestQueue (MPMC); the DecisionQueue is strictly Protocol ->
     scheduler (SPSC) unless leases add the read producers; the log
     queue is Protocol -> StableStorage (SPSC). *)
  let t =
    { cfg; me; service;
      dispatcher_q =
        Bq.create ~name:"dispatcher_queue" ~kind:Bq.Mpmc ~capacity:4096;
      request_q =
        Bq.create ~name:"request_queue" ~kind:Bq.Mpmc
          ~capacity:request_queue_capacity;
      requests_kicked = Atomic.make false;
      decision_q =
        (* Lease mode adds client threads as read producers (submit_read);
           otherwise the Protocol thread is the only producer. *)
        Bq.create ~name:"decision_queue"
          ~kind:(if cfg.Config.lease_enabled then Bq.Mpmc else Bq.Spsc)
          ~capacity:1024;
      links;
      store;
      stable;
      recovered;
      reply_cache = Reply_cache.create ();
      routes = Cmap.create ~shards:16 ();
      pool = Exec_pool.create ~n_exec:executor_threads ();
      exec_frontier = Hashtbl.create 256;
      lease_ctx =
        (if cfg.Config.lease_enabled then
           Some
             { lease = Lease.create cfg ~me ~view:0;
               lease_until = Atomic.make 0;
               hb_frontier = Atomic.make 0;
               hb_recv_ns = Atomic.make 0;
               lease_renewals = Counter.create () }
         else None);
      fd = Failure_detector.create cfg ~me ~now_ns:(Mclock.now_ns ());
      leader_now = Atomic.make 0;
      view_now = Atomic.make 0;
      am_leader = Atomic.make false;
      executed = Counter.create ();
      decided = Counter.create ();
      m_requests = counter "msmr_client_io_requests_total";
      m_replies = counter "msmr_client_io_replies_total";
      m_malformed = counter "msmr_client_io_malformed_total";
      exec_inline = Counter.create ();
      send_q_drops = Counter.create ();
      view_changes = Counter.create ();
      suspects = Counter.create ();
      reads_served = Counter.create ();
      reads_rejected = Counter.create ();
      stale_served = Counter.create ();
      stale_rejected = Counter.create ();
      membership_now = Atomic.make (snd (List.hd configs0));
      configs_now = Atomic.make configs0;
      reconfigs_applied = Counter.create ();
      snapshot_installs = Counter.create ();
      applied_iid = Atomic.make 0;
      last_apply_ns = Atomic.make 0;
      reconnects;
      running = Atomic.make true;
      threads = [];
      window_now = Atomic.make 0;
      first_undecided_now = Atomic.make 0;
      bsz_now;
      batcher }
  in
  let spawn name f =
    Worker.spawn ~name:(Printf.sprintf "r%d/%s" me name) (fun st -> f t st)
  in
  (* Before Protocol starts: its first sends can draw replies at once. *)
  List.iter
    (fun (peer, (link : Transport.link)) -> link.on_receive (receive t peer))
    links;
  let stable_storage =
    match t.stable with
    | Some ss -> [ spawn "StableStorage" (fun t st -> stable_storage_loop t ss st) ]
    | None -> []
  in
  let executors =
    List.init executor_threads (fun i ->
        Worker.spawn ~name:(Printf.sprintf "r%d/Executor-%d" me i)
          (fun st ->
             (* No at-most-once check in the pool: the scheduler already
                decided it (exec_frontier) in decide order. *)
             Exec_pool.executor_loop t.pool ~idx:i ~exec:(exec_request t) ~st))
  in
  t.threads <-
    (spawn "Protocol" protocol_loop :: stable_storage)
    @ (spawn "Replica" scheduler_loop :: executors);
  register_metrics t;
  t

let stop t =
  if Atomic.exchange t.running false then begin
    (* A dead replica must not be reported as leader (Cluster.leader,
       and through it a caller that kills the leader). *)
    Atomic.set t.am_leader false;
    unregister_metrics t;
    (* Close the RequestQueue first: a submitter parked on it while it
       is full (the window full, the Protocol thread gone) wakes with
       [Bq.Closed]. *)
    Bq.close t.request_q;
    Bq.close t.dispatcher_q;
    Bq.close t.decision_q;
    (match t.stable with Some ss -> Bq.close ss.log_q | None -> ());
    (* The scheduler also closes the pool on exit; closing here too
       unblocks it even if the scheduler is wedged. Close is idempotent. *)
    Exec_pool.close t.pool;
    List.iter (fun (_, (link : Transport.link)) -> link.close ()) t.links;
    Worker.join_all t.threads;
    (match t.store with
     | Some store -> Msmr_storage.Replica_store.close store
     | None -> ())
  end

module Cluster = struct
  type replica = t

  type t = {
    hub : Transport.Hub.t;
    replicas : replica array;
    make : int -> replica;   (* factory, reused by [restart] *)
  }

  let create ?client_io_threads:_ ?executor_threads ?durability ~cfg ~service
      () =
    let n = cfg.Config.n in
    let hub = Transport.Hub.create ~n () in
    let make me =
      let links =
        List.filter_map
          (fun peer ->
             if peer = me then None
             else Some (peer, Transport.Hub.link hub ~me ~peer))
          (List.init n Fun.id)
      in
      let durability =
        match durability with Some f -> f me | None -> Ephemeral
      in
      create ?executor_threads ~durability ~cfg ~me ~links
        ~service:(service ()) ()
    in
    { hub; replicas = Array.init n make; make }

  let replicas t = t.replicas
  let hub t = t.hub

  let kill t i = stop t.replicas.(i)

  let restart t i =
    (* The dying replica swapped its hub handlers for drops; the new
       incarnation, rebuilt through the stored factory, installs fresh
       ones. With Durable durability the factory re-runs
       [Replica_store.recover] on the same directory — the WAL crash
       recovery path. *)
    stop t.replicas.(i);
    t.replicas.(i) <- t.make i;
    t.replicas.(i)

  let leader t =
    match Array.find_opt is_leader t.replicas with
    | Some r -> r
    | None -> t.replicas.(0)

  let await_leader ?(timeout_s = 5.0) t =
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
    let rec go () =
      match Array.find_opt is_leader t.replicas with
      | Some r -> r
      | None ->
        if Int64.compare (Mclock.now_ns ()) deadline > 0 then
          failwith "Cluster.await_leader: timeout"
        else begin
          Mclock.sleep_s 0.005;
          go ()
        end
    in
    go ()

  (* Drive one membership step to adoption: keep re-submitting [step]
     (computed against the acting leader's current epoch) until [pred]
     holds on the leader. Re-submission is safe — [propose_reconfig]
     rejects stale epochs and concurrent reconfigs, and an adopted step
     makes [step] return [None]. *)
  let drive ?(timeout_s = 10.0) ~what t step pred =
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
    let rec go () =
      let ld = leader t in
      if pred (membership ld) then ()
      else begin
        if Int64.compare (Mclock.now_ns ()) deadline > 0 then
          failwith (Printf.sprintf "Cluster.%s: timeout" what);
        (match step (membership ld) with
         | Some m -> request_reconfig ld m
         | None -> ());
        Mclock.sleep_s 0.01;
        go ()
      end
    in
    go ()

  let caught_up t i =
    (* The joiner's log frontier is within one pipeline window of the
       leader's: close enough that promotion cannot stall the quorum. *)
    let ld = leader t in
    me ld = i
    || first_undecided ld - first_undecided t.replicas.(i)
       <= t.replicas.(i).cfg.Config.window

  let join ?timeout_s ?(promote = true) t i =
    (* Phase 1: enter as a non-voting learner — receives the decide
       stream (and snapshot-based state transfer via catch-up) without
       counting toward any quorum. *)
    drive ?timeout_s ~what:"join" t
      (fun m -> Membership.add_learner m i)
      (fun m -> Membership.is_member m i);
    if promote then begin
      (* Phase 2: wait out state transfer, then enter the voting set. *)
      let deadline_s = Option.value timeout_s ~default:10.0 in
      let deadline =
        Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s deadline_s)
      in
      while not (caught_up t i) do
        if Int64.compare (Mclock.now_ns ()) deadline > 0 then
          failwith "Cluster.join: state transfer timeout";
        Mclock.sleep_s 0.01
      done;
      drive ?timeout_s ~what:"promote" t
        (fun m -> Membership.promote m i)
        (fun m -> Membership.is_voter m i)
    end

  let decommission ?timeout_s t i =
    drive ?timeout_s ~what:"decommission" t
      (fun m -> Membership.remove m i)
      (fun m -> not (Membership.is_member m i))

  let stop t = Array.iter stop t.replicas
end
