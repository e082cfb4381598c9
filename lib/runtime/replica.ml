module Bq = Msmr_platform.Channel
module Waitstats = Msmr_platform.Waitstats
module Dq = Msmr_platform.Delay_queue
module Worker = Msmr_platform.Worker
module Thread_state = Msmr_platform.Thread_state
module Mclock = Msmr_platform.Mclock
module Counter = Msmr_platform.Rate_meter.Counter
module Cmap = Msmr_platform.Concurrent_map
module Client_msg = Msmr_wire.Client_msg
open Msmr_consensus

let log_src = Logs.Src.create "msmr.replica" ~doc:"Replica runtime"

module Log_ = (val Logs.src_log log_src : Logs.LOG)

type event =
  | Peer_msg of { from : Types.node_id; msg : Msg.t }
  | Suspect
  | Snapshot_taken of { next_iid : Types.iid; state : bytes }
  | Proposal_ready
      (** Batcher signal: the ProposalQueue has something for the
          Protocol thread (keeps the event loop fully blocking). *)
  | Housekeeping_tick  (** periodic catch-up check, from the FD thread *)
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
  | Spec of { req : Client_msg.request; conflict : Service.conflict }
      (** Speculative pre-dispatch (DESIGN.md section 16): pushed by the
          ClientIO ingress hook the moment a fresh request arrives at the
          leader, before the request enters the Batcher. Queue FIFO
          therefore places it strictly before the request's own [Exec],
          which is what makes the scheduler's ledger admission race-free:
          the prediction is always on file when the decide arrives. *)
  | Spec_flush
      (** View changed: every open speculation predicted the {e old}
          leader's log-append order, so abort them all. *)

type durability =
  | Ephemeral
  | Durable of { dir : string; sync : Msmr_storage.Wal.sync_policy }

type rtx_entry = {
  r_dest : Types.node_id list;
  r_msg : Msg.t;
  r_cancelled : bool Atomic.t;
  r_t0 : int64;
      (* when the retransmission was first scheduled; for the leader's
         Rtx_accept this is the propose time, so cancel time minus it is
         the commit latency the autotune controller feeds on *)
}

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
  ss_lsn : int Atomic.t;  (* last LSN assigned by the Protocol thread *)
  ss_stall : bool Atomic.t;  (* test hook: park the pipeline *)
  ss_hold : Msmr_platform.Histogram.t;  (* gated-send hold time, seconds *)
}

(* Parallel ServiceManager (executor_threads > 1): a scheduler thread
   consumes the DecisionQueue in decide order and routes each request to
   a lane of the {!Exec_pool} by hashing its conflict key, so commands on
   the same key always land on the same lane and keep their decide order,
   while commands on different keys run concurrently. The pool runs many
   lanes over the executors and idle executors steal lane tokens from
   busy siblings. Global / multi-lane commands and snapshots first
   quiesce the pool. *)
(* Work items flowing through the executor lanes. [W_exec] is the
   ordered path; the other three belong to the speculative path
   (Config.speculate, DESIGN.md section 16). All items for one conflict
   key ride the same lane, so the per-lane FIFO serialises a key's
   speculative execution, its confirm-or-abort, and any ordered
   re-execution — no per-frame state machine is needed. *)
type work =
  | W_exec of Client_msg.request
  | W_spec of Spec_ledger.frame * Client_msg.request
      (* execute optimistically via [Service.execute_undo]; stage the
         reply invisibly and park the undo closure in the frame *)
  | W_confirm of Spec_ledger.frame * Client_msg.request
      (* decide order matched the prediction: promote the staged reply
         and deliver it (the request rides along only for the defensive
         ordered-re-execution fallback) *)
  | W_abort of Spec_ledger.frame
      (* prediction failed: run the undo, drop the staged reply *)

(* Speculation runtime (Some iff cfg.speculate and the service implements
   [execute_undo]). The ledger is scheduler-private; the counters and
   lead accumulators are written by executors and read by metrics. *)
type spec_ctx = {
  ledger : Spec_ledger.t;
  spec_dispatch : Counter.t;  (* frames admitted + pre-dispatched *)
  spec_confirm : Counter.t;   (* frames whose prediction held *)
  spec_abort : Counter.t;     (* frames rolled back *)
  spec_requeue : Counter.t;   (* decided requests re-executed ordered
                                 after a mispredict on their key *)
  lead_ns_sum : int Atomic.t; (* sum of confirm - dispatch, ns *)
  lead_n : int Atomic.t;
}

type exec_ctx = {
  pool : work Exec_pool.t;
  exec_frontier : (int, int) Hashtbl.t;
      (* client_id -> newest seq dispatched, maintained by the scheduler
         in decide order. At-most-once must be decided here, not on the
         executors: a client's commands on different keys run on
         different executors, so an executor-side newest-seq check could
         race with a later command of the same client finishing first
         and wrongly suppress a fresh one. Scheduler-private. *)
  conflict_cache : (int, int * Service.conflict) Cmap.t;
      (* client_id -> (seq, conflict class), written once per fresh
         request by the ClientIO ingress hook so the spine classifies
         each request exactly once; the scheduler reads it at dispatch
         and falls back to classifying only on a miss (cache overwritten
         by a newer request of the same client, or ingress raced). *)
  spec : spec_ctx option;
}

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
  gid : int option;
      (* consensus group this replica orders for (multi-group Paxos);
         [None] = classic single-group deployment. Group [g] bootstraps
         at view [g], so node [g mod n] leads it, and the group id
         labels this replica's metrics. *)
  service : Service.t;
  (* Queues (Figure 3). *)
  dispatcher_q : event Bq.t;
  proposal_q : Batch.t Bq.t;
  request_q : Client_msg.request Bq.t;
  decision_q : decision Bq.t;
  send_qs : Msg.t Bq.t array;           (* one per node id; own slot unused *)
  rtx_dq : rtx_entry Dq.t;
  (* Modules. *)
  links : (Types.node_id * Transport.link) list;
  store : Msmr_storage.Replica_store.t option;
  stable : stable option;   (* Some iff [store] is Some *)
  recovered : Msmr_storage.Replica_store.recovered option;
  reply_cache : Reply_cache.t;
  mutable client_io : Client_io.t option;
  exec_pool : exec_ctx option;   (* None => serial ServiceManager *)
  lease_ctx : lease_ctx option;  (* Some iff cfg.lease_enabled *)
  fd : Failure_detector.t;
  (* Shared introspection state (single-word, lock-free). *)
  leader_now : int Atomic.t;
  view_now : int Atomic.t;
  am_leader : bool Atomic.t;
  executed : Counter.t;
  decided : Counter.t;
  send_q_drops : Counter.t;
  sender_flushes : Counter.t;   (* coalesced sender-drain passes *)
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
  (* Autotune (Config.auto_tune): tuned values published by the Protocol
     thread's controller tick, read lock-free by the Batcher threads
     (tuned_bsz) and by metrics. The engine's window is retuned directly
     on the Protocol thread via [Paxos.set_window]. *)
  tuned_bsz : int Atomic.t;
  tuned_wnd : int Atomic.t;
  batchers : Batcher.t array;
  (* Commit-latency accumulators for the current controller epoch.
     Protocol-thread private (written in protocol_apply, read/reset by
     the controller tick on the same thread) — no synchronisation. *)
  mutable tune_lat_sum : float;
  mutable tune_lat_n : int;
}

let me t = t.me
let tuned_now t = (Atomic.get t.tuned_bsz, Atomic.get t.tuned_wnd)
let is_leader t = Atomic.get t.am_leader
let current_view t = Atomic.get t.view_now
let executed_count t = Counter.get t.executed
let decided_count t = Counter.get t.decided
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

let spec_ctx_of t =
  match t.exec_pool with
  | Some { spec = Some sc; _ } -> Some sc
  | Some { spec = None; _ } | None -> None

let spec_counter t f =
  match spec_ctx_of t with Some sc -> Counter.get (f sc) | None -> 0

let spec_dispatched_count t = spec_counter t (fun sc -> sc.spec_dispatch)
let spec_confirmed_count t = spec_counter t (fun sc -> sc.spec_confirm)
let spec_aborted_count t = spec_counter t (fun sc -> sc.spec_abort)
let spec_requeued_count t = spec_counter t (fun sc -> sc.spec_requeue)

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
  proposal_queue : int;
  dispatcher_queue : int;
  decision_queue : int;
  window_in_use : int;
}

let queue_stats t =
  { request_queue = Bq.length t.request_q;
    proposal_queue = Bq.length t.proposal_q;
    dispatcher_queue = Bq.length t.dispatcher_q;
    decision_queue = Bq.length t.decision_q;
    window_in_use = Atomic.get t.window_now }

(* Read ingress: decode and put the read on the DecisionQueue. No
   Batcher, no Paxos, no ReplyCache — reads are idempotent, so they must
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

let submit ?reply_many ?conflict t ~raw ~reply_to =
  if Client_msg.is_read_raw raw then submit_read t ~raw ~reply_to
  else
    match t.client_io with
    | Some cio -> Client_io.submit ?reply_many ?conflict cio ~raw ~reply_to
    | None -> invalid_arg "Replica.submit: stopped"

let inject_suspect t = Bq.put t.dispatcher_q Suspect

let stall_stable_storage t stalled =
  match t.stable with
  | Some ss -> Atomic.set ss.ss_stall stalled
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Protocol thread: executes engine actions. *)

let enqueue_send t dest msg =
  List.iter
    (fun d ->
       if d <> t.me then begin
         (* Never block the Protocol thread on a send queue (Section V-B):
            if a peer's sender is saturated, drop — retransmission and
            catch-up recover. *)
         match Bq.try_put t.send_qs.(d) msg with
         | true -> ()
         | false -> Counter.incr t.send_q_drops
         | exception Bq.Closed -> ()
       end)
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
   covered — and is forwarded to the send queues only once that LSN is
   durable. Ephemeral mode ([stable = None]) is the direct path,
   unchanged. *)
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

let protocol_apply t (rtx_map : (Paxos.rtx_key, rtx_entry) Hashtbl.t) actions =
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
         let entry =
           { r_dest = dest; r_msg = msg; r_cancelled = Atomic.make false;
             r_t0 = now }
         in
         Hashtbl.replace rtx_map key entry;
         let at_ns =
           Int64.add now (Mclock.ns_of_s t.cfg.retransmit_interval_s)
         in
         (try ignore (Dq.schedule t.rtx_dq ~at_ns entry)
          with Dq.Closed -> ())
       | Paxos.Cancel_rtx key -> (
           match Hashtbl.find_opt rtx_map key with
           | Some entry ->
             (* Lock-free cancellation: flag only; the Retransmitter drops
                the entry when its timer fires (Section V-C4). *)
             Atomic.set entry.r_cancelled true;
             Hashtbl.remove rtx_map key;
             (* A cancelled Rtx_accept means the instance decided:
                schedule-to-cancel is the leader's commit latency. *)
             (if t.cfg.Config.auto_tune then
                match key with
                | Paxos.Rtx_accept _ ->
                  t.tune_lat_sum <-
                    t.tune_lat_sum
                    +. Mclock.s_of_ns (Int64.sub now entry.r_t0);
                  t.tune_lat_n <- t.tune_lat_n + 1
                | _ -> ())
           | None -> ())
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
         (* Every open speculation predicted the old leader's log-append
            order; the new leader may re-propose in any order. *)
         if t.cfg.Config.speculate then
           (try Bq.put t.decision_q Spec_flush with Bq.Closed -> ());
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

let protocol_loop t st =
  let rtx_map : (Paxos.rtx_key, rtx_entry) Hashtbl.t = Hashtbl.create 256 in
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
    protocol_apply t rtx_map actions
  in
  let view0 = Option.value t.gid ~default:0 in
  let engine =
    match t.recovered with
    | None ->
      let engine = Paxos.create ~view0 t.cfg ~me:t.me in
      apply (Paxos.bootstrap engine);
      engine
    | Some r ->
      let engine, replays =
        (* A pristine store in group [g] still re-enters view [g], not
           view 0, so leadership stays where the group layout puts it. *)
        Paxos.recover ~configs:r.Msmr_storage.Replica_store.r_configs t.cfg
          ~me:t.me
          ~view:(max r.Msmr_storage.Replica_store.r_view view0)
          ~accepted:r.r_accepted
          ~decided:r.r_decided ~snapshot:r.r_snapshot
      in
      (* Replays rebuild the service state; do not re-log them. *)
      protocol_apply t rtx_map replays;
      engine
  in
  (* Autotune controller: pure policy ticked here, on the engine-owning
     thread, every [tune_epoch_s]. Tuned BSZ is published through the
     [tuned_bsz] atomic for the Batcher threads; tuned WND is applied
     directly with [Paxos.set_window] (same thread, no synchronisation).
     No locks anywhere on the path, per the ReplicationCore rule. *)
  let tuner =
    if t.cfg.Config.auto_tune then Some (Autotune.of_config t.cfg) else None
  in
  let tune_last_ns = ref (Mclock.now_ns ()) in
  let tune_executed = ref (Counter.get t.executed) in
  let tune_seals = ref Batcher.{
      seals_size = 0; seals_delay = 0; sealed_bytes = 0; limit_bytes = 0 }
  in
  let agg_seals () =
    Array.fold_left
      (fun acc b ->
         let s = Batcher.seal_stats b in
         Batcher.{
           seals_size = acc.seals_size + s.seals_size;
           seals_delay = acc.seals_delay + s.seals_delay;
           sealed_bytes = acc.sealed_bytes + s.sealed_bytes;
           limit_bytes = acc.limit_bytes + s.limit_bytes })
      Batcher.{ seals_size = 0; seals_delay = 0; sealed_bytes = 0;
                limit_bytes = 0 }
      t.batchers
  in
  let tick_tuner engine =
    match tuner with
    | None -> ()
    | Some at ->
      let now = Mclock.now_ns () in
      let dt = Mclock.s_of_ns (Int64.sub now !tune_last_ns) in
      if dt >= t.cfg.Config.tune_epoch_s then begin
        let seals = agg_seals () in
        let prev = !tune_seals in
        let d_bytes = seals.Batcher.sealed_bytes - prev.Batcher.sealed_bytes in
        let d_limit = seals.Batcher.limit_bytes - prev.Batcher.limit_bytes in
        let executed = Counter.get t.executed in
        let signals =
          Autotune.{
            s_window_in_use = Paxos.window_in_use engine;
            s_proposal_queue = Bq.length t.proposal_q;
            s_log_queue =
              (match t.stable with
               | Some ss -> Bq.length ss.log_q
               | None -> 0);
            s_seals_size = seals.Batcher.seals_size - prev.Batcher.seals_size;
            s_seals_delay =
              seals.Batcher.seals_delay - prev.Batcher.seals_delay;
            s_batch_fill =
              (if d_limit = 0 then 0.
               else float_of_int d_bytes /. float_of_int d_limit);
            s_throughput = float_of_int (executed - !tune_executed) /. dt;
            s_commit_latency_s =
              (if t.tune_lat_n = 0 then 0.
               else t.tune_lat_sum /. float_of_int t.tune_lat_n);
          }
        in
        Autotune.tick at signals;
        Atomic.set t.tuned_bsz (Autotune.bsz at);
        Atomic.set t.tuned_wnd (Autotune.wnd at);
        Paxos.set_window engine (Autotune.wnd at);
        tune_last_ns := now;
        tune_executed := executed;
        tune_seals := seals;
        t.tune_lat_sum <- 0.;
        t.tune_lat_n <- 0
      end
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
  let lease_tick () =
    match t.lease_ctx with
    | Some lc
      when Atomic.get t.am_leader
           && Membership.is_voter (Atomic.get t.membership_now) t.me ->
      let now = now_int_ns () in
      if Lease.ping_due lc.lease ~now_ns:now then begin
        let ping = Lease.make_ping lc.lease ~now_ns:now in
        (* A singleton group grants to itself at ping time. *)
        Atomic.set lc.lease_until (Lease.held_until_ns lc.lease);
        enqueue_send t (lease_peers ()) ping
      end
    | Some _ | None -> ()
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
    | Proposal_ready -> ()
    | Housekeeping_tick ->
      lease_tick ();
      apply (Paxos.tick_catchup engine)
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
      (* The FD re-arms after a verdict, so the suspicion re-fires after
         the promise has lapsed; a live leader will have renewed by then. *)
      ()
    | Suspect ->
      Counter.incr t.suspects;
      apply (Paxos.suspect_leader engine)
    | Snapshot_taken { next_iid; state } ->
      apply (Paxos.note_snapshot engine ~next_iid ~state)
  in
  while Atomic.get t.running do
    (match Bq.take ~st t.dispatcher_q with
     | ev ->
       handle ev;
       (* Drain a bounded burst to amortise queue locking. *)
       let rec burst k =
         if k > 0 then
           match Bq.try_take t.dispatcher_q with
           | Some ev -> handle ev; burst (k - 1)
           | None -> ()
       in
       burst 64
     | exception Bq.Closed -> Atomic.set t.running false);
    (* Start new ballots while the window allows (pipelining). *)
    let rec feed () =
      if Paxos.can_propose engine then
        match Bq.try_take t.proposal_q with
        | Some batch ->
          apply (Paxos.propose engine batch);
          feed ()
        | None -> ()
    in
    feed ();
    tick_tuner engine;
    Atomic.set t.window_now (Paxos.window_in_use engine);
    Atomic.set t.first_undecided_now
      (Msmr_consensus.Log.first_undecided (Paxos.log engine))
  done

(* ------------------------------------------------------------------ *)
(* StableStorage thread (Durable mode): the other end of the pipeline
   described at [ss_item]. Burst size bounds how many events one fsync
   can cover, and therefore how long a gated message can wait behind
   unrelated appends. *)

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
  let buf = Array.make 256 None in
  let continue = ref true in
  while !continue do
    match Bq.take_batch_into ~st ss.log_q ~buf with
    | exception Bq.Closed -> continue := false
    | n ->
      (* Test hook: park with the burst in hand — nothing is logged or
         released while stalled. *)
      while Atomic.get ss.ss_stall && Atomic.get t.running do
        Thread_state.enter st Thread_state.Waiting (fun () ->
            Mclock.sleep_s 0.0005)
      done;
      let events = ref [] in
      for i = n - 1 downto 0 do
        match buf.(i) with
        | Some (Ss_log ev) -> events := ev :: !events
        | Some (Ss_release _) | None -> ()
      done;
      (* One [log_batch] per burst: under [Sync_every_write] every event
         in it shares a single fsync (group commit), and the returned
         LSN is durable. Under the weaker policies the pre-pipeline
         contract was append-before-send, so the appended LSN is the
         right release watermark there too. *)
      let watermark =
        Msmr_storage.Replica_store.log_batch ~st store !events
      in
      for i = 0 to n - 1 do
        (match buf.(i) with
         | Some (Ss_release { lsn; dest; msg; enq_ns }) ->
           Queue.push (lsn, dest, msg, enq_ns) pending
         | Some (Ss_log _) | None -> ());
        buf.(i) <- None
      done;
      release watermark
  done

(* ------------------------------------------------------------------ *)
(* Batcher thread. Several may run (the paper's Section VI-B extension);
   they share the RequestQueue and build disjoint batches, with disjoint
   [src] spaces keeping batch ids unique. *)

let batcher_burst = 32

let batcher_loop idx t st =
  let policy = t.batchers.(idx) in
  (* Scratch buffer for the post-wakeup burst drain: once one request
     arrives, siblings queued behind it are folded into the batch without
     further blocking (or list allocation). *)
  let buf = Array.make batcher_burst None in
  let running = ref true in
  let publish batch =
    try
      Bq.put ~st t.proposal_q batch;
      ignore (Bq.try_put t.dispatcher_q Proposal_ready)
    with Bq.Closed -> running := false
  in
  let add req =
    match Batcher.add policy req ~now_ns:(Mclock.now_ns ()) with
    | Some batch -> publish batch
    | None -> ()
  in
  while !running do
    (* With no open batch there is nothing to time out: block. With one,
       park only until its deadline. *)
    let next =
      match Batcher.deadline_ns policy with
      | None -> Some (Bq.take ~st t.request_q)
      | Some d ->
        Bq.take_timeout ~st t.request_q
          ~timeout_s:(Mclock.s_of_ns (Int64.sub d (Mclock.now_ns ())))
    in
    match next with
    | Some req ->
      add req;
      let n = Bq.drain_into t.request_q ~buf in
      for i = 0 to n - 1 do
        if !running then
          match buf.(i) with
          | Some req -> add req; buf.(i) <- None
          | None -> ()
      done
    | None -> (
        match Batcher.flush_due policy ~now_ns:(Mclock.now_ns ()) with
        | Some batch -> publish batch
        | None -> ())
    | exception Bq.Closed ->
      (* Flush the open batch on shutdown. *)
      (match Batcher.force_flush policy with
       | Some batch -> (try Bq.put t.proposal_q batch with Bq.Closed -> ())
       | None -> ());
      running := false
  done

(* ------------------------------------------------------------------ *)
(* ReplicaIO threads. *)

(* Sender coalescing: drain a bounded burst per pass, encode each
   message through the Codec writer pool, and hand the whole run to the
   link in one [send_many] (a single write(2) over TCP) — the
   inter-replica mirror of ClientIO's reply coalescing. The bound keeps
   one pass from monopolising the link when the queue is deep. *)
let sender_burst = 32

let sender_loop t peer (link : Transport.link) st =
  let q = t.send_qs.(peer) in
  (* One scratch buffer per sender thread: the hottest drain edge stops
     allocating a list per pass. *)
  let buf = Array.make sender_burst None in
  let continue = ref true in
  while !continue do
    match Bq.take_batch_into ~st q ~buf with
    | n ->
      let frames = ref [] in
      for i = n - 1 downto 0 do
        match buf.(i) with
        | Some msg ->
          frames := Msg.encode msg :: !frames;
          buf.(i) <- None
        | None -> ()
      done;
      Thread_state.enter st Thread_state.Other (fun () ->
          link.send_many !frames);
      Counter.incr t.sender_flushes;
      Failure_detector.note_send t.fd ~dest:peer ~now_ns:(Mclock.now_ns ())
    | exception Bq.Closed -> continue := false
  done

let receiver_loop t peer (link : Transport.link) st =
  let continue = ref true in
  while !continue do
    match
      Thread_state.enter st Thread_state.Other (fun () -> link.recv_bytes ())
    with
    | None -> continue := false
    | Some raw -> (
        match Msg.decode raw with
        | msg ->
          Failure_detector.note_recv t.fd ~from:peer ~now_ns:(Mclock.now_ns ());
          (try Bq.put ~st t.dispatcher_q (Peer_msg { from = peer; msg })
           with Bq.Closed -> continue := false)
        | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
          Log_.warn (fun m -> m "replica %d: bad frame from %d" t.me peer))
  done

(* ------------------------------------------------------------------ *)
(* FailureDetector thread. *)

let fd_loop t st =
  while Atomic.get t.running do
    let now = Mclock.now_ns () in
    List.iter
      (fun verdict ->
         match verdict with
         | Failure_detector.Heartbeat_to peers ->
           (* Only an ACTIVE leader advertises liveness: a recovered or
              deposed node that still sits in a view it nominally leads
              must not suppress the other replicas' suspicion. *)
           if Atomic.get t.am_leader then begin
             let msg =
               Msg.Heartbeat
                 { view = Atomic.get t.view_now;
                   first_undecided = Atomic.get t.first_undecided_now }
             in
             List.iter (fun p -> ignore (Bq.try_put t.send_qs.(p) msg)) peers
           end
         | Failure_detector.Suspect _leader -> (
             try Bq.put t.dispatcher_q Suspect with Bq.Closed -> ()))
      (Failure_detector.poll t.fd ~now_ns:now);
    (* Drive the Protocol thread's periodic catch-up check too, so its
       event loop can block indefinitely between events. *)
    (try ignore (Bq.try_put t.dispatcher_q Housekeeping_tick)
     with Bq.Closed -> ());
    let wake = Failure_detector.next_wake_ns t.fd ~now_ns:now in
    let nap =
      Float.min t.cfg.catchup_interval_s
        (Float.max 0.001 (Mclock.s_of_ns (Int64.sub wake now)))
    in
    Thread_state.enter st Thread_state.Other (fun () -> Mclock.sleep_s nap)
  done

(* ------------------------------------------------------------------ *)
(* Retransmitter thread. *)

let retransmitter_loop t st =
  let continue = ref true in
  while !continue do
    match Dq.take ~st t.rtx_dq with
    | entry ->
      if not (Atomic.get entry.r_cancelled) then begin
        (* Retransmitted Prepare_ok/Accepted/Accept honour the
           durability gate too: the timer can in principle fire before
           a slow disk has made the original durable. *)
        enqueue_send_gated t entry.r_dest entry.r_msg;
        let at_ns =
          Int64.add (Mclock.now_ns ())
            (Mclock.ns_of_s t.cfg.retransmit_interval_s)
        in
        try ignore (Dq.schedule t.rtx_dq ~at_ns entry)
        with Dq.Closed -> continue := false
      end
    | exception Dq.Closed -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* ServiceManager. With executor_threads = 1 (the default) a single
   Replica thread consumes the DecisionQueue and executes inline, exactly
   the paper's single ServiceManager. With more, the same thread becomes
   a scheduler over an executor pool (see [exec_pool] above). *)

(* Execute one decided request unconditionally: service call, reply
   cache update, reply hand-off. The caller is responsible for
   at-most-once (the serial path checks inline; the executor pool
   decides it at dispatch time, in decide order). *)
let exec_request_unchecked t (req : Client_msg.request) =
  let result = t.service.execute req in
  Reply_cache.store t.reply_cache req.id result;
  Counter.incr t.executed;
  match t.client_io with
  | Some cio -> Client_io.deliver_reply cio { id = req.id; result }
  | None -> ()

(* Serial path: at-most-once check + execute. The check-then-act is safe
   because one thread executes everything in decide order. *)
let exec_request t (req : Client_msg.request) =
  (* At-most-once: a duplicate that slipped into a batch is not
     re-executed. *)
  if not (Reply_cache.already_executed t.reply_cache req.id) then
    exec_request_unchecked t req

(* Serve one read popped off the DecisionQueue, on the SM/scheduler
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

   Scheduler mode executes the read inline without quiescing the pool:
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

(* Apply-frontier bookkeeping shared by both ServiceManager variants. *)
let note_applied t ~iid =
  Atomic.set t.applied_iid (iid + 1);
  Atomic.set t.last_apply_ns (now_int_ns ())

(* Snapshot bookkeeping shared by both ServiceManager variants; the
   caller guarantees quiescence. *)
let take_snapshot t ~iid =
  let state = t.service.snapshot () in
  (match t.store with
   | Some store ->
     Msmr_storage.Replica_store.checkpoint store ~next_iid:(iid + 1) ~state
       ~configs:(Atomic.get t.configs_now)
   | None -> ());
  try Bq.put t.dispatcher_q (Snapshot_taken { next_iid = iid + 1; state })
  with Bq.Closed -> ()

let service_manager_loop t st =
  let instances_executed = ref 0 in
  let continue = ref true in
  while !continue do
    match Bq.take ~st t.decision_q with
    | exception Bq.Closed -> continue := false
    | Install { state } -> t.service.restore state
    | Read_exec { read; reply_to } -> exec_read t read reply_to
    | Spec _ | Spec_flush ->
      (* Speculation needs the executor pool; the serial ServiceManager
         never wires the ingress hook, so only a stray Spec_flush from a
         view change can land here. Ordered execution ignores it. *)
      ()
    | Exec { iid; value } ->
      (match value with
       (* Reconfig instances mutate the engine's membership (adopted on
          the Protocol thread), not the service state. *)
       | Value.Noop | Value.Reconfig _ -> ()
       | Value.Batch batch -> List.iter (exec_request t) batch.requests);
      if Option.is_some t.lease_ctx then note_applied t ~iid;
      incr instances_executed;
      if t.cfg.snapshot_every > 0
         && !instances_executed mod t.cfg.snapshot_every = 0
      then take_snapshot t ~iid
  done

(* --- Executor pool (see {!Exec_pool} for the two variants) ----------- *)

let route pool key = Hashtbl.hash key mod Exec_pool.lanes pool

(* At-most-once, decided by the scheduler in decide order (see
   [exec_frontier]). Returns [true] when the request is fresh and must be
   dispatched. Duplicates are skipped silently, exactly as the serial
   path skips them: resending cached replies is ClientIO's job at
   ingress. *)
let frontier_admit ctx (req : Client_msg.request) =
  match Hashtbl.find_opt ctx.exec_frontier req.id.client_id with
  | Some newest when req.id.seq <= newest -> false
  | _ ->
    Hashtbl.replace ctx.exec_frontier req.id.client_id req.id.seq;
    true

(* Classify once: the ingress hook cached the conflict class keyed by
   (client, seq); a hit saves the second classification the pre-PR-9
   spine paid here. Miss = the cache entry was overwritten by a newer
   request of the same client, or this replica executed a request it
   never saw at ingress (forwarded batch) — classify locally. *)
let conflict_of t ctx (req : Client_msg.request) =
  match Cmap.find_opt ctx.conflict_cache req.id.client_id with
  | Some (seq, c) when seq = req.id.seq -> c
  | Some _ | None -> t.service.conflict_keys req

(* Abort one key's mispredicted frames: the W_aborts ride the frames' own
   lanes, behind their W_specs (FIFO), so each undo runs after — and only
   after — the speculative execution it reverses. *)
let push_aborts ~st ctx sc frames =
  List.iter
    (fun (f : Spec_ledger.frame) ->
       Counter.incr sc.spec_abort;
       Exec_pool.send ~st ctx.pool ~lane:f.f_lane (W_abort f))
    frames

(* Drop every open speculation and wait until all speculative effects are
   confirmed-or-undone. After this the service state is exactly the
   ordered prefix — the precondition for snapshots, state transfer,
   Global commands and linearizable reads. *)
let spec_drain ctx st =
  match ctx.spec with
  | None -> ()
  | Some sc ->
    push_aborts ~st ctx sc (Spec_ledger.abort_all sc.ledger);
    if Spec_ledger.effects_pending sc.ledger then
      Exec_pool.quiesce ctx.pool st

(* Ledger admission for a pre-dispatched request, on the scheduler
   thread so it cannot race the decide path. Only single-key commands
   speculate — exactly the commands whose lane FIFO can serialise the
   speculation against later ordered traffic on the same key. *)
let spec_admit t ctx st (req : Client_msg.request) conflict =
  match ctx.spec with
  | None -> ()
  | Some sc ->
    if Atomic.get t.am_leader then
      match conflict with
      | Service.Keys [ key ] ->
        let fresh =
          (not (Reply_cache.already_executed t.reply_cache req.id))
          && (match Hashtbl.find_opt ctx.exec_frontier req.id.client_id with
              | Some newest -> req.id.seq > newest
              | None -> true)
        in
        if fresh then (
          match
            Spec_ledger.admit sc.ledger req.id ~key
              ~lane:(route ctx.pool key) ~now_ns:(Mclock.now_ns ())
          with
          | None -> ()
          | Some frame ->
            Counter.incr sc.spec_dispatch;
            Exec_pool.send ~st ctx.pool ~lane:frame.f_lane
              (W_spec (frame, req)))
      | Service.Keys _ | Service.Global -> ()

(* Route one decided request. Same key -> same lane -> decide order
   preserved among conflicting commands; disjoint keys run concurrently.
   Commands spanning several lanes, and Global ones, are executed inline
   between two well-defined pool states. With speculation on, the decide
   is first matched against the ledger: a confirmed prediction turns
   into a W_confirm on the frame's lane (the execution already
   happened), a mispredict into W_aborts followed by the ordered
   re-execution. *)
let dispatch t ctx st (req : Client_msg.request) =
  if frontier_admit ctx req then
    let pool = ctx.pool in
    match conflict_of t ctx req with
    | Service.Keys [] ->
      (* Conflicts with nothing: spread over the pool. *)
      Exec_pool.send_rr ~st pool (W_exec req)
    | Service.Keys [ key ] ->
      let speculated =
        match ctx.spec with
        | None -> false
        | Some sc -> (
            match Spec_ledger.on_decide sc.ledger req.id ~key with
            | Spec_ledger.Confirm frame ->
              Counter.incr sc.spec_confirm;
              Exec_pool.send ~st pool ~lane:frame.f_lane
                (W_confirm (frame, req));
              true
            | Spec_ledger.Mispredict frames ->
              push_aborts ~st ctx sc frames;
              Counter.incr sc.spec_requeue;
              false
            | Spec_ledger.No_frame -> false)
      in
      if not speculated then
        Exec_pool.send ~st pool ~lane:(route pool key) (W_exec req)
    | Service.Keys keys -> (
        (* A multi-key command was never itself speculated, but open
           frames on its keys predicted a different next-decide there:
           abort them. Their keys hash to this command's lane set, so
           the aborts stay FIFO-before the command or the quiesce. *)
        (match ctx.spec with
         | Some sc ->
           List.iter
             (fun key ->
                match Spec_ledger.on_decide sc.ledger req.id ~key with
                | Spec_ledger.Mispredict frames ->
                  push_aborts ~st ctx sc frames
                | Spec_ledger.Confirm _ | Spec_ledger.No_frame -> ())
             keys
         | None -> ());
        match List.sort_uniq compare (List.map (route pool) keys) with
        | [ lane ] -> Exec_pool.send ~st pool ~lane (W_exec req)
        | _ ->
          Exec_pool.quiesce pool st;
          exec_request_unchecked t req)
    | Service.Global ->
      spec_drain ctx st;
      Exec_pool.quiesce pool st;
      exec_request_unchecked t req

let scheduler_loop t ctx st =
  let pool = ctx.pool in
  let instances_executed = ref 0 in
  let continue = ref true in
  while !continue do
    match Bq.take ~st t.decision_q with
    | exception Bq.Closed -> continue := false
    | Install { state } ->
      (* State transfer replaces the whole service state: roll back any
         speculation first, then quiesce. *)
      spec_drain ctx st;
      Exec_pool.quiesce pool st;
      t.service.restore state
    | Read_exec { read; reply_to } ->
      (* Inline, no quiesce for ordered traffic: see [exec_read] for why
         racing an executor-resident (un-replied, hence concurrent)
         write is a legal linearization. Speculative effects are
         different — they may be rolled back, so a read must never
         observe them: drain them first. *)
      (match ctx.spec with
       | Some sc when Spec_ledger.effects_pending sc.ledger ->
         spec_drain ctx st
       | Some _ | None -> ());
      exec_read t read reply_to
    | Spec { req; conflict } -> spec_admit t ctx st req conflict
    | Spec_flush -> (
        (* View change: predictions void. No quiesce needed — each
           W_abort is FIFO behind its W_spec, so lane order alone
           guarantees the undos run against the right state. *)
        match ctx.spec with
        | Some sc -> push_aborts ~st ctx sc (Spec_ledger.abort_all sc.ledger)
        | None -> ())
    | Exec { iid; value } ->
      (match value with
       | Value.Noop | Value.Reconfig _ -> ()
       | Value.Batch batch -> List.iter (dispatch t ctx st) batch.requests);
      if Option.is_some t.lease_ctx then note_applied t ~iid;
      incr instances_executed;
      if t.cfg.snapshot_every > 0
         && !instances_executed mod t.cfg.snapshot_every = 0
      then begin
        (* Snapshots must capture a prefix-closed state. *)
        spec_drain ctx st;
        Exec_pool.quiesce pool st;
        take_snapshot t ~iid
      end
  done;
  (* Let the executors drain and exit. *)
  Exec_pool.close pool

(* Executor-side work interpreter (replaces the bare request execution
   of PR 7). The ordered path is byte-identical when speculation is off:
   every item is then a [W_exec]. *)
let exec_work t ctx (w : work) =
  match w with
  | W_exec req -> exec_request_unchecked t req
  | W_spec (frame, req) -> (
      match t.service.execute_undo with
      | None -> ()
      | Some execute_undo ->
        let reply, undo = execute_undo req in
        Atomic.set frame.f_undo (Some undo);
        (* Staged replies are invisible to lookups: a client retry still
           reads Fresh and takes the ordered path, so at-most-once is
           decided only at confirm time. *)
        Reply_cache.stage t.reply_cache frame.f_id reply)
  | W_confirm (frame, req) ->
    let sc = Option.get ctx.spec in
    (match Reply_cache.confirm t.reply_cache frame.f_id with
     | Some result ->
       Counter.incr t.executed;
       (match t.client_io with
        | Some cio -> Client_io.deliver_reply cio { id = frame.f_id; result }
        | None -> ())
     | None ->
       (* Defensive: nothing staged (cannot happen — the W_spec is FIFO
          before us on this lane). Fall back to ordered execution. *)
       exec_request_unchecked t req);
    let lead = Int64.to_int (Int64.sub (Mclock.now_ns ()) frame.f_dispatch_ns) in
    ignore (Atomic.fetch_and_add sc.lead_ns_sum lead);
    Atomic.incr sc.lead_n;
    Spec_ledger.settled sc.ledger frame
  | W_abort frame ->
    let sc = Option.get ctx.spec in
    (match Atomic.get frame.f_undo with
     | Some undo -> undo ()
     | None -> () (* admitted but the W_spec never ran (pool closing) *));
    Reply_cache.unstage t.reply_cache frame.f_id;
    Spec_ledger.settled sc.ledger frame

(* ------------------------------------------------------------------ *)
(* Observability: every replica exposes its queue depths, window and
   progress counters in the shared registry (docs/OBSERVABILITY.md).
   Gauges are snapshot-time closures over state the replica already
   keeps, so the hot path pays nothing. *)

let metric_labels t =
  [ ("mode", "live"); ("replica", string_of_int t.me) ]
  @ match t.gid with
    | Some g -> [ ("group", string_of_int g) ]
    | None -> []

let metric_names =
  [ "msmr_replica_request_queue_depth";
    "msmr_replica_proposal_queue_depth";
    "msmr_replica_dispatcher_queue_depth";
    "msmr_replica_decision_queue_depth";
    "msmr_replica_window_in_use";
    "msmr_replica_decided";
    "msmr_replica_executed";
    "msmr_replica_send_queue_drops";
    "msmr_replica_client_ingress_depth";
    "msmr_replica_executor_queue_depth";
    "msmr_replica_executor_dispatched";
    "msmr_replica_executor_barriers";
    "msmr_executor_steal_total";
    "msmr_executor_steal_fail_total";
    "msmr_executor_spec_dispatch_total";
    "msmr_executor_spec_confirm_total";
    "msmr_executor_spec_abort_total";
    "msmr_executor_spec_requeue_total";
    "msmr_replica_spec_lead_s";
    "msmr_replica_sender_flushes";
    "msmr_replica_log_queue_depth";
    "msmr_replica_durable_hold_s";
    "msmr_replica_bsz_now";
    "msmr_replica_wnd_now";
    "msmr_replica_batch_fill";
    "msmr_replica_flush_size_total";
    "msmr_replica_flush_delay_total";
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
  g "msmr_replica_proposal_queue_depth" (fun () -> fi (Bq.length t.proposal_q));
  g "msmr_replica_dispatcher_queue_depth" (fun () ->
      fi (Bq.length t.dispatcher_q));
  g "msmr_replica_decision_queue_depth" (fun () -> fi (Bq.length t.decision_q));
  g "msmr_replica_window_in_use" (fun () -> fi (Atomic.get t.window_now));
  g "msmr_replica_decided" (fun () -> fi (Counter.get t.decided));
  g "msmr_replica_executed" (fun () -> fi (Counter.get t.executed));
  g "msmr_replica_send_queue_drops" (fun () -> fi (Counter.get t.send_q_drops));
  g "msmr_replica_client_ingress_depth" (fun () ->
      match t.client_io with
      | Some cio -> fi (Client_io.ingress_length cio)
      | None -> 0.);
  g "msmr_replica_executor_queue_depth" (fun () ->
      match t.exec_pool with
      | Some c -> fi (Exec_pool.depth c.pool)
      | None -> 0.);
  g "msmr_replica_executor_dispatched" (fun () ->
      match t.exec_pool with
      | Some c -> fi (Exec_pool.dispatched c.pool)
      | None -> 0.);
  g "msmr_replica_executor_barriers" (fun () ->
      match t.exec_pool with
      | Some c -> fi (Exec_pool.barriers c.pool)
      | None -> 0.);
  g "msmr_executor_steal_total" (fun () ->
      match t.exec_pool with
      | Some c -> fi (Exec_pool.steals c.pool)
      | None -> 0.);
  g "msmr_executor_steal_fail_total" (fun () ->
      match t.exec_pool with
      | Some c -> fi (Exec_pool.steal_fails c.pool)
      | None -> 0.);
  let spec f =
    match t.exec_pool with
    | Some { spec = Some sc; _ } -> f sc
    | Some { spec = None; _ } | None -> 0.
  in
  g "msmr_executor_spec_dispatch_total" (fun () ->
      spec (fun sc -> fi (Counter.get sc.spec_dispatch)));
  g "msmr_executor_spec_confirm_total" (fun () ->
      spec (fun sc -> fi (Counter.get sc.spec_confirm)));
  g "msmr_executor_spec_abort_total" (fun () ->
      spec (fun sc -> fi (Counter.get sc.spec_abort)));
  g "msmr_executor_spec_requeue_total" (fun () ->
      spec (fun sc -> fi (Counter.get sc.spec_requeue)));
  g "msmr_replica_spec_lead_s" (fun () ->
      (* mean dispatch -> confirm lead of confirmed speculations: how far
         ahead of commit the execution ran *)
      spec (fun sc ->
          let n = Atomic.get sc.lead_n in
          if n = 0 then 0.
          else fi (Atomic.get sc.lead_ns_sum) /. fi n /. 1e9));
  (* Process-wide park accounting for the channels. Registered with
     process-global labels: re-registration by another replica is a
     no-op replace of an identical closure, and the gauge is
     deliberately not removed on [stop]. *)
  Msmr_obs.Metrics.gauge ~labels:[ ("mode", "live") ] "msmr_queue_park_total"
    (fun () -> fi (Waitstats.park_total ()));
  g "msmr_replica_sender_flushes" (fun () -> fi (Counter.get t.sender_flushes));
  g "msmr_replica_log_queue_depth" (fun () ->
      match t.stable with
      | Some ss -> fi (Bq.length ss.log_q)
      | None -> 0.);
  let sum_seals f =
    Array.fold_left (fun acc b -> acc + f (Batcher.seal_stats b)) 0 t.batchers
  in
  g "msmr_replica_bsz_now" (fun () -> fi (Atomic.get t.tuned_bsz));
  g "msmr_replica_wnd_now" (fun () -> fi (Atomic.get t.tuned_wnd));
  g "msmr_replica_batch_fill" (fun () ->
      (* cumulative mean fill ratio: payload bytes over the BSZ limit in
         force at each seal *)
      let bytes = sum_seals (fun s -> s.Batcher.sealed_bytes) in
      let limit = sum_seals (fun s -> s.Batcher.limit_bytes) in
      if limit = 0 then 0. else fi bytes /. fi limit);
  g "msmr_replica_flush_size_total" (fun () ->
      fi (sum_seals (fun s -> s.Batcher.seals_size)));
  g "msmr_replica_flush_delay_total" (fun () ->
      fi (sum_seals (fun s -> s.Batcher.seals_delay)));
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

(* RequestQueue capacity in requests (the paper's setting);
   ProposalQueue capacity in batches. *)
let request_queue_capacity = 1000
let proposal_queue_capacity = 20

let create ?(client_io_threads = 3) ?(batcher_threads = 1)
    ?(executor_threads = 1) ?gid ?(durability = Ephemeral)
    ?(reconnects = fun () -> 0) ~cfg ~me ~links ~service () =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error e -> invalid_arg ("Replica.create: " ^ e));
  if executor_threads < 1 then
    invalid_arg "Replica.create: executor_threads < 1";
  (match gid with
   | Some g when g < 0 || g >= cfg.Config.groups ->
     invalid_arg "Replica.create: gid outside [0, cfg.groups)"
   | Some _ | None -> ());
  let expected = List.sort compare (List.filter (fun p -> p <> me)
                                      (List.init cfg.Config.n Fun.id)) in
  let got = List.sort compare (List.map fst links) in
  if expected <> got then invalid_arg "Replica.create: bad link set";
  let recovered, store =
    match durability with
    | Ephemeral -> (None, None)
    | Durable { dir; sync } ->
      (* Replay first, then open the WAL for appending. A group-tagged
         replica keeps its state in the store's per-group namespace, so
         one node's groups can share a configured directory. *)
      let r = Msmr_storage.Replica_store.recover ?gid ~dir () in
      (Some r, Some (Msmr_storage.Replica_store.openw ~sync ?gid ~dir ()))
  in
  let stable =
    match store with
    | None -> None
    | Some _ ->
      let labels = [ ("mode", "live"); ("replica", string_of_int me) ] in
      Some
        { log_q =
            (* Protocol + Retransmitter produce, StableStorage consumes. *)
            Bq.create ~kind:Bq.Mpmc ~capacity:8192;
          ss_lsn = Atomic.make 0;
          ss_stall = Atomic.make false;
          ss_hold = Msmr_obs.Metrics.histogram ~labels "msmr_replica_durable_hold_s" }
  in
  let tuned_bsz = Atomic.make cfg.Config.max_batch_bytes in
  let tuned_wnd = Atomic.make cfg.Config.window in
  (* Membership history seed: the checkpoint's configs if one was
     recovered, else the boot membership. Reconfigs decided after the
     checkpoint re-adopt during log replay (Membership_changed actions). *)
  let configs0 =
    match recovered with
    | Some { Msmr_storage.Replica_store.r_configs = (_ :: _) as cs; _ } -> cs
    | Some _ | None -> [ (0, Membership.initial cfg) ]
  in
  let batchers =
    (* With auto_tune the policies read the tuned limit through the
       atomic; without it they take the static-config path, untouched. *)
    Array.init (max 1 batcher_threads) (fun idx ->
        Batcher.create
          ?tuned_bsz:(if cfg.Config.auto_tune then Some tuned_bsz else None)
          cfg ~src:(me + (cfg.Config.n * idx)))
  in
  (* Producer/consumer discipline per edge: receivers, FD, batchers and
     the scheduler all feed the dispatcher (MPMC); N batchers feed the
     Protocol thread (SPSC when N = 1); ClientIO workers share the
     RequestQueue with the batchers (MPMC); the DecisionQueue is
     strictly Protocol -> scheduler (SPSC); send and log queues have
     several producer threads (MPMC). *)
  let t =
    { cfg; me; gid; service;
      dispatcher_q = Bq.create ~kind:Bq.Mpmc ~capacity:4096;
      proposal_q =
        Bq.create
          ~kind:(if max 1 batcher_threads = 1 then Bq.Spsc else Bq.Mpmc)
          ~capacity:proposal_queue_capacity;
      request_q = Bq.create ~kind:Bq.Mpmc ~capacity:request_queue_capacity;
      decision_q =
        (* Lease mode adds client threads as read producers (submit_read)
           and speculation adds the ClientIO workers (the pre-dispatch
           hook); otherwise the Protocol thread is the only producer. *)
        Bq.create
          ~kind:
            (if cfg.Config.lease_enabled || cfg.Config.speculate then
               Bq.Mpmc
             else Bq.Spsc)
          ~capacity:1024;
      send_qs =
        Array.init cfg.Config.n (fun _ ->
            Bq.create ~kind:Bq.Mpmc ~capacity:4096);
      rtx_dq = Dq.create ();
      links;
      store;
      stable;
      recovered;
      reply_cache = Reply_cache.create ();
      client_io = None;
      exec_pool =
        (if executor_threads > 1 then
           Some
             { pool = Exec_pool.create ~n_exec:executor_threads ();
               exec_frontier = Hashtbl.create 256;
               conflict_cache = Cmap.create ~shards:16 ();
               spec =
                 (* Speculation needs a rollback contract from the
                    service; without one the flag degrades to
                    early-scheduling-only (the conflict cache above). *)
                 (if cfg.Config.speculate
                     && Option.is_some service.Service.execute_undo
                  then
                    Some
                      { ledger = Spec_ledger.create ();
                        spec_dispatch = Counter.create ();
                        spec_confirm = Counter.create ();
                        spec_abort = Counter.create ();
                        spec_requeue = Counter.create ();
                        lead_ns_sum = Atomic.make 0;
                        lead_n = Atomic.make 0 }
                  else None) }
         else None);
      lease_ctx =
        (if cfg.Config.lease_enabled then
           Some
             { lease =
                 Lease.create cfg ~me ~view:(Option.value gid ~default:0);
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
      send_q_drops = Counter.create ();
      sender_flushes = Counter.create ();
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
      tuned_bsz;
      tuned_wnd;
      batchers;
      tune_lat_sum = 0.;
      tune_lat_n = 0 }
  in
  let on_fresh =
    (* Classify-once + speculative pre-dispatch, on the ClientIO worker
       threads. Only wired with an executor pool: the serial
       ServiceManager never classifies, so the cache would be dead
       weight, and speculation needs the lanes. *)
    match t.exec_pool with
    | None -> None
    | Some ctx ->
      let spec_on = Option.is_some ctx.spec in
      Some
        (fun (req : Client_msg.request) conflict ->
           let c =
             match conflict with
             | Some c -> c
             | None -> service.Service.conflict_keys req
           in
           Cmap.set ctx.conflict_cache req.id.client_id (req.id.seq, c);
           if spec_on && Atomic.get t.am_leader then
             (* Best-effort: a full DecisionQueue just means no
                speculation for this request — the ordered path is
                always behind it. FIFO places this Spec strictly before
                the request's own Exec (the request has not even reached
                the Batcher yet). *)
             match Bq.try_put t.decision_q (Spec { req; conflict = c }) with
             | true | false -> ()
             | exception Bq.Closed -> ())
  in
  let cio =
    Client_io.create
      ~name_prefix:(Printf.sprintf "r%d/" me)
      ?on_fresh ~pool_size:client_io_threads
      ~request_queue:t.request_q ~reply_cache:t.reply_cache ()
  in
  t.client_io <- Some cio;
  let spawn name f =
    Worker.spawn ~name:(Printf.sprintf "r%d/%s" me name) (fun st -> f t st)
  in
  let io_threads =
    List.concat_map
      (fun (peer, link) ->
         [ Worker.spawn ~name:(Printf.sprintf "r%d/ReplicaIOSnd-%d" me peer)
             (fun st -> sender_loop t peer link st);
           Worker.spawn ~name:(Printf.sprintf "r%d/ReplicaIORcv-%d" me peer)
             (fun st -> receiver_loop t peer link st) ])
      links
  in
  let stable_storage =
    match t.stable with
    | Some ss -> [ spawn "StableStorage" (fun t st -> stable_storage_loop t ss st) ]
    | None -> []
  in
  (* Syncer: drives [Sync_periodic] on its own fixed tick. The tick is
     deliberately independent of every protocol interval — in particular
     [catchup_interval_s], which only paces the FD thread's
     Housekeeping_tick: however coarse catch-up is configured, a Durable
     replica keeps flushing its WAL every [sync_interval_s]. [Wal.sync]
     refreshes the msmr_wal_last_sync_ns gauge on every tick (even an
     empty one), so an idle-but-alive Syncer is observable. *)
  let sync_interval_s = 0.005 in
  let syncer =
    match durability with
    | Durable { sync = Msmr_storage.Wal.Sync_periodic; _ } ->
      [ spawn "Syncer" (fun t st ->
            let store = Option.get t.store in
            while Atomic.get t.running do
              Thread_state.enter st Thread_state.Other (fun () ->
                  Mclock.sleep_s sync_interval_s);
              ignore (Msmr_storage.Replica_store.sync ~st store)
            done) ]
    | Durable _ | Ephemeral -> []
  in
  let batchers =
    List.init (max 1 batcher_threads) (fun i ->
        spawn
          (if batcher_threads <= 1 then "Batcher"
           else Printf.sprintf "Batcher-%d" i)
          (batcher_loop i))
  in
  let service_manager =
    match t.exec_pool with
    | None -> [ spawn "Replica" service_manager_loop ]
    | Some ctx ->
      spawn "Replica" (fun t st -> scheduler_loop t ctx st)
      :: List.init (Exec_pool.n_exec ctx.pool) (fun i ->
             Worker.spawn ~name:(Printf.sprintf "r%d/Executor-%d" me i)
               (fun st ->
                  (* No at-most-once check in the pool: the scheduler
                     already decided it (exec_frontier) in decide order. *)
                  Exec_pool.executor_loop ctx.pool ~idx:i
                    ~exec:(exec_work t ctx) ~st))
  in
  t.threads <-
    [ spawn "Protocol" protocol_loop;
      spawn "FailureDetector" fd_loop;
      spawn "Retransmitter" retransmitter_loop ]
    @ stable_storage @ service_manager @ batchers @ io_threads
    @ syncer;
  register_metrics t;
  t

let stop t =
  if Atomic.exchange t.running false then begin
    (* A dead replica must not be reported as leader (Cluster.leader,
       Fault_controller). *)
    Atomic.set t.am_leader false;
    unregister_metrics t;
    (match t.client_io with Some cio -> Client_io.stop cio | None -> ());
    Bq.close t.request_q;
    Bq.close t.proposal_q;
    Bq.close t.dispatcher_q;
    Bq.close t.decision_q;
    (match t.stable with Some ss -> Bq.close ss.log_q | None -> ());
    (* The scheduler also closes the pool on exit; closing here too
       unblocks it even if the scheduler is wedged. Close is idempotent. *)
    (match t.exec_pool with
     | Some ctx -> Exec_pool.close ctx.pool
     | None -> ());
    Array.iter Bq.close t.send_qs;
    Dq.close t.rtx_dq;
    List.iter (fun (_, (link : Transport.link)) -> link.close ()) t.links;
    Worker.join_all t.threads;
    (match t.store with
     | Some store -> Msmr_storage.Replica_store.close store
     | None -> ());
    t.client_io <- None
  end

module Cluster = struct
  type replica = t

  type t = {
    hub : Transport.Hub.t;
    replicas : replica array;
    make : int -> replica;   (* factory, reused by [restart] *)
  }

  let create ?client_io_threads ?executor_threads ?gid
      ?durability ~cfg ~service () =
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
      create ?client_io_threads ?executor_threads ?gid
        ~durability ~cfg ~me ~links ~service:(service ()) ()
    in
    { hub; replicas = Array.init n make; make }

  let replicas t = t.replicas
  let hub t = t.hub

  let kill t i = stop t.replicas.(i)

  let restart t i =
    (* The dying replica closed its inbound hub queues; give the new
       incarnation fresh ones, then rebuild it through the stored
       factory. With Durable durability the factory re-runs
       [Replica_store.recover] on the same directory — the WAL crash
       recovery path. *)
    stop t.replicas.(i);
    Transport.Hub.renew t.hub i;
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

  let stop t =
    Array.iter stop t.replicas;
    Transport.Hub.close t.hub
end
