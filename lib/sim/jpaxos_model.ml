open Msmr_consensus
module Client_msg = Msmr_wire.Client_msg

(* Approximate wire sizes without running the codec on every message —
   header bytes per constructor, payload bytes from the value. *)
let approx_size (m : Msg.t) =
  match m with
  | Msg.Accept { value; _ } -> 34 + Value.size_bytes value
  | Msg.Prepare _ | Msg.Accepted _ | Msg.Decide _ | Msg.Heartbeat _
  | Msg.Lease_ping _ | Msg.Lease_grant _ -> 20
  | Msg.Prepare_ok { entries; _ } | Msg.Catchup_reply { entries; _ } ->
    List.fold_left (fun acc (e : Msg.log_entry) ->
        acc + 18 + Value.size_bytes e.e_value) 24 entries
  | Msg.Catchup_query _ -> 24

(* How many WAL records the live runtime would log for an incoming
   message / an action list: mirrors [Replica.protocol_loop]'s persist
   points (promise on Prepare, acceptance on Accept, the leader's
   self-accept on Schedule_rtx, Decided on Execute, catch-up learns). *)
let records_for_msg = function
  | Msg.Accept _ | Msg.Prepare _ -> 1
  | Msg.Catchup_reply { entries; _ } ->
    2 * List.length (List.filter (fun (e : Msg.log_entry) -> e.e_decided) entries)
  | _ -> 0

let records_for_actions actions =
  List.fold_left
    (fun acc a ->
       match a with
       | Paxos.View_changed _ | Paxos.Execute _ -> acc + 1
       | Paxos.Schedule_rtx { key = Paxos.Rtx_accept _; msg = Msg.Accept _; _ }
         -> acc + 1
       | _ -> acc)
    0 actions

(* Durability-dependent messages (same set as the live runtime's gate). *)
let durability_gated = function
  | Msg.Prepare_ok _ | Msg.Accepted _ | Msg.Accept _ -> true
  | _ -> false

(* TCP-like segment coalescing at the sender: consecutive queued messages
   share Ethernet frames (this is what lets a Decide piggyback on the next
   Accept and keeps the leader within its packet budget — Section VI-D3). *)
let segment_payload = 1448

type cio_ev =
  | Req of Client_msg.request
  | Rep of Client_msg.request_id
  | Rd of Client_msg.request_id
      (* read fast path: one packet in, a DecisionQueue ride, one packet
         back — no Batcher/Protocol/replication. Replies reuse [Rep];
         the result travels in per-client slots (one outstanding op). *)

type disp_ev =
  | PMsg of Types.node_id * Msg.t
  | Poke
  | Suspect_ev  (* chaos: local failure-detector verdict *)
  | Tick        (* chaos: periodic catch-up check *)
  | Reconfig_cmd of Membership.t
      (* reconfig driver: ask this node (believed leader) to order the
         given next-epoch membership through its log *)

(* StableStorage pipeline events ([Params.Sync_group]), mirroring the
   live runtime's log queue: the Protocol process enqueues record counts
   and durability-gated sends; the StableStorage process drains a burst,
   pays one device fsync for all its records (group commit), then
   forwards the gated sends. FIFO order makes release order = log
   order. *)
type ss_ev =
  | Sl_log of int                     (* records to append *)
  | Sl_rel of Types.node_id * Msg.t   (* send awaiting durability *)

(* Per-node stages are shared by every consensus group on the node (CPU,
   NIC, ReplicaIO links, StableStorage); wire frames and log records
   therefore carry their group id [g]. *)

type decision_ev =
  | Dec of { d_iid : Types.iid; d_value : Value.t; d_t : float }
      (* [d_t] stamps the decide instant so the speculative path can
         report the decide->reply gap it collapses *)
  | Dread of { r_id : Client_msg.request_id }
      (* a fast-path read riding the DecisionQueue: its FIFO position
         behind every already-decided instance IS the apply-frontier
         wait that makes leaseholder reads linearizable (the same trick
         the live runtime plays) *)
  | Dspec of { s_req : Client_msg.request }
      (* early scheduling ([Params.speculate]): the group leader's ClientIO
         pushes each fresh request here at ingress, ahead of the whole
         Batcher/Protocol/replication ride, so the ServiceManager can
         pre-dispatch and execute it optimistically against predicted
         (arrival) order *)

(* Work items on the parallel-ServiceManager executor paths: an ordered
   execution (decided; carries the decide instant for the commit->execute
   gap measurement) or an optimistic one ([Params.speculate]). *)
type exec_item =
  | E_exec of Client_msg.request * float
  | E_spec of Client_msg.request

type replica_report = {
  cpu_util_pct : float;
  blocked_pct : float;
  threads : (string * Sstats.totals) list;
}

type result = {
  throughput : float;
  client_latency : float;
  instance_latency : float;
  avg_batch_reqs : float;
  avg_batch_bytes : float;
  avg_window : float;
  avg_request_queue : float;
  avg_proposal_queue : float;
  avg_dispatcher_queue : float;
  replicas : replica_report array;
  leader_tx_pps : float;
  leader_rx_pps : float;
  leader_tx_mbps : float;
  leader_rx_mbps : float;
  rtt_leader : float;
  rtt_followers : float;
  rtt_idle : float;
  wal_syncs : int;
  wal_group_avg : float;
  tuned_bsz_final : int;
  tuned_wnd_final : int;
  view_changes : int;
  unavailable_s : float;
  recovery_s : float;
  completed : int;
  safety_ok : bool;
  executed_min : int;
  executed_max : int;
  client_retries : int;
  reads_completed : int;
  read_rejects : int;
  stale_answers : int;
  timeline : (float * int) array;
  events : int;
  group_throughputs : float array;
  globals_executed : int;
  steals : int;
  spec_dispatched : int;
  spec_confirmed : int;
  spec_aborted : int;
  commit_exec_latency : float;
  reconfigs_applied : int;
  final_epoch : int;
  trace : Msmr_obs.Trace.t option;
}

type node = {
  id : int;
  cpu : Cpu.t;
  nic : Nic.t;
  engines : Paxos.t array;   (* per group; swapped on chaos restart *)
  dispatcher_qs : disp_ev Squeue.t array;             (* per group *)
  proposal_qs : Batch.t Squeue.t array;               (* per group *)
  request_qs : Client_msg.request Squeue.t array array;
      (* per group, one per Batcher *)
  decision_qs : decision_ev Squeue.t array;           (* per group *)
  send_qs : (int * Msg.t) Squeue.t array;             (* per peer *)
  rcv_mbs : (int * Types.node_id * Msg.t) Mailbox.t array;  (* per peer *)
  cio_mbs : cio_ev Mailbox.t array;                   (* per ClientIO thread *)
  disk : Sdisk.t option;              (* Some iff sync_policy <> Sync_none *)
  ss_q : (int * ss_ev) Squeue.t option;  (* Some iff sync_policy = Sync_group *)
  mutable threads : Sstats.thread list;               (* registration order *)
}

type client = {
  cid : int;
  mutable next_seq : int;
  mutable sent_at : float;
}

let run ?(trace = false) (p : Params.t) =
  if p.groups < 1 then invalid_arg "Jpaxos_model.run: groups must be >= 1";
  (* The model does not coordinate epoch walks across groups: reject
     rather than run a reconfiguration it cannot order. *)
  if p.groups > 1 && p.reconfig_at <> [] then
    invalid_arg "Jpaxos_model.run: reconfig_at requires groups = 1";
  (* A Reconfig takes effect [Config.window] instances after its
     decision, but the controller may open up to [wnd_max] instances. *)
  if p.auto_tune && p.reconfig_at <> [] then
    invalid_arg "Jpaxos_model.run: reconfig_at requires auto_tune = false";
  let n_groups = p.groups in
  (* Group [g] bootstraps in view [g], so its home (initial leader) is
     node [g mod n]; a boot membership without it could never activate
     that group. *)
  let home_of_group g = g mod p.n in
  if
    n_groups > 1 && p.members0 <> []
    && not
         (List.init n_groups home_of_group
         |> List.for_all (fun home -> List.mem home p.members0))
  then
    invalid_arg
      "Jpaxos_model.run: members0 must contain every group's home (g mod n)";
  let eng = Engine.create () in
  (* The tracer is stamped from the engine's virtual clock, so trace
     timelines are in *simulated* time — the paper's figures become
     inspectable Chrome timelines. *)
  let tracer =
    if trace then
      Some
        (Msmr_obs.Trace.create
           ~clock:(fun () -> Int64.of_float (Engine.now eng *. 1e9))
           ())
    else None
  in
  let ns_of s = Int64.of_float (s *. 1e9) in
  let state_name : Sstats.state -> string = function
    | Sstats.Busy -> "busy"
    | Sstats.Blocked -> "blocked"
    | Sstats.Waiting -> "waiting"
    | Sstats.Other -> "other"
  in
  (* Thread -> track, for hooks (lock contention) that only know the
     blocked thread. Physical equality: threads are unique records. *)
  let track_of : (Sstats.thread * Msmr_obs.Trace.track) list ref = ref [] in
  let c = p.costs in
  let speed = p.profile.cpu_speed in
  let cost x = x /. speed in
  (* Kernel network-stack contention grows with ClientIO threads beyond
     8 (Figure 9 / Section VI-C). *)
  let net_slowdown =
    1.0
    +. (p.net_contention_per_io_thread
        *. float_of_int (max 0 (p.client_io_threads - 8)))
  in
  let pkt_rate =
    p.profile.pkt_rate /. net_slowdown *. (if p.rss then 2.0 else 1.0)
  in
  (* Chaos gate: with [faults = []] and [reconfig_at = []] none of the
     fault-injection state below is consulted and the event stream is
     byte-for-byte the fault-free one (pinned by the determinism
     goldens). A reconfig schedule needs the same machinery faults do —
     failure detector (whose tick drives the joiner's catch-up),
     retransmissions and the safety checker — so it rides the gate. *)
  let chaos = p.faults <> [] || p.reconfig_at <> [] in
  let cfg =
    { (Config.default ~n:p.n) with
      window = p.wnd;
      max_batch_bytes = p.bsz;
      max_batch_delay_s = 0.005;
      snapshot_every = 0;
      members0 = p.members0 }
  in
  let cfg =
    if chaos then
      { cfg with
        fd_interval_s = p.chaos_fd_interval;
        fd_timeout_s = p.chaos_fd_timeout;
        retransmit_interval_s = p.chaos_rtx_interval }
    else cfg
  in
  (* Read fast-path gate, same discipline as the chaos gate: with
     [lease = false] none of the lease/read state below is consulted and
     the event stream is byte-for-byte the seed one (golden-pinned).
     [read_ratio > 0.] with [lease = false] runs reads down the ordered
     path — a read then costs exactly a write, which IS the ordered-read
     baseline bench008 measures the fast path against. *)
  let reads_on = p.lease && p.read_ratio > 0. in
  (* Speculation gate ([Params.speculate]), same discipline again: with
     [speculate = false] (or a serial ServiceManager) none of the frame
     state below is consulted and the event stream is byte-for-byte the
     ordered one (golden-pinned). *)
  let spec_on = p.speculate && p.exec_threads > 1 in
  let cfg =
    if p.lease then
      { cfg with
        Config.lease_enabled = true;
        lease_duration_s = p.lease_duration;
        clock_skew_bound_s = p.clock_skew }
    else cfg
  in
  (* Consensus groups. Every node holds one Paxos engine, DispatcherQueue,
     Batcher set, ProposalQueue, DecisionQueue, ServiceManager, lease and
     failure detector per group, so each group is a full cluster. Group
     [g] bootstraps in view [g], led by its home node [g mod n], so
     leadership (and the leader's NIC load, the single-group ceiling)
     spreads round-robin. Requests partition by conflict key; the
     simulated workload's key is the client id (one client = one key),
     so a client's group is a mod. [local_key] is a client's index
     inside its group: it spreads a group's clients over its Batchers
     and executors. *)
  let group_of_client cid = cid mod n_groups in
  let local_key cid = cid / n_groups in
  let gname base g =
    if n_groups = 1 then base else Printf.sprintf "%s-g%d" base g
  in
  (* Per-node drifting clocks: node [i] reads [t*(1+drift_i)+offset_i],
     deterministic (Knuth hash, no RNG) and bounded — offset and the
     drift accumulated over the whole run each stay within
     [clock_skew/2], so no node's clock error exceeds [clock_skew].
     This is the adversary the lease's [clock_skew_bound_s] padding is
     up against. *)
  let horizon = p.warmup +. p.duration in
  let clock_u i salt =
    float_of_int (((i * 2654435761) + (salt * 40503)) land 1023) /. 1023.
  in
  let clock_offset =
    Array.init p.n (fun i -> p.clock_skew /. 2. *. clock_u i 1)
  in
  let clock_drift =
    Array.init p.n (fun i ->
        if horizon <= 0. then 0.
        else p.clock_skew /. 2. *. clock_u i 2 /. horizon)
  in
  let node_clock i =
    let t = Engine.now eng in
    (t *. (1. +. clock_drift.(i))) +. clock_offset.(i)
  in
  let clock_ns i = int_of_float (node_clock i *. 1e9) in
  (* Lease state per (node, group) — the same pure {!Lease} policy the
     live runtime drives, here ticked in simulated time on drifted
     clocks. Each group's leader holds its own lease. *)
  let leases =
    Array.init p.n (fun i ->
        Array.init n_groups (fun g -> Lease.create cfg ~me:i ~view:g))
  in
  let lease_quorum = (p.n / 2) + 1 in
  (* The simulated service keyed by client id: each node's executed
     version of every client's register (a write = "set my register to
     my seq"), plus the per-(node, group) apply recency that backs the
     bounded-staleness freshness proof. *)
  let n_cl = max 1 p.n_clients in
  let ver = Array.init p.n (fun _ -> Array.make n_cl 0) in
  let last_apply = Array.init p.n (fun _ -> Array.make n_groups 0.) in
  let note_exec node g (id : Client_msg.request_id) =
    if reads_on || spec_on then begin
      ver.(node.id).(id.client_id) <- id.seq;
      last_apply.(node.id).(g) <- node_clock node.id
    end
  in
  (* Speculation frames, a sim-only model (the live runtime executes
     only decided requests, DESIGN.md section 16). Clients are
     closed-loop (one outstanding op), so at most one open frame per
     client: [sf_seq] is the speculated seq (-1 = no frame), [sf_done]
     whether the optimistic execution finished (register written,
     [sf_undo] holds the value to restore on rollback), [sf_wait] the
     decide instant when the decide arrived first and is waiting on the
     in-flight execution to promote it (-1. = none). *)
  let sf_seq = Array.init p.n (fun _ -> Array.make n_cl (-1)) in
  let sf_done = Array.init p.n (fun _ -> Array.make n_cl false) in
  let sf_wait = Array.init p.n (fun _ -> Array.make n_cl (-1.)) in
  let sf_undo = Array.init p.n (fun _ -> Array.make n_cl 0) in
  let spec_dispatched = ref 0 in
  let spec_confirmed = ref 0 in
  let spec_aborted = ref 0 in
  (* Decide->reply gap, measured on every parallel-SM completion (pure
     refs: recording it never perturbs the event stream). *)
  let ce_sum = ref 0. and ce_n = ref 0 in
  (* Roll one client's open frame back: restore the register the
     optimistic execution clobbered, drop the staged reply. *)
  let spec_abort_frame nid cid =
    if spec_on && sf_seq.(nid).(cid) >= 0 then begin
      if sf_done.(nid).(cid) then ver.(nid).(cid) <- sf_undo.(nid).(cid);
      sf_seq.(nid).(cid) <- -1;
      sf_done.(nid).(cid) <- false;
      sf_wait.(nid).(cid) <- -1.;
      incr spec_aborted
    end
  in
  let spec_abort_all nid =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        spec_abort_frame nid cid
      done
  in
  (* A group's predicted order dies with its view: roll back only that
     group's frames on the node. *)
  let spec_abort_group nid g =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        if group_of_client cid = g then spec_abort_frame nid cid
      done
  in
  (* Barrier-side abort: frames whose decide already arrived ([sf_wait])
     are committed work in flight — the quiescence barrier waits for
     them to promote; only undecided speculation rolls back. *)
  let spec_abort_undecided nid =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        if sf_wait.(nid).(cid) < 0. then spec_abort_frame nid cid
      done
  in
  (* Forced-mispredict interleave (floor counter, no RNG), consumed once
     per confirm-eligible frame. *)
  let mis_total = ref 0 in
  let force_mispredict () =
    incr mis_total;
    p.mispredict_ratio > 0.
    && int_of_float (float_of_int !mis_total *. p.mispredict_ratio)
       > int_of_float (float_of_int (!mis_total - 1) *. p.mispredict_ratio)
  in
  (* Per-client read plumbing (clients are sequential: one outstanding
     op each, so plain slots carry the reply payload) and the
     linearizability bookkeeping the extended [safety_ok] checks:
     [ack_hist] remembers when each write ack landed, newest first. *)
  let read_result = Array.make n_cl (-1) in
  let read_serve_t = Array.make n_cl 0. in
  let read_floor = Array.make n_cl 0 in
  let last_write_acked = Array.make n_cl 0 in
  let ack_hist : (int * float) list array = Array.make n_cl [] in
  let note_acked cid seq =
    last_write_acked.(cid) <- seq;
    let l = (seq, Engine.now eng) :: ack_hist.(cid) in
    ack_hist.(cid) <-
      (if List.length l > 64 then List.filteri (fun i _ -> i < 64) l else l)
  in
  (* Highest write seq of [cid] acked at or before [cutoff]. Truncated
     history can only lower the floor — the check errs permissive,
     never flags a correct read. *)
  let acked_floor cid cutoff =
    let rec go = function
      | (s, t) :: _ when t <= cutoff -> s
      | _ :: rest -> go rest
      | [] -> 0
    in
    go ack_hist.(cid)
  in
  let reads_completed = ref 0 in
  let read_rejects = ref 0 in
  let stale_answers = ref 0 in
  (* Client-side verdict on one finished read: a linearizable read must
     return at least the client's last write acked before the read was
     issued; a bounded-staleness read at least the last write acked
     [staleness_bound] before the moment the replica served it. *)
  let check_read cid =
    let q = read_result.(cid) in
    if q >= 0 then begin
      let floor =
        if p.stale_reads then
          acked_floor cid (read_serve_t.(cid) -. p.staleness_bound)
        else read_floor.(cid)
      in
      if q < floor then incr stale_answers
    end
  in
  (* Deterministic read/write interleave: op [k] is a read iff the
     scaled floor counter crosses — exactly [read_ratio] of each
     client's ops in the long run, no RNG. *)
  let is_read_op k =
    reads_on
    && int_of_float (float_of_int k *. p.read_ratio)
       > int_of_float (float_of_int (k - 1) *. p.read_ratio)
  in
  (* ---------------- nodes ---------------- *)
  let per_group f = Array.init n_groups f in
  let mk_node id =
    let cpu =
      Cpu.create eng ~cores:p.cores ~switch_cost:(cost c.switch_cost) ()
    in
    let nic =
      Nic.create eng ~pkt_rate ~bandwidth:p.profile.bandwidth
        ~name:(Printf.sprintf "nic-%d" id) ()
    in
    { id; cpu; nic;
      engines = per_group (fun g -> Paxos.create ~view0:g cfg ~me:id);
      dispatcher_qs =
        per_group (fun _ ->
            Squeue.create eng ~cpu ~capacity:100_000
              ~name:"DispatcherQueue" ());
      proposal_qs =
        per_group (fun _ ->
            Squeue.create eng ~cpu ~capacity:20 ~name:"ProposalQueue" ());
      request_qs =
        per_group (fun _ ->
            Array.init p.n_batchers (fun _ ->
                Squeue.create eng ~cpu ~capacity:1000 ~name:"RequestQueue" ()));
      decision_qs =
        per_group (fun _ ->
            Squeue.create eng ~cpu ~capacity:4096 ~name:"DecisionQueue" ());
      send_qs = Array.init p.n (fun _ -> Squeue.create eng ~cpu ~capacity:100_000 ~name:"SendQueue" ());
      rcv_mbs = Array.init p.n (fun _ -> Mailbox.create eng ());
      cio_mbs = Array.init p.client_io_threads (fun _ -> Mailbox.create eng ());
      disk =
        (if p.sync_policy = Params.Sync_none then None
         else Some (Sdisk.create eng ~fsync_latency:p.fsync_latency));
      ss_q =
        (if p.sync_policy = Params.Sync_group then
           Some (Squeue.create eng ~cpu ~capacity:8192 ~name:"LogQueue" ())
         else None);
      threads = [] }
  in
  let nodes = Array.init p.n mk_node in
  (* Node 0 leads group 0: its NIC, disk and CPU are the "leader" figures
     the paper's tables report. *)
  let leader = nodes.(0) in
  (* Whether [node] currently leads group [g]: fault-free runs keep the
     bootstrap leader; under chaos leadership follows the engine. *)
  let leads node g =
    if chaos then Paxos.is_leader node.engines.(g)
    else node.id = home_of_group g
  in
  (* Sum a per-group leader figure over the groups' bootstrap leaders. *)
  let sum_over_homes f =
    let acc = ref 0. in
    for g = 0 to n_groups - 1 do
      acc := !acc +. f nodes.(home_of_group g) g
    done;
    !acc
  in
  (* ---------------- fault injection state (chaos only) ---------------- *)
  let net = Sfault.make_net ~seed:p.chaos_seed ~n:p.n p.faults in
  let up = Array.make p.n true in
  let crash_time = Array.make p.n 0. in
  let awaiting_recovery = Array.make p.n false in
  let recovery_times = ref [] in
  let rtx_tbls :
    (Paxos.rtx_key, Types.node_id list * Msg.t) Hashtbl.t array array =
    Array.init p.n (fun _ -> per_group (fun _ -> Hashtbl.create 64))
  in
  let ns_now () = Int64.of_float (Engine.now eng *. 1e9) in
  let new_fd id ~view =
    let fd = Failure_detector.create cfg ~me:id ~now_ns:(ns_now ()) in
    Failure_detector.set_view fd ~view ~now_ns:(ns_now ());
    fd
  in
  let fds = Array.init p.n (fun id -> per_group (fun g -> new_fd id ~view:g)) in
  let leader_hint = per_group home_of_group in
  (* Distinct (group, view) pairs installed past each group's bootstrap
     view. *)
  let views_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Membership-change bookkeeping: the total count of adoptions across
     nodes (deterministic). *)
  let reconfigs_applied = ref 0 in
  let vc_t0 = Array.init p.n (fun _ -> Array.make n_groups None) in
  let client_retries = ref 0 in
  let awaiting_seq = Array.make (max 1 p.n_clients) 0 in
  let last_commit = Array.make n_groups 0. in
  let max_gap = Array.make n_groups 0. in
  (* Per-node at-most-once frontier (client ids are globally unique) +
     per-(node, group) executed-request logs — the simulator's reply
     cache: the frontier suppresses re-execution of a retried request,
     the logs are the cross-node linearizability check of each group. *)
  let exec_frontier : (int, int) Hashtbl.t array =
    Array.init p.n (fun _ -> Hashtbl.create 1024)
  in
  let exec_logs : (int * int) list array array =
    Array.init p.n (fun _ -> Array.make n_groups [])
  in
  let timeline =
    Array.make
      (if chaos then 1 + int_of_float (ceil (p.duration /. p.chaos_bucket))
       else 0)
      0
  in
  (* Wire-level delivery with chaos applied at the NIC boundary.
     Callback-safe: [Nic.send] and [Mailbox.push] never suspend, so this
     can run from [schedule_at] callbacks (retransmission, restart). *)
  let chaos_deliver src_node g dst msg size =
    if up.(src_node.id) then
      List.iter
        (fun extra ->
           let send () =
             Nic.send src_node.nic ~dst:nodes.(dst).nic ~size (fun () ->
                 if up.(dst) then
                   Mailbox.push nodes.(dst).rcv_mbs.(src_node.id)
                     (g, src_node.id, msg))
           in
           if extra <= 0. then send ()
           else Engine.schedule_at eng (Engine.now eng +. extra) send)
        (Sfault.deliveries net ~src:src_node.id ~now:(Engine.now eng) ~dst)
  in
  let rec rtx_fire id g key () =
    match Hashtbl.find_opt rtx_tbls.(id).(g) key with
    | Some (dests, msg) when up.(id) ->
      List.iter
        (fun d ->
           if d <> id then chaos_deliver nodes.(id) g d msg (approx_size msg))
        dests;
      Engine.schedule_at eng
        (Engine.now eng +. p.chaos_rtx_interval)
        (rtx_fire id g key)
    | _ -> ()
  in
  let arm_rtx id g key dests msg =
    Hashtbl.replace rtx_tbls.(id).(g) key (dests, msg);
    Engine.schedule_at eng
      (Engine.now eng +. p.chaos_rtx_interval)
      (rtx_fire id g key)
  in
  (* At-most-once admission, in decide order, per node. *)
  let chaos_admit node g (id : Client_msg.request_id) =
    let tbl = exec_frontier.(node.id) in
    match Hashtbl.find_opt tbl id.client_id with
    | Some s when id.seq <= s -> false
    | _ ->
      Hashtbl.replace tbl id.client_id id.seq;
      exec_logs.(node.id).(g) <-
        (id.client_id, id.seq) :: exec_logs.(node.id).(g);
      true
  in
  let chaos_executed node (id : Client_msg.request_id) =
    match Hashtbl.find_opt exec_frontier.(node.id) id.client_id with
    | Some s -> id.seq <= s
    | None -> false
  in
  let do_crash id =
    if up.(id) then begin
      up.(id) <- false;
      crash_time.(id) <- Engine.now eng;
      (* Volatile state lost: pending retransmissions die with the
         process. Queued events drain harmlessly — the recovered engine
         treats them as stale. Open speculation frames die too (the
         staged replies were never client-visible). *)
      Array.iter Hashtbl.reset rtx_tbls.(id);
      spec_abort_all id
    end
  in
  let do_restart id =
    if not up.(id) then begin
      up.(id) <- true;
      awaiting_recovery.(id) <- true;
      (* Service state is rebuilt from the recovered logs (the WAL
         stand-in): frontier and executed-prefix logs come back from the
         replayed Executes; no replies are re-sent. *)
      Hashtbl.reset exec_frontier.(id);
      Array.fill exec_logs.(id) 0 n_groups [];
      for g = 0 to n_groups - 1 do
        let old = nodes.(id).engines.(g) in
        let old_log = Paxos.log old in
        let entries = Log.entries_from old_log (Log.low_mark old_log) in
        let decided, accepted =
          List.partition (fun (e : Msg.log_entry) -> e.e_decided) entries
        in
        let conv =
          List.map (fun (e : Msg.log_entry) -> (e.e_iid, e.e_view, e.e_value))
        in
        let engine, replays =
          Paxos.recover cfg ~me:id ~view:(Paxos.view old)
            ~accepted:(conv accepted) ~decided:(conv decided) ~snapshot:None
        in
        nodes.(id).engines.(g) <- engine;
        fds.(id).(g) <- new_fd id ~view:(Paxos.view engine);
        (* Lease state is volatile: a crashed holder comes back with
           nothing — it must re-earn a quorum of grants before serving
           reads again, and its apply recency restarts stale. *)
        if p.lease then
          leases.(id).(g) <- Lease.create cfg ~me:id ~view:(Paxos.view engine);
        List.iter
          (fun action ->
             match action with
             | Paxos.Execute { value; _ } -> (
                 match value with
                 | Value.Noop | Value.Reconfig _ -> ()
                 | Value.Batch b ->
                   List.iter
                     (fun (r : Client_msg.request) ->
                        ignore (chaos_admit nodes.(id) g r.id))
                     b.requests)
             | Paxos.Send { dest; msg } ->
               List.iter
                 (fun d ->
                    if d <> id then
                      chaos_deliver nodes.(id) g d msg (approx_size msg))
                 dest
             | Paxos.Schedule_rtx { key; dest; msg } ->
               arm_rtx id g key dest msg
             | Paxos.Cancel_rtx key -> Hashtbl.remove rtx_tbls.(id).(g) key
             | Paxos.View_changed { view; i_am_leader; _ } ->
               if view <> g then Hashtbl.replace views_seen (g, view) ();
               if i_am_leader then leader_hint.(g) <- id
             | Paxos.Membership_changed { membership; _ } ->
               (* Replayed adoption: re-arm the fresh failure detector's
                  peer set (counters are not re-bumped — the adoption was
                  already counted before the crash). *)
               Failure_detector.set_membership fds.(id).(g) membership
                 ~now_ns:(ns_now ())
             | Paxos.Install_snapshot _ -> ())
          replays
      done
    end
  in
  if chaos then
    List.iter
      (function
        | Sfault.Crash { node = id; at; restart_at } ->
          Engine.schedule_at eng at (fun () -> do_crash id);
          (match restart_at with
           | Some rt -> Engine.schedule_at eng rt (fun () -> do_restart id)
           | None -> ())
        | Sfault.Partition { group_a; group_b; at; heal_at; symmetric } ->
          Engine.schedule_at eng at (fun () ->
              Sfault.set_partition net ~group_a ~group_b ~symmetric true);
          Engine.schedule_at eng heal_at (fun () ->
              Sfault.set_partition net ~group_a ~group_b ~symmetric false)
        | Sfault.Link _ -> ()   (* standing rule, consulted per segment *)
        | Sfault.Fsync_stall { node = id; at; until_t } ->
          Engine.schedule_at eng at (fun () ->
              match nodes.(id).disk with
              | Some d -> Sdisk.stall d ~until:until_t
              | None -> ()))
      p.faults;
  (* Autotune mirror, one controller per group: the group leader's
     batcher policies read their BSZ limit through the group's cell and
     the controller process below retunes it (and the engine window)
     every [tune_epoch] of simulated time. With [auto_tune = false] no
     cell exists, no controller process is spawned and every policy
     takes the static-config path. *)
  let tuned_bsz =
    per_group (fun _ -> if p.auto_tune then Some (Atomic.make p.bsz) else None)
  in
  let batcher_policies =
    (* Only a group's leader batches its client traffic, so only its
       policies are tuned; distinct [src] spaces keep batch ids unique. *)
    Array.init p.n (fun id ->
        per_group (fun g ->
            Array.init p.n_batchers (fun bidx ->
                Batcher.create
                  ?tuned_bsz:
                    (if id = home_of_group g then tuned_bsz.(g) else None)
                  cfg
                  ~src:(id + (((g * p.n_batchers) + bidx) * 64)))))
  in
  (* Signals for the controllers, accumulated off the measurement path:
     completed requests (throughput) and leader propose→decide latency,
     per group. Only touched under [auto_tune]. *)
  let tune_completed = Array.make n_groups 0 in
  let tune_lat_sum = Array.make n_groups 0. in
  let tune_lat_n = Array.make n_groups 0 in
  (* Two idle nodes for the Table II "other <-> other" probe. *)
  let idle_a = Nic.create eng ~pkt_rate:p.profile.pkt_rate
      ~bandwidth:p.profile.bandwidth ~name:"idle-a" () in
  let idle_b = Nic.create eng ~pkt_rate:p.profile.pkt_rate
      ~bandwidth:p.profile.bandwidth ~name:"idle-b" () in
  (* Register a simulated thread for profiling; under tracing, also give
     it a track and bridge Sstats state changes to merged spans
     (cat = the owning module, name = the state). Returns the track so
     protocol/batcher can add instant events on their own timeline. *)
  let register node st =
    node.threads <- node.threads @ [ st ];
    match tracer with
    | None -> None
    | Some t ->
      let tname = Sstats.name st in
      let trk =
        Msmr_obs.Trace.track t ~pid:node.id
          ~pname:(Printf.sprintf "replica-%d" node.id) ~name:tname ()
      in
      let cat = Msmr_obs.Taxonomy.module_of_thread tname in
      track_of := (st, trk) :: !track_of;
      Sstats.attach_tracer st (fun state t0 t1 ->
          let ts = ns_of t0 in
          Msmr_obs.Trace.complete trk ~cat ~name:(state_name state)
            ~ts_ns:ts ~dur_ns:(Int64.sub (ns_of t1) ts) ());
      Some trk
  in
  (* Lock-contention hook: an instant on the blocked thread's track. *)
  let on_contended lock st =
    match List.assq_opt st !track_of with
    | Some trk -> Msmr_obs.Trace.instant trk ~cat:"lock" (Slock.name lock)
    | None -> ()
  in
  if Option.is_some tracer then
    Array.iter
      (fun node ->
         for g = 0 to n_groups - 1 do
           Squeue.set_on_contended node.dispatcher_qs.(g) on_contended;
           Squeue.set_on_contended node.proposal_qs.(g) on_contended
         done)
      nodes;
  (* Queue-depth counter series live on one dedicated leader track.
     Group 0's ProposalQueue is low-volume (capacity 20), so it is
     sampled per operation; the high-volume queues are sampled by the
     1 ms sampler below to bound trace size. *)
  let queues_trk =
    Option.map
      (fun t ->
         let trk =
           Msmr_obs.Trace.track t ~pid:leader.id ~pname:"replica-0"
             ~name:"queues" ()
         in
         Squeue.set_on_length leader.proposal_qs.(0) (fun len ->
             Msmr_obs.Trace.counter trk ~name:"ProposalQueue"
               (float_of_int len));
         trk)
      tracer
  in
  (* ---------------- measurement state ---------------- *)
  let measuring = ref false in
  let ce_record d_t =
    if !measuring then begin
      ce_sum := !ce_sum +. (Engine.now eng -. d_t);
      incr ce_n
    end
  in
  let completed = ref 0 in
  let completed_g = Array.make n_groups 0 in
  let lat_sum = ref 0. and lat_n = ref 0 in
  let inst_sum = ref 0. and inst_n = ref 0 in
  let batch_reqs = ref 0 and batch_bytes = ref 0 and batches = ref 0 in
  let window_gauge = Sstats.Gauge.create eng in
  let rtt_leader = ref [] and rtt_follow = ref [] and rtt_idle = ref [] in
  let routed = Array.make p.n 0 and routed_reads = Array.make p.n 0 in
  let globals_executed = ref 0 in
  (* ---------------- clients ---------------- *)
  let payload = Bytes.make (max 0 (p.request_size - 16)) 'x' in
  let clients =
    Array.init p.n_clients (fun i ->
        { cid = i; next_seq = 0; sent_at = 0. })
  in
  let client_resume : (unit -> unit) option array =
    Array.make p.n_clients None
  in
  (* Reply delivery: ServiceManager -> owning ClientIO thread. *)
  let cio_of_client cid = cid mod p.client_io_threads in
  (* Reply from whichever node leads the request's group. The
     decide->reply gap is measured on the parallel-ServiceManager paths
     only. *)
  let reply node g (id : Client_msg.request_id) d_t =
    if leads node g then begin
      Mailbox.push node.cio_mbs.(cio_of_client id.client_id) (Rep id);
      if p.exec_threads > 1 then ce_record d_t
    end
  in
  (* Promote a finished speculation whose decide has arrived: the staged
     effect becomes the ordered execution and the staged reply ships —
     no re-execution, the commit->execute gap collapses to the confirm
     hop. *)
  let spec_resolve node g (id : Client_msg.request_id) d_t =
    note_exec node g id;
    reply node g id d_t;
    sf_seq.(node.id).(id.client_id) <- -1;
    sf_done.(node.id).(id.client_id) <- false;
    sf_wait.(node.id).(id.client_id) <- -1.;
    incr spec_confirmed
  in
  (* A client's op completed: feed autotune and the measurements. *)
  let note_completed cl g ~is_read =
    if p.auto_tune then tune_completed.(g) <- tune_completed.(g) + 1;
    if !measuring then begin
      incr completed;
      completed_g.(g) <- completed_g.(g) + 1;
      if is_read then incr reads_completed;
      lat_sum := !lat_sum +. (Engine.now eng -. cl.sent_at);
      incr lat_n
    end
  in
  (* Client process: closed loop; the request is one packet into its
     group leader's RX (client machines themselves are never the
     bottleneck: 1800 clients spread over 6 machines). *)
  let client_proc cl () =
    let g = group_of_client cl.cid in
    let home = nodes.(home_of_group g) in
    (* Stagger start so the initial burst is not one giant event spike. *)
    Engine.delay eng (1e-6 *. float_of_int cl.cid);
    let do_write () =
      let req =
        { Client_msg.id = { client_id = cl.cid; seq = cl.next_seq }; payload }
      in
      cl.sent_at <- Engine.now eng;
      Engine.suspend eng (fun resume ->
          client_resume.(cl.cid) <- Some resume;
          Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
              Nic.rx_inject home.nic ~size:p.request_size (fun () ->
                  Mailbox.push home.cio_mbs.(cio_of_client cl.cid) (Req req))));
      if reads_on then note_acked cl.cid cl.next_seq
    in
    (* Fast-path read: linearizable reads aim at the group's
       leaseholder; bounded-staleness reads spread over the whole cluster
       (each NIC serves its share — this is where read throughput stops
       being capped by one leader). A rejection (lease not yet held,
       follower not provably fresh) retries after a deterministic pause,
       falling back to the leaseholder, who can always serve. *)
    let do_read () =
      let id = { Client_msg.client_id = cl.cid; seq = cl.next_seq } in
      cl.sent_at <- Engine.now eng;
      read_floor.(cl.cid) <- last_write_acked.(cl.cid);
      let rec attempt tgt =
        read_result.(cl.cid) <- -1;
        Engine.suspend eng (fun resume ->
            client_resume.(cl.cid) <- Some resume;
            Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                Nic.rx_inject tgt.nic ~size:p.request_size (fun () ->
                    Mailbox.push tgt.cio_mbs.(cio_of_client cl.cid) (Rd id))));
        if read_result.(cl.cid) < 0 then begin
          if !measuring then incr read_rejects;
          Engine.delay eng (p.lease_duration /. 8.);
          attempt home
        end
      in
      (* Home replica for this client's stale reads. [cid / n] decorrelates
         it from the cio-thread choice ([cid mod client_io_threads]): with
         [cid mod n] and n = client_io_threads every read landing on node k
         would come from clients homed on cio thread k, convoying one
         ClientIO thread per node. *)
      attempt
        (if p.stale_reads then nodes.(cl.cid / p.n mod p.n) else home);
      check_read cl.cid
    in
    let rec loop () =
      cl.next_seq <- cl.next_seq + 1;
      let is_read = is_read_op cl.next_seq in
      if is_read then do_read () else do_write ();
      note_completed cl g ~is_read;
      loop ()
    in
    loop ()
  in
  (* Chaos client: open-loop on failures — retransmits the same request
     (to whichever node it currently believes leads its group) after
     [chaos_client_timeout] without a reply; the at-most-once frontier on
     the replicas makes the retries idempotent. Completions also feed the
     throughput-trajectory timeline. *)
  let client_proc_chaos cl () =
    let g = group_of_client cl.cid in
    Engine.delay eng (1e-6 *. float_of_int cl.cid);
    let do_write_chaos () =
      let req =
        { Client_msg.id = { client_id = cl.cid; seq = cl.next_seq }; payload }
      in
      cl.sent_at <- Engine.now eng;
      let rec attempt () =
        let target = nodes.(leader_hint.(g)) in
        match
          Engine.suspend_timeout eng ~timeout:p.chaos_client_timeout
            (fun resume ->
               client_resume.(cl.cid) <- Some resume;
               Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                   if up.(target.id) then
                     Nic.rx_inject target.nic ~size:p.request_size (fun () ->
                         if up.(target.id) then
                           Mailbox.push target.cio_mbs.(cio_of_client cl.cid)
                             (Req req))))
        with
        | Engine.Value () -> ()
        | Engine.Timed_out ->
          client_resume.(cl.cid) <- None;
          incr client_retries;
          attempt ()
      in
      attempt ();
      if reads_on then note_acked cl.cid cl.next_seq
    in
    (* Chaos reads steer by the leader hint like chaos writes, so after
       a fault they keep arriving at the OLD leaseholder until a view
       change updates the hint — exactly the window where an expired
       lease must refuse rather than serve stale state. *)
    let do_read_chaos () =
      let id = { Client_msg.client_id = cl.cid; seq = cl.next_seq } in
      cl.sent_at <- Engine.now eng;
      read_floor.(cl.cid) <- last_write_acked.(cl.cid);
      let rec attempt n_try =
        let target =
          if p.stale_reads && n_try = 0 then nodes.(cl.cid / p.n mod p.n)
          else nodes.(leader_hint.(g))
        in
        read_result.(cl.cid) <- -1;
        match
          Engine.suspend_timeout eng ~timeout:p.chaos_client_timeout
            (fun resume ->
               client_resume.(cl.cid) <- Some resume;
               Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                   if up.(target.id) then
                     Nic.rx_inject target.nic ~size:p.request_size (fun () ->
                         if up.(target.id) then
                           Mailbox.push target.cio_mbs.(cio_of_client cl.cid)
                             (Rd id))))
        with
        | Engine.Value () ->
          if read_result.(cl.cid) < 0 then begin
            if !measuring then incr read_rejects;
            Engine.delay eng (p.lease_duration /. 8.);
            attempt (n_try + 1)
          end
        | Engine.Timed_out ->
          client_resume.(cl.cid) <- None;
          incr client_retries;
          attempt (n_try + 1)
      in
      attempt 0;
      check_read cl.cid
    in
    let rec loop () =
      cl.next_seq <- cl.next_seq + 1;
      awaiting_seq.(cl.cid) <- cl.next_seq;
      let is_read = is_read_op cl.next_seq in
      if is_read then do_read_chaos () else do_write_chaos ();
      note_completed cl g ~is_read;
      (if !measuring then
         let b =
           int_of_float ((Engine.now eng -. p.warmup) /. p.chaos_bucket)
         in
         if b >= 0 && b < Array.length timeline then
           timeline.(b) <- timeline.(b) + 1);
      loop ()
    in
    loop ()
  in
  (* ---------------- ClientIO threads (group leaders) ---------------- *)
  let cio_proc node idx () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ClientIO-%d" idx)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let mb = node.cio_mbs.(idx) in
    (* With several groups ClientIO also routes, inline: one dispatch
       hop to the group's queues. *)
    let route st =
      if n_groups > 1 then Cpu.work node.cpu st (cost c.dispatch_per_req)
    in
    (* On overload the blocking put stalls this thread on the full
       RequestQueue - the paper's back-pressure: the ClientIO thread
       stops reading new requests. Replies queue up behind it in the
       (unbounded, push-only) mailbox, so no cycle can deadlock, and the
       queue's FIFO waiters keep the threads fair. *)
    let handle = function
      | Rep id ->
        Cpu.work node.cpu st (cost c.client_write);
        (* One packet per reply: distinct client connections do not
           share segments. *)
        Nic.send_to_wire node.nic ~size:p.reply_size (fun () ->
            (* Under chaos a stale reply (earlier seq, re-sent after a
               view change) must not complete the current request. *)
            if (not chaos) || awaiting_seq.(id.client_id) = id.seq then
              match client_resume.(id.client_id) with
              | Some resume ->
                client_resume.(id.client_id) <- None;
                resume ()
              | None -> ())
      | Req req ->
        Cpu.work node.cpu st (cost c.client_read);
        if chaos && chaos_executed node req.id then
          (* Reply-cache hit: a retried request that already executed
             (e.g. decided during a no-leader window) is answered from
             the at-most-once frontier, never re-proposed. *)
          Mailbox.push node.cio_mbs.(idx) (Rep req.id)
        else begin
          let cid = req.id.client_id in
          let g = group_of_client cid in
          route st;
          routed.(node.id) <- routed.(node.id) + 1;
          (* Early scheduling: the group leader pre-dispatches the fresh
             request onto the DecisionQueue at ingress. FIFO puts the
             [Dspec] strictly ahead of its own decide, so the SM always
             opens the frame before the confirm can arrive. *)
          if spec_on && leads node g then
            Squeue.put node.decision_qs.(g) st (Dspec { s_req = req });
          Squeue.put
            node.request_qs.(g).(local_key cid mod p.n_batchers) st req
        end
      | Rd id ->
        (* Read fast path: straight onto the group's DecisionQueue —
           FIFO behind every decided-but-unapplied instance, never
           through Batcher/Protocol (and never through the reply-cache
           frontier: reads are idempotent and own no dedup slot). *)
        Cpu.work node.cpu st (cost c.client_read);
        route st;
        routed_reads.(node.id) <- routed_reads.(node.id) + 1;
        Squeue.put node.decision_qs.(group_of_client id.client_id) st
          (Dread { r_id = id })
    in
    let rec loop () =
      let ev = Mailbox.take mb st in
      if (not chaos) || up.(node.id) then handle ev;
      loop ()
    in
    loop ()
  in
  (* ---------------- Batcher ---------------- *)
  let batcher_proc node g bidx () =
    let st =
      Sstats.make_thread eng
        ~name:
          (gname
             (if p.n_batchers = 1 then "Batcher"
              else Printf.sprintf "Batcher-%d" bidx)
             g)
    in
    let trk = register node st in
    let policy = batcher_policies.(node.id).(g).(bidx) in
    let now_ns () = Int64.of_float (Engine.now eng *. 1e9) in
    let seal batch =
      Cpu.work node.cpu st (cost c.batcher_per_batch);
      (match trk with
       | Some trk ->
         Msmr_obs.Trace.instant trk ~cat:"ReplicationCore"
           ~args:
             [ ("reqs", Msmr_obs.Json.Int (Batch.request_count batch));
               ("bytes", Msmr_obs.Json.Int (Batch.size_bytes batch)) ]
           "batch-seal"
       | None -> ());
      if !measuring then begin
        incr batches;
        batch_reqs := !batch_reqs + Batch.request_count batch;
        batch_bytes := !batch_bytes + Batch.size_bytes batch
      end;
      Squeue.put node.proposal_qs.(g) st batch;
      Squeue.put node.dispatcher_qs.(g) st Poke
    in
    let rec loop () =
      let timeout =
        match Batcher.deadline_ns policy with
        | None -> 1.0
        | Some d ->
          Float.max 1e-5 ((Int64.to_float d /. 1e9) -. Engine.now eng)
      in
      (match Squeue.take_timeout node.request_qs.(g).(bidx) st ~timeout with
       | Some req ->
         Cpu.work node.cpu st (cost c.batcher_per_req);
         (match Batcher.add policy req ~now_ns:(now_ns ()) with
          | Some batch -> seal batch
          | None -> ())
       | None -> (
           match Batcher.flush_due policy ~now_ns:(now_ns ()) with
           | Some batch -> seal batch
           | None -> ()));
      loop ()
    in
    loop ()
  in
  (* ---------------- Protocol ---------------- *)
  let inst_t0 : (int, float) Hashtbl.t array =
    per_group (fun _ -> Hashtbl.create 1024)
  in
  let protocol_proc node g () =
    let st = Sstats.make_thread eng ~name:(gname "Protocol" g) in
    let trk = register node st in
    let engine () = node.engines.(g) in
    (* Durable modes. Sync_serial is the naive shape: the Protocol
       process itself blocks on one device fsync per persist — exactly
       what the live pipeline removes. Sync_group hands the records to
       the StableStorage process. Persists run before the actions, as
       the live persist_actions does. *)
    let persist n =
      if n > 0 then
        match p.sync_policy, node.disk, node.ss_q with
        | Params.Sync_serial, Some d, _ ->
          Sdisk.append d n;
          Sstats.set st Sstats.Blocked;
          Engine.suspend eng (fun resume -> Sdisk.fsync d resume);
          Sstats.set st Sstats.Busy
        | Params.Sync_group, _, Some q -> Squeue.put q st (g, Sl_log n)
        | _ -> ()
    in
    (* Under Sync_group, gated messages ride the log queue behind the
       records they depend on; everything else bypasses. Fan-out to
       several peers is inline, one queue put per destination. *)
    let send d msg =
      match node.ss_q with
      | Some q when durability_gated msg -> Squeue.put q st (g, Sl_rel (d, msg))
      | _ -> Squeue.put node.send_qs.(d) st (g, msg)
    in
    let is_home = node.id = home_of_group g in
    let apply actions =
      persist (records_for_actions actions);
      List.iter
        (fun action ->
           match action with
           | Paxos.Send { dest; msg } ->
             List.iter
               (fun d -> if d <> node.id then send d msg)
               dest
           | Paxos.Execute { iid; value } ->
             (match trk with
              | Some trk ->
                Msmr_obs.Trace.instant trk ~cat:"ReplicationCore"
                  ~args:[ ("iid", Msmr_obs.Json.Int iid) ] "decide"
              | None -> ());
             if chaos then begin
               if awaiting_recovery.(node.id) then begin
                 awaiting_recovery.(node.id) <- false;
                 recovery_times :=
                   (Engine.now eng -. crash_time.(node.id)) :: !recovery_times
               end;
               (* Commit gaps on whichever node currently leads the group
                  measure its no-committing-leader window. *)
               if Paxos.is_leader (engine ()) then begin
                 let nw = Engine.now eng in
                 if !measuring then begin
                   let gap = nw -. last_commit.(g) in
                   if gap > max_gap.(g) then max_gap.(g) <- gap
                 end;
                 last_commit.(g) <- nw
               end
             end;
             Squeue.put node.decision_qs.(g) st
               (Dec { d_iid = iid; d_value = value; d_t = Engine.now eng })
           | Paxos.Schedule_rtx { key; dest; msg } ->
             (match key with
              | Paxos.Rtx_accept (_, iid) when is_home ->
                Hashtbl.replace inst_t0.(g) iid (Engine.now eng)
              | _ -> ());
             if chaos then arm_rtx node.id g key dest msg
           | Paxos.Cancel_rtx key ->
             if chaos then Hashtbl.remove rtx_tbls.(node.id).(g) key;
             (match key with
              | Paxos.Rtx_accept (_, iid) when is_home ->
                (match Hashtbl.find_opt inst_t0.(g) iid with
                 | Some t0 ->
                   if p.auto_tune then begin
                     tune_lat_sum.(g) <-
                       tune_lat_sum.(g) +. (Engine.now eng -. t0);
                     tune_lat_n.(g) <- tune_lat_n.(g) + 1
                   end;
                   if !measuring then begin
                     inst_sum := !inst_sum +. (Engine.now eng -. t0);
                     incr inst_n
                   end
                 | None -> ());
                Hashtbl.remove inst_t0.(g) iid
              | _ -> ())
           | Paxos.View_changed { view; i_am_leader; _ } ->
             (* Conservative holder-side invalidation: whatever lease the
                old view's leader held dies with the view; grantor-side
                promises survive inside {!Lease}. Speculation frames die
                with the view too — the predicted order was this
                leader's append order, now void. *)
             if p.lease then Lease.set_view leases.(node.id).(g) ~view;
             spec_abort_group node.id g;
             if chaos then begin
               if view <> g then Hashtbl.replace views_seen (g, view) ();
               if i_am_leader then leader_hint.(g) <- node.id;
               Failure_detector.set_view fds.(node.id).(g) ~view
                 ~now_ns:(ns_now ());
               (match vc_t0.(node.id).(g), trk with
                | Some t0, Some trk ->
                  let ts = ns_of t0 in
                  Msmr_obs.Trace.complete trk ~cat:"ReplicationCore"
                    ~name:"ViewChange" ~ts_ns:ts
                    ~dur_ns:(Int64.sub (ns_of (Engine.now eng)) ts) ()
                | _ -> ());
               vc_t0.(node.id).(g) <- None
             end
           | Paxos.Membership_changed { membership; _ } ->
             (* Epoch adoption: re-arm the failure detector's peer set
                and (conservatively) void any lease state — the old
                epoch's quorum no longer exists. Only reachable under
                chaos (the reconfig driver rides that gate). *)
             incr reconfigs_applied;
             Failure_detector.set_membership fds.(node.id).(g) membership
               ~now_ns:(ns_now ());
             if p.lease then
               leases.(node.id).(g) <-
                 Lease.create cfg ~me:node.id ~view:(Paxos.view (engine ()))
           | Paxos.Install_snapshot _ -> ())
        actions
    in
    apply (Paxos.bootstrap (engine ()));
    let rec loop () =
      (match Squeue.take node.dispatcher_qs.(g) st with
       | PMsg (from, msg) ->
         if (not chaos) || up.(node.id) then begin
           Cpu.work node.cpu st (cost c.protocol_per_event);
           match msg with
           | Msg.Lease_ping { view; t0_ns } when p.lease ->
             (* Grantor side: promise (or refuse) on the local drifted
                clock; the grant rides the ordinary send queue so it
                shares TCP segments — and chaos drops — with protocol
                traffic. *)
             (match
                Lease.on_ping leases.(node.id).(g) ~from ~view ~t0_ns
                  ~now_ns:(clock_ns node.id)
              with
              | Some grant -> Squeue.put node.send_qs.(from) st (g, grant)
              | None -> ())
           | Msg.Lease_grant { view; t0_ns } when p.lease ->
             ignore
               (Lease.on_grant leases.(node.id).(g) ~from ~view ~t0_ns
                  ~quorum:lease_quorum)
           | Msg.Prepare { view; _ }
             when p.lease
                  && Lease.promise_blocks leases.(node.id).(g)
                       ~candidate:(Types.leader_of_view ~n:p.n view)
                       ~now_ns:(clock_ns node.id) ->
             (* Promise-side enforcement: refuse to help elect a
                different leader while the promise stands (safe — Phase 1
                is retransmitted past the promise's expiry). *)
             ()
           | _ ->
             (* Promise/acceptance hits the log before the engine replies
                (mirrors the live handle's persist-before-receive). *)
             persist (records_for_msg msg);
             apply (Paxos.receive (engine ()) ~from msg)
         end
       | Poke -> ()
       | Suspect_ev ->
         if chaos && up.(node.id) then begin
           if
             p.lease
             && Lease.promise_blocks leases.(node.id).(g) ~candidate:node.id
                  ~now_ns:(clock_ns node.id)
           then ()  (* deferred while promised to the leader; FD re-fires *)
           else begin
             (if vc_t0.(node.id).(g) = None then
                vc_t0.(node.id).(g) <- Some (Engine.now eng));
             apply (Paxos.suspect_leader (engine ()))
           end
         end
       | Tick ->
         if chaos && up.(node.id) then
           apply (Paxos.tick_catchup (engine ()))
       | Reconfig_cmd m ->
         if chaos && up.(node.id) then begin
           Cpu.work node.cpu st (cost c.protocol_per_event);
           apply (Paxos.propose_reconfig (engine ()) m)
         end);
      let rec feed () =
        if Paxos.can_propose (engine ()) then
          match Squeue.try_take node.proposal_qs.(g) st with
          | Some batch ->
            Cpu.work node.cpu st (cost c.protocol_per_event);
            apply (Paxos.propose (engine ()) batch);
            feed ()
          | None -> ()
      in
      if (not chaos) || up.(node.id) then feed ();
      loop ()
    in
    loop ()
  in
  (* ---------------- ReplicaIO (frames carry g) ---------------- *)
  let sender_proc node peer () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ReplicaIOSnd-%d" peer)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let q = node.send_qs.(peer) in
    let rec drain_burst acc k =
      if k = 0 then List.rev acc
      else
        match Squeue.try_take q st with
        | Some m -> drain_burst (m :: acc) (k - 1)
        | None -> List.rev acc
    in
    (* Decide messages are tiny and latency-insensitive; the TCP stack
       coalesces them with the next Accept on the same connection instead
       of spending a packet each (Section VI-D3's packet accounting).
       Model: hold a Decide-only burst briefly; it rides with the next
       message, or is flushed alone after 0.5 ms of silence. *)
    let deferred = ref [] in
    let is_decide = function _, Msg.Decide _ -> true | _ -> false in
    let rec next_burst () =
      match
        if !deferred = [] then Some (Squeue.take q st)
        else Squeue.take_timeout q st ~timeout:0.0005
      with
      | Some first ->
        let burst = !deferred @ (first :: drain_burst [] 31) in
        deferred := [];
        if List.for_all is_decide burst then begin
          deferred := burst;
          next_burst ()
        end
        else burst
      | None ->
        let burst = !deferred in
        deferred := [];
        burst
    in
    let rec loop () =
      let burst = next_burst () in
      (* Serialise each message. *)
      let sized =
        List.map
          (fun (g, m) ->
             let size = approx_size m in
             Cpu.work node.cpu st
               (cost (c.io_ser_per_msg +. (c.io_ser_per_byte *. float_of_int size)));
             (g, m, size))
          burst
      in
      (* Pack into TCP segments. *)
      let deliver msgs () =
        List.iter
          (fun (g, m, _) ->
             Mailbox.push nodes.(peer).rcv_mbs.(node.id) (g, node.id, m))
          msgs
      in
      let flush seg_msgs seg_size =
        if seg_msgs <> [] then begin
          let msgs = List.rev seg_msgs in
          if not chaos then
            Nic.send node.nic ~dst:nodes.(peer).nic ~size:seg_size
              (deliver msgs)
          else if up.(node.id) then begin
            (* Every group with a message in the segment heard from us. *)
            for g = 0 to n_groups - 1 do
              if List.exists (fun (g', _, _) -> g' = g) msgs then
                Failure_detector.note_send fds.(node.id).(g) ~dest:peer
                  ~now_ns:(ns_now ())
            done;
            (* Chaos applies per TCP segment at the NIC boundary: the
               whole segment is dropped / delayed / duplicated, exactly
               like a lost or reordered frame. *)
            List.iter
              (fun extra ->
                 let send () =
                   Nic.send node.nic ~dst:nodes.(peer).nic ~size:seg_size
                     (fun () -> if up.(peer) then deliver msgs ())
                 in
                 if extra <= 0. then send ()
                 else Engine.schedule_at eng (Engine.now eng +. extra) send)
              (Sfault.deliveries net ~src:node.id ~now:(Engine.now eng)
                 ~dst:peer)
          end
        end
      in
      let seg, size =
        List.fold_left
          (fun (seg, size) ((_, _, s) as m) ->
             if size > 0 && size + s > segment_payload then begin
               flush seg size;
               ([ m ], s)
             end
             else (m :: seg, size + s))
          ([], 0) sized
      in
      flush seg size;
      loop ()
    in
    loop ()
  in
  let receiver_proc node peer () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ReplicaIORcv-%d" peer)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let mb = node.rcv_mbs.(peer) in
    let rec loop () =
      let g, from, msg = Mailbox.take mb st in
      if chaos then
        Failure_detector.note_recv fds.(node.id).(g) ~from ~now_ns:(ns_now ());
      Cpu.work node.cpu st
        (cost
           (c.io_deser_per_msg
            +. (c.io_deser_per_byte *. float_of_int (approx_size msg))));
      Squeue.put node.dispatcher_qs.(g) st (PMsg (from, msg));
      loop ()
    in
    loop ()
  in
  (* ---------------- StableStorage (Sync_group) ---------------- *)
  (* Mirror of the live StableStorage thread: drain a burst from the
     log queue, pay one device fsync for every record in it (group
     commit), then forward the gated sends. Burst bound 256 matches the
     live loop. *)
  let ss_proc node () =
    let st = Sstats.make_thread eng ~name:"StableStorage" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let q = Option.get node.ss_q in
    let d = Option.get node.disk in
    let rec drain acc k =
      if k = 0 then List.rev acc
      else
        match Squeue.try_take q st with
        | Some ev -> drain (ev :: acc) (k - 1)
        | None -> List.rev acc
    in
    let rec loop () =
      let first = Squeue.take q st in
      let burst = first :: drain [] 255 in
      List.iter
        (function _, Sl_log n -> Sdisk.append d n | _, Sl_rel _ -> ())
        burst;
      (* A release whose record was covered by an earlier burst's fsync
         needs no new sync — only flush when something is pending. *)
      if Sdisk.has_pending d then begin
        Sstats.set st Sstats.Blocked;
        Engine.suspend eng (fun resume -> Sdisk.fsync d resume);
        Sstats.set st Sstats.Busy
      end;
      List.iter
        (function
          | g, Sl_rel (dest, msg) -> Squeue.put node.send_qs.(dest) st (g, msg)
          | _, Sl_log _ -> ())
        burst;
      loop ()
    in
    loop ()
  in
  (* ---------------- FailureDetector (chaos only) ---------------- *)
  (* Mirrors the live FailureDetector thread: polls the pure policy on a
     half-interval cadence; leader verdicts become Heartbeats through the
     ordinary send queues (so they share segments and chaos like any
     protocol message), follower verdicts become Suspect_ev dispatcher
     events. A Tick per poll drives [Paxos.tick_catchup]. *)
  let fd_proc node g () =
    let st = Sstats.make_thread eng ~name:(gname "FailureDetector" g) in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      Engine.delay eng (p.chaos_fd_interval /. 2.);
      if up.(node.id) then begin
        List.iter
          (fun verdict ->
             match verdict with
             | Failure_detector.Heartbeat_to peers ->
               let engine = node.engines.(g) in
               if Paxos.is_leader engine then begin
                 let msg =
                   Msg.Heartbeat
                     { view = Paxos.view engine;
                       first_undecided =
                         Log.first_undecided (Paxos.log engine) }
                 in
                 List.iter
                   (fun pr -> Squeue.put node.send_qs.(pr) st (g, msg))
                   peers
               end
             | Failure_detector.Suspect _ ->
               Squeue.put node.dispatcher_qs.(g) st Suspect_ev)
          (Failure_detector.poll fds.(node.id).(g) ~now_ns:(ns_now ()));
        Squeue.put node.dispatcher_qs.(g) st Tick
      end;
      loop ()
    in
    loop ()
  in
  (* ---------------- ServiceManager (Replica thread) ---------------- *)
  (* Work-stealing model shared state: total successful token steals
     across all nodes' executor pools, over the whole run (warm-up
     included: at saturation every executor stays busy and steals
     happen only while load ramps or shifts, so the ramp is where the
     redistribution lives). *)
  let sm_steals = ref 0 in
  (* Deterministic "hot client" classification for [p.skew]: a Knuth
     multiplicative hash spreads client ids evenly, so the hot set is
     ≈ skew * n_clients without any RNG. Hot clients model a zipfian
     conflict-key distribution: under fixed routing they all convoy on
     executor 0. *)
  let is_hot cid =
    p.skew > 0.
    && (cid * 2654435761) land 1023 < int_of_float (p.skew *. 1024.)
  in
  (* Serve one fast-path read from local executed state. The read sat in
     the DecisionQueue FIFO behind every instance decided before it
     arrived — by the time the SM pops it, the apply frontier covers the
     lease-covered commit point, which is the linearizable wait. The
     leaseholder always answers (its lease proves no newer write can
     have been decided elsewhere); a follower answers only a
     bounded-staleness read it can prove fresh by apply recency. Anyone
     else replies a reject (same packet cost) and the client retries
     toward the leaseholder. *)
  let sm_read node g st (r_id : Client_msg.request_id) =
    Cpu.work node.cpu st (cost c.exec_per_req);
    if (not chaos) || up.(node.id) then begin
      (* A read must never observe an unconfirmed optimistic effect on
         its key: roll the reader's open frame back first (the register
         service keys by client id, so only the reader's own frame could
         be visible). *)
      spec_abort_frame node.id r_id.client_id;
      let serve =
        Lease.held leases.(node.id).(g) ~now_ns:(clock_ns node.id)
        || (p.stale_reads
            && node_clock node.id -. last_apply.(node.id).(g)
               <= p.staleness_bound)
      in
      if serve then begin
        read_result.(r_id.client_id) <- ver.(node.id).(r_id.client_id);
        read_serve_t.(r_id.client_id) <- Engine.now eng
      end;
      Mailbox.push node.cio_mbs.(cio_of_client r_id.client_id) (Rep r_id)
    end
  in
  (* Node-level execution state shared by the node's group
     ServiceManagers: [pending] counts executions in flight on any
     group's executor pool (or inline on a serial SM). A Global command
     closes the node's [gate] — no group dispatches past it — then waits
     for [pending] to drain ([quiesce_waiter]) and runs alone. *)
  let pending = Array.make p.n 0 in
  let quiesce_waiter : (unit -> unit) option array = Array.make p.n None in
  let gate = Array.make p.n false in
  let gate_waiters : (unit -> unit) list array = Array.make p.n [] in
  let exec_done nid =
    pending.(nid) <- pending.(nid) - 1;
    if pending.(nid) = 0 then
      match quiesce_waiter.(nid) with
      | Some resume ->
        quiesce_waiter.(nid) <- None;
        resume ()
      | None -> ()
  in
  (* Global commands are classified on group 0's decide stream, with the
     floor-crossing pattern: request k is Global iff
     floor(k * ratio) > floor((k-1) * ratio) — deterministic, evenly
     spread, exactly ratio * total requests in the long run. Only a node
     with something to quiesce (several groups, or an executor pool)
     classifies: a serial single-group SM already runs every command
     alone. *)
  let globals_on =
    p.conflict_ratio > 0. && (n_groups > 1 || p.exec_threads > 1)
  in
  let globals_total = Array.make p.n 0 in
  let classify_global nid =
    globals_total.(nid) <- globals_total.(nid) + 1;
    let k = globals_total.(nid) in
    int_of_float (float_of_int k *. p.conflict_ratio)
    > int_of_float (float_of_int (k - 1) *. p.conflict_ratio)
  in
  (* One executor work item: an ordered execution, or an optimistic one
     against predicted (ingress) order. A speculation whose frame was
     aborted while the item sat queued wastes its CPU but writes
     nothing. *)
  let run_item node g est = function
    | E_exec (req, d_t) ->
      Cpu.work node.cpu est (cost c.exec_per_req);
      note_exec node g req.id;
      reply node g req.id d_t
    | E_spec req ->
      let cid = req.id.client_id in
      Cpu.work node.cpu est (cost c.exec_per_req);
      if sf_seq.(node.id).(cid) = req.id.seq
         && not sf_done.(node.id).(cid) then begin
        sf_undo.(node.id).(cid) <- ver.(node.id).(cid);
        ver.(node.id).(cid) <- req.id.seq;
        sf_done.(node.id).(cid) <- true;
        let w = sf_wait.(node.id).(cid) in
        if w >= 0. then spec_resolve node g req.id w
      end
  in
  let executor_name idx g = gname (Printf.sprintf "Executor-%d" idx) g in
  let spawn_executors node executor_proc =
    for i = 0 to p.exec_threads - 1 do
      Engine.spawn eng
        ~name:(Printf.sprintf "exec-%d-%d" node.id i)
        (executor_proc i)
    done
  in
  (* exec_threads > 1 && not steal: the fixed-route pool. Requests route
     by client id — the stand-in for the conflict key, so one client's
     commands keep their decide order on one executor; hot clients (see
     [is_hot]) convoy on executor 0, the baseline the stealing pool is
     measured against. Returns the pool's submit function. *)
  let fixed_pool node g =
    let mbs : exec_item Mailbox.t array =
      Array.init p.exec_threads (fun _ -> Mailbox.create eng ())
    in
    let executor_proc idx () =
      let est = Sstats.make_thread eng ~name:(executor_name idx g) in
      let (_ : Msmr_obs.Trace.track option) = register node est in
      let rec loop () =
        run_item node g est (Mailbox.take mbs.(idx) est);
        exec_done node.id;
        loop ()
      in
      loop ()
    in
    spawn_executors node executor_proc;
    fun cid item ->
      let route =
        if is_hot cid then 0 else local_key cid mod p.exec_threads
      in
      Mailbox.push mbs.(route) item
  in
  (* exec_threads > 1 && steal: the sim mirror of the live runtime's
     work-stealing Exec_pool. Requests route to n_lanes = 8*exec_threads
     FIFO lanes by conflict key (client id); a lane with pending work is
     represented by a unique token sitting in exactly one executor's
     token queue, so per-lane decide order is preserved no matter which
     executor ends up draining the lane. An executor whose token queue
     runs dry scans the others in ring order and steals half the
     victim's tokens; hot lanes (see [is_hot]) are all homed on executor
     0, so stealing is what spreads a skewed load. Deterministic: plain
     queues, ring-order victim scan, no RNG. Returns the pool's submit
     function. *)
  let lane_pool node g =
    let n_lanes = 8 * p.exec_threads in
    let lanes : exec_item Queue.t array =
      Array.init n_lanes (fun _ -> Queue.create ())
    in
    (* Requests routed to the lane and not yet executed. The token for a
       lane exists (in some token queue, or held by a draining executor)
       iff lane_pending > 0 — the invariant that makes a token's right
       to drain its lane exclusive. *)
    let lane_pending = Array.make n_lanes 0 in
    let token_qs : int Queue.t array =
      Array.init p.exec_threads (fun _ -> Queue.create ())
    in
    let idle : (unit -> unit) option array =
      Array.make p.exec_threads None
    in
    let wake_all () =
      for i = 0 to p.exec_threads - 1 do
        match idle.(i) with
        | Some resume ->
          idle.(i) <- None;
          resume ()
        | None -> ()
      done
    in
    let drain_budget = 64 in
    let executor_proc idx () =
      let est = Sstats.make_thread eng ~name:(executor_name idx g) in
      let (_ : Msmr_obs.Trace.track option) = register node est in
      let my = token_qs.(idx) in
      (* Ring-order victim scan; a hit moves ceil(half) of the victim's
         tokens — steal-half amortises the scan like the live pool. *)
      let steal () =
        let stolen = ref false in
        let v = ref ((idx + 1) mod p.exec_threads) in
        while (not !stolen) && !v <> idx do
          let vq = token_qs.(!v) in
          let k = Queue.length vq in
          if k > 0 then begin
            for _ = 1 to (k + 1) / 2 do
              Queue.push (Queue.pop vq) my
            done;
            incr sm_steals;
            stolen := true
          end
          else v := (!v + 1) mod p.exec_threads
        done;
        !stolen
      in
      let rec loop () =
        if Queue.is_empty my && not (steal ()) then begin
          Sstats.set est Sstats.Waiting;
          Engine.suspend eng (fun resume -> idle.(idx) <- Some resume);
          Sstats.set est Sstats.Busy
        end
        else begin
          let lane = Queue.pop my in
          let q = lanes.(lane) in
          let budget = min drain_budget (Queue.length q) in
          for _ = 1 to budget do
            (* Lane order is per-key predicted order; a frame aborted
               while queued executes as a no-op. *)
            run_item node g est (Queue.pop q);
            exec_done node.id
          done;
          (* Subtract only now: while the token is held, the scheduler
             sees lane_pending > 0 and mints no duplicate — same
             "decrement after exec" rule as the live pool. *)
          lane_pending.(lane) <- lane_pending.(lane) - budget;
          if lane_pending.(lane) > 0 then begin
            Queue.push lane my;
            (* The re-queued token (and any others we hold) is fair
               game again: let parked peers retry their steal scan. *)
            wake_all ()
          end
        end;
        loop ()
      in
      loop ()
    in
    spawn_executors node executor_proc;
    fun cid item ->
      (* Hot lanes are exactly the multiples of exec_threads below
         8*exec_threads: all homed on executor 0. *)
      let lane =
        if is_hot cid then p.exec_threads * (local_key cid mod 8)
        else local_key cid mod n_lanes
      in
      Queue.push item lanes.(lane);
      lane_pending.(lane) <- lane_pending.(lane) + 1;
      if lane_pending.(lane) = 1 then begin
        (* 0 -> 1: mint the lane's token on its home executor and wake
           the pool so an idle peer can steal it. *)
        Queue.push lane token_qs.(lane mod p.exec_threads);
        wake_all ()
      end
  in
  (* The ServiceManager (Replica thread) of group [g]. With
     exec_threads = 1 it is the paper's serial ServiceManager and
     executes inline; otherwise it schedules onto the group's executor
     pool (the live runtime's conflict-aware ServiceManager). *)
  let sm_proc node g () =
    let st = Sstats.make_thread eng ~name:(gname "Replica" g) in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let id = node.id in
    let submit =
      if p.exec_threads = 1 then None
      else Some ((if p.steal then lane_pool else fixed_pool) node g)
    in
    let rec wait_gate () =
      if gate.(id) then begin
        Sstats.set st Sstats.Waiting;
        Engine.suspend eng (fun resume ->
            gate_waiters.(id) <- resume :: gate_waiters.(id));
        Sstats.set st Sstats.Busy;
        wait_gate ()
      end
    in
    let run_global d_t (req : Client_msg.request) =
      (* Undecided speculation rolls back before the barrier; frames
         whose decide already arrived are committed work in flight and
         the quiescence wait lets them promote first. *)
      spec_abort_undecided id;
      gate.(id) <- true;
      if pending.(id) > 0 then begin
        Sstats.set st Sstats.Waiting;
        Engine.suspend eng (fun resume -> quiesce_waiter.(id) <- Some resume);
        Sstats.set st Sstats.Busy
      end;
      Cpu.work node.cpu st (cost c.exec_per_req);
      note_exec node g req.id;
      incr globals_executed;
      reply node g req.id d_t;
      gate.(id) <- false;
      let waiters = gate_waiters.(id) in
      gate_waiters.(id) <- [];
      List.iter (fun resume -> resume ()) waiters
    in
    let dispatch d_t (req : Client_msg.request) =
      if chaos && not (up.(id) && chaos_admit node g req.id) then ()
      else begin
        wait_gate ();
        if globals_on && g = 0 && classify_global id then run_global d_t req
        else
          match submit with
          | None ->
            pending.(id) <- pending.(id) + 1;
            Cpu.work node.cpu st (cost c.exec_per_req);
            note_exec node g req.id;
            reply node g req.id d_t;
            exec_done id
          | Some push ->
            let cid = req.id.client_id in
            if spec_on && sf_seq.(id).(cid) = req.id.seq
               && not (force_mispredict ()) then begin
              (* Prediction held: confirm. Either the optimistic
                 execution already finished (promote now) or it is still
                 in flight (leave the decide instant; the executor
                 promotes). *)
              Cpu.work node.cpu st (cost c.dispatch_per_req);
              if sf_done.(id).(cid) then spec_resolve node g req.id d_t
              else sf_wait.(id).(cid) <- d_t
            end
            else begin
              (* The ordered re-execution shares the speculation's route,
                 so FIFO keeps the rollback (the aborted [E_spec] becomes
                 a no-op) strictly before it. *)
              spec_abort_frame id cid;
              Cpu.work node.cpu st (cost c.dispatch_per_req);
              pending.(id) <- pending.(id) + 1;
              push cid (E_exec (req, d_t))
            end
      end
    in
    (* Early scheduling: open a frame and dispatch the optimistic
       execution. Skipped when a frame is already open, the request
       already executed, or a Global holds the gate. *)
    let spec_admit push (req : Client_msg.request) =
      let cid = req.id.client_id in
      if ((not chaos) || (up.(id) && not (chaos_executed node req.id)))
         && sf_seq.(id).(cid) < 0
         && not gate.(id) then begin
        incr spec_dispatched;
        sf_seq.(id).(cid) <- req.id.seq;
        Cpu.work node.cpu st (cost c.dispatch_per_req);
        pending.(id) <- pending.(id) + 1;
        push cid (E_spec req)
      end
    in
    let rec loop () =
      (match Squeue.take node.decision_qs.(g) st with
       | Dread { r_id } -> sm_read node g st r_id
       | Dspec { s_req } ->
         Option.iter (fun push -> spec_admit push s_req) submit
       | Dec d -> (
           match d.d_value with
           | Value.Noop | Value.Reconfig _ -> ()
           | Value.Batch batch -> List.iter (dispatch d.d_t) batch.requests));
      loop ()
    in
    loop ()
  in
  (* Lease renewal driver, one per (node, group): polls [ping_due] on
     the local drifted clock and, while this node leads the group,
     broadcasts the renewal ping down the ordinary send queues (so pings
     share TCP segments — and chaos drops — with protocol traffic; grants
     come back through the Protocol thread). Every node runs one:
     leadership moves under chaos. *)
  let lease_proc node g () =
    let st = Sstats.make_thread eng ~name:(gname "Lease" g) in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let lease () = leases.(node.id).(g) in
    let rec loop () =
      let leading = ((not chaos) || up.(node.id)) && leads node g in
      if leading && Lease.ping_due (lease ()) ~now_ns:(clock_ns node.id)
      then begin
        Cpu.work node.cpu st (cost c.protocol_per_event);
        let ping = Lease.make_ping (lease ()) ~now_ns:(clock_ns node.id) in
        for d = 0 to p.n - 1 do
          if d <> node.id then Squeue.put node.send_qs.(d) st (g, ping)
        done
      end;
      Engine.delay eng (p.lease_duration /. 12.);
      loop ()
    in
    loop ()
  in
  (* ---------------- reconfig driver ---------------- *)
  (* The sim's stand-in for an operator driving Cluster.join /
     decommission: walk the voter set to each scheduled target one
     consensus-ordered step at a time — add missing nodes as learners,
     promote a learner once its log has caught up to within a few
     windows of the leader's, then remove surplus members. Every step
     is submitted to whichever node currently claims leadership (so the
     driver survives crashes and view changes mid-reconfig) and simply
     retried on a fixed cadence until the target epoch is adopted.
     Single-group only ([run] rejects [reconfig_at] with groups > 1). *)
  let reconfig_driver () =
    let st = Sstats.make_thread eng ~name:"ReconfigDriver" in
    let caught_up q ld_engine =
      Log.first_undecided (Paxos.log ld_engine)
      - Log.first_undecided (Paxos.log nodes.(q).engines.(0))
      <= 4 * cfg.Config.window
    in
    List.iter
      (fun (at, target) ->
        let target = List.sort_uniq compare target in
        Sstats.set st Sstats.Waiting;
        let wait = at -. Engine.now eng in
        if wait > 0. then Engine.delay eng wait;
        let rec step () =
          Sstats.set st Sstats.Busy;
          let ld = leader_hint.(0) in
          let engine = nodes.(ld).engines.(0) in
          let m = Paxos.membership engine in
          if m.Membership.voters = target && m.Membership.learners = []
          then ()
          else begin
            (if
               up.(ld)
               && Paxos.is_leader engine
               && not (Paxos.reconfig_in_flight engine)
             then
               let next =
                 match
                   List.filter
                     (fun q -> not (Membership.is_member m q))
                     target
                 with
                 | q :: _ -> Membership.add_learner m q
                 | [] -> (
                   match List.filter (Membership.is_learner m) target with
                   | q :: _ ->
                     if caught_up q engine then Membership.promote m q
                     else None
                   | [] -> (
                     match
                       List.filter
                         (fun q -> not (List.mem q target))
                         (Membership.members m)
                     with
                     | q :: _ -> Membership.remove m q
                     | [] -> None))
               in
               match next with
               | Some m' ->
                 Squeue.put nodes.(ld).dispatcher_qs.(0) st (Reconfig_cmd m')
               | None -> ());
            Sstats.set st Sstats.Waiting;
            Engine.delay eng 0.02;
            step ()
          end
        in
        step ())
      p.reconfig_at;
    Sstats.set st Sstats.Other
  in
  if p.reconfig_at <> [] then
    Engine.spawn eng ~name:"reconfig-driver" reconfig_driver;
  (* ---------------- spawn everything ---------------- *)
  Array.iter
    (fun node ->
       (* ClientIO runs on every group leader. Under chaos every node runs
          it: after a view change the new leader has to serve redirected
          clients. With the read fast path on, every node runs it too —
          bounded-staleness reads land on followers. *)
       let leads_a_group =
         List.mem node.id (List.init n_groups home_of_group)
       in
       if leads_a_group || chaos || reads_on then begin
         for i = 0 to p.client_io_threads - 1 do
           Engine.spawn eng ~name:(Printf.sprintf "cio-%d" i) (cio_proc node i)
         done
       end;
       for g = 0 to n_groups - 1 do
         for b = 0 to p.n_batchers - 1 do
           Engine.spawn eng ~name:"batcher" (batcher_proc node g b)
         done;
         Engine.spawn eng ~name:"protocol" (protocol_proc node g)
       done;
       if node.ss_q <> None then Engine.spawn eng ~name:"ss" (ss_proc node);
       for g = 0 to n_groups - 1 do
         if chaos then Engine.spawn eng ~name:"fd" (fd_proc node g);
         if p.lease then Engine.spawn eng ~name:"lease" (lease_proc node g);
         Engine.spawn eng ~name:"sm" (sm_proc node g)
       done;
       for peer = 0 to p.n - 1 do
         if peer <> node.id then begin
           Engine.spawn eng ~name:"snd" (sender_proc node peer);
           Engine.spawn eng ~name:"rcv" (receiver_proc node peer)
         end
       done)
    nodes;
  Array.iter
    (fun cl ->
       Engine.spawn eng ~name:"client"
         (if chaos then client_proc_chaos cl else client_proc cl))
    clients;
  (* Autotune controller processes, one per group on its bootstrap
     leader (simulated time). The policy is the same pure Autotune module
     the live Protocol thread ticks; the epoch cadence is the engine
     clock, so the tuned trajectory is a deterministic function of the
     parameters. *)
  let final_bsz = Array.make n_groups p.bsz in
  let final_wnd = Array.make n_groups p.wnd in
  let autotune_proc g () =
    let home = nodes.(home_of_group g) in
    let at =
      Autotune.create
        ~params:Autotune.{ default_params with
                           latency_bound_s = 0.05;
                           queue_high = 512 }
        ~bsz0:p.bsz ~wnd0:p.wnd ()
    in
    let last_completed = ref tune_completed.(g) in
    let last_seals =
      ref Batcher.{ seals_size = 0; seals_delay = 0; seals_idle = 0;
                    sealed_bytes = 0; limit_bytes = 0 }
    in
    let rec loop () =
      Engine.delay eng p.tune_epoch;
      let seals =
        Array.fold_left
          (fun acc b ->
             let s = Batcher.seal_stats b in
             Batcher.{
               seals_size = acc.seals_size + s.seals_size;
               seals_delay = acc.seals_delay + s.seals_delay;
               seals_idle = acc.seals_idle + s.seals_idle;
               sealed_bytes = acc.sealed_bytes + s.sealed_bytes;
               limit_bytes = acc.limit_bytes + s.limit_bytes })
          Batcher.{ seals_size = 0; seals_delay = 0; seals_idle = 0;
                    sealed_bytes = 0; limit_bytes = 0 }
          batcher_policies.(home.id).(g)
      in
      let prev = !last_seals in
      let d_bytes = seals.Batcher.sealed_bytes - prev.Batcher.sealed_bytes in
      let d_limit = seals.Batcher.limit_bytes - prev.Batcher.limit_bytes in
      let now_completed = tune_completed.(g) in
      let signals =
        Autotune.{
          s_window_in_use = Paxos.window_in_use home.engines.(g);
          s_proposal_queue = Squeue.length home.proposal_qs.(g);
          s_log_queue =
            (match home.ss_q with
             | Some q -> Squeue.length q
             | None -> 0);
          s_seals_size =
            seals.Batcher.seals_size - prev.Batcher.seals_size;
          s_seals_delay =
            seals.Batcher.seals_delay - prev.Batcher.seals_delay;
          s_batch_fill =
            (if d_limit = 0 then 0.
             else float_of_int d_bytes /. float_of_int d_limit);
          s_throughput =
            float_of_int (now_completed - !last_completed)
            /. p.tune_epoch;
          s_commit_latency_s =
            (if tune_lat_n.(g) = 0 then 0.
             else tune_lat_sum.(g) /. float_of_int tune_lat_n.(g));
        }
      in
      Autotune.tick at signals;
      (match tuned_bsz.(g) with
       | Some a -> Atomic.set a (Autotune.bsz at)
       | None -> ());
      Paxos.set_window home.engines.(g) (Autotune.wnd at);
      final_bsz.(g) <- Autotune.bsz at;
      final_wnd.(g) <- Autotune.wnd at;
      last_completed := now_completed;
      last_seals := seals;
      tune_lat_sum.(g) <- 0.;
      tune_lat_n.(g) <- 0;
      loop ()
    in
    loop ()
  in
  if p.auto_tune then
    for g = 0 to n_groups - 1 do
      Engine.spawn eng ~name:"autotune" (autotune_proc g)
    done;
  (* Sampler: window occupancy (summed over the group leaders) each
     millisecond; RTT probes each 20 ms. *)
  let home_queue_len f =
    sum_over_homes (fun node g -> float_of_int (Squeue.length (f node g)))
  in
  Engine.spawn eng ~name:"sampler" (fun () ->
      let rec loop () =
        Engine.delay eng 0.001;
        let window =
          sum_over_homes (fun node g ->
              float_of_int (Paxos.window_in_use node.engines.(g)))
        in
        Sstats.Gauge.update window_gauge window;
        (match queues_trk with
         | Some trk ->
           let open Msmr_obs.Trace in
           counter trk ~name:"window" window;
           counter trk ~name:"DispatcherQueue"
             (home_queue_len (fun node g -> node.dispatcher_qs.(g)));
           counter trk ~name:"DecisionQueue"
             (home_queue_len (fun node g -> node.decision_qs.(g)));
           counter trk ~name:"RequestQueue"
             (sum_over_homes (fun node g ->
                  Array.fold_left
                    (fun acc q -> acc +. float_of_int (Squeue.length q))
                    0. node.request_qs.(g)))
         | None -> ());
        loop ()
      in
      loop ());
  Engine.spawn eng ~name:"prober" (fun () ->
      let rec loop () =
        Engine.delay eng 0.02;
        if !measuring && p.n >= 2 then begin
          Nic.rtt_probe leader.nic ~dst:nodes.(1).nic (fun rtt ->
              rtt_leader := rtt :: !rtt_leader);
          if p.n >= 3 then
            Nic.rtt_probe nodes.(1).nic ~dst:nodes.(2).nic (fun rtt ->
                rtt_follow := rtt :: !rtt_follow);
          Nic.rtt_probe idle_a ~dst:idle_b (fun rtt ->
              rtt_idle := rtt :: !rtt_idle)
        end;
        loop ()
      in
      loop ());
  (* ---------------- run: warm-up, reset, measure ---------------- *)
  Engine.run eng ~until:p.warmup;
  measuring := true;
  completed := 0;
  lat_sum := 0.; lat_n := 0;
  inst_sum := 0.; inst_n := 0;
  batch_reqs := 0; batch_bytes := 0; batches := 0;
  reads_completed := 0; read_rejects := 0;
  Array.fill completed_g 0 n_groups 0;
  Array.fill routed 0 p.n 0;
  Array.fill routed_reads 0 p.n 0;
  globals_executed := 0;
  if chaos then begin
    Array.fill last_commit 0 n_groups p.warmup;
    Array.fill max_gap 0 n_groups 0.
  end;
  Sstats.Gauge.reset window_gauge;
  Array.iter
    (fun node ->
       List.iter Sstats.reset node.threads;
       Cpu.reset_consumed node.cpu;
       Nic.reset_counters node.nic;
       Array.iter (Array.iter Squeue.reset_stats) node.request_qs;
       Array.iter Squeue.reset_stats node.proposal_qs;
       Array.iter Squeue.reset_stats node.dispatcher_qs;
       Array.iter Squeue.reset_stats node.decision_qs;
       (match node.ss_q with Some q -> Squeue.reset_stats q | None -> ());
       (match node.disk with Some d -> Sdisk.reset_counters d | None -> ()))
    nodes;
  (* Drop warm-up events: [Sstats.reset] already restarted the open
     spans, so the retained trace covers exactly the measured window and
     its span totals match the Sstats integrals. *)
  (match tracer with Some t -> Msmr_obs.Trace.clear t | None -> ());
  Engine.run eng ~until:(p.warmup +. p.duration);
  (* Close the still-open state spans so they appear in the export. *)
  Array.iter
    (fun node -> List.iter Sstats.flush_tracer node.threads)
    nodes;
  (* ---------------- collect ---------------- *)
  let dur = p.duration in
  let mean = function [] -> 0. | l ->
    List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let report node =
    let threads = List.map (fun st -> (Sstats.name st, Sstats.totals st)) node.threads in
    let blocked =
      List.fold_left (fun acc (_, (x : Sstats.totals)) -> acc +. x.blocked) 0. threads
    in
    { cpu_util_pct = 100. *. Cpu.consumed node.cpu /. dur;
      blocked_pct = 100. *. blocked /. dur;
      threads }
  in
  let throughput = float_of_int !completed /. dur in
  let client_latency =
    if !lat_n = 0 then 0. else !lat_sum /. float_of_int !lat_n
  in
  (* Publish the headline results to the shared registry, so
     [--metrics FILE] dumps the same series names in live and sim mode. *)
  let m_labels =
    [ ("mode", "sim"); ("n", string_of_int p.n) ]
    @ (if n_groups > 1 then [ ("groups", string_of_int n_groups) ] else [])
    @ [ ("cores", string_of_int p.cores);
        ("wnd", string_of_int p.wnd);
        ("bsz", string_of_int p.bsz) ]
  in
  Msmr_obs.Metrics.set_gauge ~labels:m_labels "msmr_run_throughput_rps"
    throughput;
  Msmr_obs.Metrics.set_gauge ~labels:m_labels "msmr_run_client_latency_s"
    client_latency;
  Msmr_obs.Metrics.set_gauge ~labels:m_labels "msmr_run_leader_cpu_pct"
    (100. *. Cpu.consumed leader.cpu /. dur);
  Msmr_obs.Metrics.set_gauge ~labels:m_labels "msmr_run_events"
    (float_of_int (Engine.events_processed eng));
  (* The router's series, and each group's commit watermark (the
     per-group LSN namespace made visible). Only the simulator has a
     router. *)
  if n_groups > 1 then begin
    Array.iteri
      (fun i cnt ->
         Msmr_obs.Metrics.set_gauge
           ~labels:(("replica", string_of_int i) :: m_labels)
           "msmr_replica_router_routed_total" (float_of_int cnt))
      routed;
    if reads_on then
      Array.iteri
        (fun i cnt ->
           Msmr_obs.Metrics.set_gauge
             ~labels:(("replica", string_of_int i) :: m_labels)
             "msmr_replica_router_reads_total" (float_of_int cnt))
        routed_reads;
    for g = 0 to n_groups - 1 do
      Msmr_obs.Metrics.set_gauge
        ~labels:(("group", string_of_int g) :: m_labels)
        "msmr_replica_group_commit_lsn"
        (float_of_int
           (Paxos.stats nodes.(home_of_group g).engines.(g)).decided)
    done
  end;
  (* Linearizability check over each group's executed-request logs: no
     node executed a request twice, and every pair of nodes agrees on
     the common prefix of the group's execution order. *)
  let safety_ok, executed_min, executed_max =
    if not chaos then (true, 0, 0)
    else begin
      let ok = ref true in
      for g = 0 to n_groups - 1 do
        let arrs =
          Array.map (fun logs -> Array.of_list (List.rev logs.(g))) exec_logs
        in
        Array.iter
          (fun a ->
             let seen = Hashtbl.create (Array.length a) in
             Array.iter
               (fun r ->
                  if Hashtbl.mem seen r then ok := false
                  else Hashtbl.add seen r ())
               a)
          arrs;
        for i = 1 to p.n - 1 do
          let a = arrs.(0) and b = arrs.(i) in
          let m = min (Array.length a) (Array.length b) in
          for j = 0 to m - 1 do
            if a.(j) <> b.(j) then ok := false
          done
        done
      done;
      let executed =
        Array.map
          (Array.fold_left (fun acc l -> acc + List.length l) 0)
          exec_logs
      in
      (!ok, Array.fold_left min max_int executed,
       Array.fold_left max 0 executed)
    end
  in
  let wal_syncs, wal_group_avg =
    match leader.disk with
    | Some d ->
      (* Mirror the live WAL series so durable-mode sweeps dump the
         same names from both backends. *)
      Msmr_obs.Metrics.set_gauge ~labels:m_labels "msmr_wal_sync_total"
        (float_of_int (Sdisk.syncs d));
      Msmr_obs.Metrics.set_gauge ~labels:m_labels "msmr_wal_group_size"
        (Sdisk.avg_group d);
      (Sdisk.syncs d, Sdisk.avg_group d)
    | None -> (0, 0.)
  in
  { throughput;
    client_latency;
    instance_latency = (if !inst_n = 0 then 0. else !inst_sum /. float_of_int !inst_n);
    avg_batch_reqs =
      (if !batches = 0 then 0. else float_of_int !batch_reqs /. float_of_int !batches);
    avg_batch_bytes =
      (if !batches = 0 then 0. else float_of_int !batch_bytes /. float_of_int !batches);
    avg_window = Sstats.Gauge.avg window_gauge;
    avg_request_queue =
      sum_over_homes (fun node g ->
          Array.fold_left (fun acc q -> acc +. Squeue.avg_length q) 0.
            node.request_qs.(g));
    avg_proposal_queue =
      sum_over_homes (fun node g -> Squeue.avg_length node.proposal_qs.(g));
    avg_dispatcher_queue =
      sum_over_homes (fun node g -> Squeue.avg_length node.dispatcher_qs.(g));
    replicas = Array.map report nodes;
    leader_tx_pps = float_of_int (Nic.tx_packets leader.nic) /. dur;
    leader_rx_pps = float_of_int (Nic.rx_packets leader.nic) /. dur;
    leader_tx_mbps = float_of_int (Nic.tx_bytes leader.nic) /. dur /. 1e6;
    leader_rx_mbps = float_of_int (Nic.rx_bytes leader.nic) /. dur /. 1e6;
    rtt_leader = mean !rtt_leader;
    rtt_followers = mean !rtt_follow;
    rtt_idle = mean !rtt_idle;
    wal_syncs;
    wal_group_avg;
    tuned_bsz_final = final_bsz.(0);
    tuned_wnd_final = final_wnd.(0);
    view_changes = Hashtbl.length views_seen;
    unavailable_s =
      (if chaos then begin
         let worst = ref 0. in
         for g = 0 to n_groups - 1 do
           let tail = p.warmup +. p.duration -. last_commit.(g) in
           worst := Float.max !worst (Float.max max_gap.(g) tail)
         done;
         !worst
       end
       else 0.);
    recovery_s = List.fold_left Float.max 0. !recovery_times;
    completed = !completed;
    (* Reads are checked always (chaos or not): a fast-path answer that
       travels back in time w.r.t. the client's own acked writes is a
       safety violation wherever it happens. *)
    safety_ok = safety_ok && !stale_answers = 0;
    executed_min;
    executed_max;
    client_retries = !client_retries;
    reads_completed = !reads_completed;
    read_rejects = !read_rejects;
    stale_answers = !stale_answers;
    timeline =
      Array.mapi
        (fun i n -> (p.warmup +. (float_of_int i *. p.chaos_bucket), n))
        timeline;
    events = Engine.events_processed eng;
    group_throughputs =
      Array.map (fun cg -> float_of_int cg /. dur) completed_g;
    globals_executed = !globals_executed;
    steals = !sm_steals;
    spec_dispatched = !spec_dispatched;
    spec_confirmed = !spec_confirmed;
    spec_aborted = !spec_aborted;
    commit_exec_latency =
      (if !ce_n = 0 then 0. else !ce_sum /. float_of_int !ce_n);
    reconfigs_applied = !reconfigs_applied;
    final_epoch =
      Array.fold_left
        (fun acc nd ->
           Array.fold_left
             (fun acc e -> max acc (Paxos.membership e).Membership.epoch)
             acc nd.engines)
        0 nodes;
    trace = tracer }
