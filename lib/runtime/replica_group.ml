module Counter = Msmr_platform.Rate_meter.Counter
module Client_msg = Msmr_wire.Client_msg

type t = {
  n_groups : int;
  clusters : Replica.Cluster.t array;
  conflict : Client_msg.request -> Service.conflict;
  (* Cross-group quiescence gate. [inflight.(g)] maps each client with a
     request outstanding in group [g] to that request's seq, and
     [replied.(g)] each client to the newest seq group [g] answered.
     Clients are sequential, one outstanding request each, so keying by
     client counts a retried request once, and a late duplicate — which
     the reply cache drops as stale without replying — not at all. A
     fresh Global request closes the gate, waits for every [inflight]
     table to empty, executes through group 0, and reopens on its own
     reply. All transitions happen under [gate]. *)
  gate : Mutex.t;
  gate_cv : Condition.t;
  mutable gate_closed : bool;
  inflight : (int, int) Hashtbl.t array;
  replied : (int, int) Hashtbl.t array;
  routed : Counter.t;
  globals : Counter.t;
  reads_routed : Counter.t;
  stale_rr : int Atomic.t;   (* round-robin cursor for stale-read spread *)
  mutable running : bool;
}

let groups t = t.n_groups
let cluster t ~gid = t.clusters.(gid)
let routed_count t = Counter.get t.routed
let globals_count t = Counter.get t.globals
let reads_routed_count t = Counter.get t.reads_routed

let m_labels = [ ("mode", "live") ]
let m_group_labels g = ("group", string_of_int g) :: m_labels

let create ?client_io_threads ?executor_threads ?conflict
    ?durability ~groups ~cfg ~service () =
  if groups < 1 then invalid_arg "Replica_group.create: groups < 1";
  let cfg = { cfg with Msmr_consensus.Config.groups } in
  let conflict =
    match conflict with
    | Some f -> f
    | None -> (service ~gid:0).Service.conflict_keys
  in
  let clusters =
    Array.init groups (fun gid ->
        let durability =
          match durability with
          | Some f -> Some (fun node -> f ~gid ~node)
          | None -> None
        in
        Replica.Cluster.create ?client_io_threads ?executor_threads ~gid
          ?durability ~cfg
          ~service:(fun () -> service ~gid)
          ())
  in
  let t =
    { n_groups = groups;
      clusters;
      conflict;
      gate = Mutex.create ();
      gate_cv = Condition.create ();
      gate_closed = false;
      inflight = Array.init groups (fun _ -> Hashtbl.create 16);
      replied = Array.init groups (fun _ -> Hashtbl.create 16);
      routed = Counter.create ();
      globals = Counter.create ();
      reads_routed = Counter.create ();
      stale_rr = Atomic.make 0;
      running = true }
  in
  Msmr_obs.Metrics.gauge ~labels:m_labels "msmr_replica_router_routed_total"
    (fun () -> float_of_int (Counter.get t.routed));
  Msmr_obs.Metrics.gauge ~labels:m_labels "msmr_replica_router_reads_total"
    (fun () -> float_of_int (Counter.get t.reads_routed));
  for g = 0 to groups - 1 do
    (* The group's log-ordering watermark: instances decided by its
       acting leader — the live counterpart of the simulator's per-group
       commit LSN. *)
    Msmr_obs.Metrics.gauge ~labels:(m_group_labels g)
      "msmr_replica_group_commit_lsn" (fun () ->
        float_of_int
          (Replica.decided_count (Replica.Cluster.leader t.clusters.(g))))
  done;
  t

let await_leaders ?timeout_s t =
  Array.iter
    (fun c -> ignore (Replica.Cluster.await_leader ?timeout_s c))
    t.clusters

let leader_of t g = Replica.Cluster.leader t.clusters.(g)

let seq_in tbl client_id =
  Option.value (Hashtbl.find_opt tbl client_id) ~default:0

(* Reply-side bookkeeping: the wrapped sink retires the client's
   in-flight entry before delivering, and wakes a parked Global when its
   group drains. *)
let retire t g raw =
  match Client_msg.reply_of_bytes raw with
  | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) -> ()
  | { id = { client_id; seq }; _ } ->
    Mutex.lock t.gate;
    if seq > seq_in t.replied.(g) client_id then
      Hashtbl.replace t.replied.(g) client_id seq;
    (match Hashtbl.find_opt t.inflight.(g) client_id with
     | Some s when s <= seq ->
       Hashtbl.remove t.inflight.(g) client_id;
       if Hashtbl.length t.inflight.(g) = 0 then Condition.broadcast t.gate_cv
     | _ -> ());
    Mutex.unlock t.gate

let submit_to_group t g ~conflict ~(req : Client_msg.request) ~raw ~reply_to =
  let { Client_msg.client_id; seq } = req.id in
  Mutex.lock t.gate;
  while t.gate_closed do
    Condition.wait t.gate_cv t.gate
  done;
  if seq > max (seq_in t.replied.(g) client_id) (seq_in t.inflight.(g) client_id)
  then Hashtbl.replace t.inflight.(g) client_id seq;
  Mutex.unlock t.gate;
  let reply_to bytes =
    retire t g bytes;
    reply_to bytes
  in
  Replica.submit ~conflict (leader_of t g) ~raw ~reply_to

let submit_global t ~(req : Client_msg.request) ~raw ~reply_to =
  let { Client_msg.client_id; seq } = req.id in
  Mutex.lock t.gate;
  (* Concurrent Globals serialise on the gate itself. *)
  while t.gate_closed do
    Condition.wait t.gate_cv t.gate
  done;
  (* A Global at or below the newest seq group 0 answered this client is
     a duplicate: the reply cache answers or drops it without executing,
     so it takes no barrier (and may never reply). *)
  let fresh = seq > seq_in t.replied.(0) client_id in
  if fresh then begin
    t.gate_closed <- true;
    while Array.exists (fun tbl -> Hashtbl.length tbl > 0) t.inflight do
      Condition.wait t.gate_cv t.gate
    done
  end;
  Mutex.unlock t.gate;
  let reply_to bytes =
    retire t 0 bytes;
    if fresh then begin
      Mutex.lock t.gate;
      t.gate_closed <- false;
      Condition.broadcast t.gate_cv;
      Mutex.unlock t.gate
    end;
    reply_to bytes
  in
  if fresh then Counter.incr t.globals;
  Replica.submit ~conflict:Service.Global (leader_of t 0) ~raw ~reply_to

(* Read fast path: per-group routing by the same conflict classifier as
   writes, so each group's leaseholder serves its own keyspace and read
   throughput scales with groups x replicas. Reads bypass the Global
   quiescence gate — they mutate nothing, and a key owned by group [g]
   is only ever written through group [g]'s log. Linearizable reads go
   to the group's acting leader (the leaseholder); bounded-staleness
   reads are spread round-robin over the group's replicas. Global-keyed
   reads target group 0, where Global commands execute. *)
let submit_read t (read : Client_msg.read) ~raw ~reply_to =
  Counter.incr t.reads_routed;
  let g =
    match
      Router.target_of_conflict ~groups:t.n_groups
        ~fallback:read.id.client_id
        (t.conflict { Client_msg.id = read.id; payload = read.payload })
    with
    | Router.Group g -> g
    | Router.Global -> 0
  in
  let target =
    if read.staleness_ns < 0 then leader_of t g
    else begin
      let replicas = Replica.Cluster.replicas t.clusters.(g) in
      let k = Atomic.fetch_and_add t.stale_rr 1 in
      replicas.(k mod Array.length replicas)
    end
  in
  Replica.submit target ~raw ~reply_to

let submit t ~raw ~reply_to =
  if Client_msg.is_read_raw raw then
    submit_read t (Client_msg.read_of_bytes raw) ~raw ~reply_to
  else begin
    let req = Client_msg.request_of_bytes raw in
    Counter.incr t.routed;
    (* Classify once: the class picks the group here and is threaded
       through [Replica.submit] so the replica's spine reuses it. *)
    let conflict = t.conflict req in
    match
      Router.target_of_conflict ~groups:t.n_groups ~fallback:req.id.client_id
        conflict
    with
    | Router.Group g -> submit_to_group t g ~conflict ~req ~raw ~reply_to
    | Router.Global -> submit_global t ~req ~raw ~reply_to
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Msmr_obs.Metrics.remove ~labels:m_labels
      "msmr_replica_router_routed_total";
    Msmr_obs.Metrics.remove ~labels:m_labels
      "msmr_replica_router_reads_total";
    for g = 0 to t.n_groups - 1 do
      Msmr_obs.Metrics.remove ~labels:(m_group_labels g)
        "msmr_replica_group_commit_lsn"
    done;
    (* Unblock anything parked on the gate before tearing the groups
       down. *)
    Mutex.lock t.gate;
    t.gate_closed <- false;
    Array.iter Hashtbl.reset t.inflight;
    Condition.broadcast t.gate_cv;
    Mutex.unlock t.gate;
    Array.iter Replica.Cluster.stop t.clusters
  end
