(* Integration tests for msmr_runtime: whole replicas with all threads
   running over the in-memory hub, fault injection, and the TCP link. *)

open Msmr_runtime
module Config = Msmr_consensus.Config
module Msg = Msmr_consensus.Msg
module Client_msg = Msmr_wire.Client_msg
module Mclock = Msmr_platform.Mclock
module Ch = Msmr_platform.Channel

(* Fast-paced config so tests finish quickly. *)
let test_cfg n =
  { (Config.default ~n) with
    max_batch_delay_s = 0.004;
    fd_interval_s = 0.04;
    fd_timeout_s = 0.2;
    retransmit_interval_s = 0.05;
    catchup_interval_s = 0.02 }

let with_cluster ?client_io_threads ?executor_threads ?durability ?cfg
    ?(n = 3) ?(service = Service.accumulator) f =
  let cfg = Option.value cfg ~default:(test_cfg n) in
  let cluster =
    Replica.Cluster.create ?client_io_threads ?executor_threads ?durability
      ~cfg ~service ()
  in
  Fun.protect ~finally:(fun () -> Replica.Cluster.stop cluster) (fun () ->
      f cluster)

let await ?(timeout_s = 5.0) ~what pred =
  let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
  let rec go () =
    if pred () then ()
    else if Int64.compare (Mclock.now_ns ()) deadline > 0 then
      Alcotest.failf "timeout waiting for %s" what
    else begin
      Mclock.sleep_s 0.005;
      go ()
    end
  in
  go ()

(* Sum of a gauge over the registry, over the samples carrying [label]
   when it is given. *)
let gauge_sum ?label name =
  List.fold_left
    (fun acc (s : Msmr_obs.Metrics.sample) ->
       match s.value with
       | Msmr_obs.Metrics.Gauge_v v
         when s.name = name
              && (match label with
                  | Some (k, x) -> List.assoc_opt k s.labels = Some x
                  | None -> true) ->
         acc +. v
       | _ -> acc)
    0. (Msmr_obs.Metrics.snapshot ())

(* ------------------------------------------------------------------ *)
(* Reply cache *)

let rid c s : Client_msg.request_id = { client_id = c; seq = s }

let test_reply_cache_basics () =
  let rc = Reply_cache.create () in
  Alcotest.(check bool) "fresh" true (Reply_cache.lookup rc (rid 1 1) = Fresh);
  Reply_cache.store rc (rid 1 1) (Bytes.of_string "r1");
  (match Reply_cache.lookup rc (rid 1 1) with
   | Cached b -> Alcotest.(check string) "cached" "r1" (Bytes.to_string b)
   | _ -> Alcotest.fail "expected Cached");
  Reply_cache.store rc (rid 1 2) (Bytes.of_string "r2");
  Alcotest.(check bool) "older is stale" true
    (Reply_cache.lookup rc (rid 1 1) = Stale);
  Alcotest.(check bool) "newer is fresh" true
    (Reply_cache.lookup rc (rid 1 3) = Fresh);
  (* Monotone store: a late, out-of-order store of an old seq is a no-op. *)
  Reply_cache.store rc (rid 1 1) (Bytes.of_string "late");
  (match Reply_cache.lookup rc (rid 1 2) with
   | Cached b -> Alcotest.(check string) "kept newest" "r2" (Bytes.to_string b)
   | _ -> Alcotest.fail "expected Cached r2");
  Alcotest.(check bool) "executed check" true
    (Reply_cache.already_executed rc (rid 1 2));
  Alcotest.(check bool) "other client untouched" false
    (Reply_cache.already_executed rc (rid 2 1));
  Alcotest.(check int) "one client" 1 (Reply_cache.size rc)

(* ------------------------------------------------------------------ *)
(* Service *)

let test_null_service () =
  let s = Service.null ~reply_size:4 () in
  let reply = s.execute { id = rid 1 1; payload = Bytes.of_string "ignored" } in
  Alcotest.(check int) "reply size" 4 (Bytes.length reply);
  Alcotest.(check int) "empty snapshot" 0 (Bytes.length (s.snapshot ()))

let test_accumulator_service () =
  let s = Service.accumulator () in
  let call v = Bytes.to_string (s.execute { id = rid 1 1; payload = Bytes.of_string v }) in
  Alcotest.(check string) "3" "3" (call "3");
  Alcotest.(check string) "10" "10" (call "7");
  let snap = s.snapshot () in
  Alcotest.(check string) "snapshot" "10" (Bytes.to_string snap);
  let s2 = Service.accumulator () in
  s2.restore snap;
  Alcotest.(check string) "restored" "15"
    (Bytes.to_string (s2.execute { id = rid 1 2; payload = Bytes.of_string "5" }))

(* ------------------------------------------------------------------ *)
(* Live cluster *)

let test_cluster_elects_initial_leader () =
  with_cluster @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  Alcotest.(check int) "node 0 leads view 0" 0 (Replica.me leader);
  Alcotest.(check int) "view 0" 0 (Replica.current_view leader)

let test_cluster_basic_calls () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  let r1 = Client.call client (Bytes.of_string "5") in
  Alcotest.(check string) "first" "5" (Bytes.to_string r1);
  let r2 = Client.call client (Bytes.of_string "7") in
  Alcotest.(check string) "second" "12" (Bytes.to_string r2);
  Alcotest.(check int) "calls" 2 (Client.calls_made client)

let test_cluster_replicas_converge () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  for i = 1 to 50 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"all replicas executing 50 requests" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 50) replicas);
  Array.iter
    (fun r -> Alcotest.(check int) "executed" 50 (Replica.executed_count r))
    replicas

let test_cluster_concurrent_clients () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let nclients = 8 and per_client = 25 in
  let sum = Atomic.make 0 in
  let workers =
    List.init nclients (fun c ->
        Thread.create
          (fun () ->
             let client = Client.create ~cluster ~client_id:(c + 1) () in
             for i = 1 to per_client do
               let v = (c * per_client) + i in
               ignore (Client.call client (Bytes.of_string (string_of_int v)));
               ignore (Atomic.fetch_and_add sum v)
             done)
          ())
  in
  List.iter Thread.join workers;
  let total_reqs = nclients * per_client in
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"replica convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = total_reqs) replicas);
  (* The accumulator's final value must equal the sum of all addends on
     every replica: same requests, same order, no duplicates. *)
  let probe = Client.create ~cluster ~client_id:999 () in
  let final = Client.call probe (Bytes.of_string "0") in
  Alcotest.(check string) "deterministic sum"
    (string_of_int (Atomic.get sum))
    (Bytes.to_string final)

let test_cluster_duplicate_suppression () =
  with_cluster @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  (* Send the exact same serialised request three times. *)
  let req = { Client_msg.id = rid 7 1; payload = Bytes.of_string "5" } in
  let raw = Client_msg.request_to_bytes req in
  let replies = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:8 in
  let sink b = ignore (Ch.try_put replies b) in
  Replica.submit leader ~raw ~reply_to:sink;
  await ~what:"first execution" (fun () -> Replica.executed_count leader = 1);
  Replica.submit leader ~raw ~reply_to:sink;
  Replica.submit leader ~raw ~reply_to:sink;
  await ~what:"duplicate replies" (fun () ->
      Ch.length replies >= 3);
  Mclock.sleep_s 0.05;
  Alcotest.(check int) "executed once" 1 (Replica.executed_count leader);
  (* All three replies carry the same result. *)
  let results = ref [] in
  (try
     while true do
       match Ch.try_take replies with
       | Some raw ->
         let rep = Client_msg.reply_of_bytes raw in
         results := Bytes.to_string rep.result :: !results
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "at least 3 replies" true (List.length !results >= 3);
  List.iter (fun r -> Alcotest.(check string) "same result" "5" r) !results

let test_cluster_message_loss_recovery () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let hub = Replica.Cluster.hub cluster in
  (* 20% loss in both directions between the leader and replica 1. *)
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:1 0.2;
  Transport.Hub.set_drop_rate hub ~src:1 ~dst:0 0.2;
  let client = Client.create ~cluster ~client_id:1 () in
  for i = 1 to 30 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"lossy convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 30) replicas)

(* Retransmission alone recovers a lost Accept: the failure detector
   and catch-up are set far beyond the test's horizon, so only the
   leader's retransmission timer can get the instance decided. *)
let test_cluster_retransmit_recovers_accept () =
  let cfg =
    { (test_cfg 3) with
      fd_timeout_s = 30.;
      catchup_interval_s = 30.;
      retransmit_interval_s = 0.05 }
  in
  with_cluster ~cfg @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let hub = Replica.Cluster.hub cluster in
  let client = Client.create ~timeout_s:10. ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "1"));
  let drop rate =
    Transport.Hub.set_drop_rate hub ~src:0 ~dst:1 rate;
    Transport.Hub.set_drop_rate hub ~src:0 ~dst:2 rate
  in
  drop 1.0;
  let result = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:1 in
  let caller =
    Thread.create
      (fun () -> Ch.put result (Client.call client (Bytes.of_string "2")))
      ()
  in
  Mclock.sleep_s 0.2;
  Alcotest.(check bool) "not decided while the accepts are lost" true
    (Ch.is_empty result);
  drop 0.0;
  (match Ch.take_timeout result ~timeout_s:2.0 with
   | Some r -> Alcotest.(check string) "call applied" "3" (Bytes.to_string r)
   | None -> Alcotest.fail "no reply within 2 s of the heal");
  Thread.join caller;
  Alcotest.(check int) "client never resent" 0 (Client.retries client);
  Array.iter
    (fun r ->
       Alcotest.(check int)
         (Printf.sprintf "replica %d view changes" (Replica.me r))
         0 (Replica.view_changes_count r))
    (Replica.Cluster.replicas cluster)

let test_cluster_leader_failover_live () =
  with_cluster @@ fun cluster ->
  let leader0 = Replica.Cluster.await_leader cluster in
  Alcotest.(check int) "initial leader" 0 (Replica.me leader0);
  let client = Client.create ~timeout_s:0.3 ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "10"));
  (* Crash the leader. *)
  Transport.Hub.cut (Replica.Cluster.hub cluster) 0;
  (* A new leader emerges via the failure detector (timeout 0.2s). *)
  await ~timeout_s:5.0 ~what:"new leader" (fun () ->
      let rs = Replica.Cluster.replicas cluster in
      Replica.is_leader rs.(1) || Replica.is_leader rs.(2));
  (* The service keeps working; state survived. *)
  let r = Client.call client (Bytes.of_string "5") in
  Alcotest.(check string) "state preserved" "15" (Bytes.to_string r);
  Alcotest.(check bool) "client had to retry" true (Client.retries client >= 1)

(* The Protocol thread runs the failure detector and parks on the
   DispatcherQueue until the detector's next deadline, so stopping a
   replica never waits out a detector period, even a long one. *)
let test_stop_does_not_wait_out_fd_period () =
  let cfg = { (test_cfg 3) with fd_interval_s = 2.0; fd_timeout_s = 4.0 } in
  (* [with_cluster] stops it again; a second stop returns at once. *)
  with_cluster ~cfg @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  (* Idle long enough for the first heartbeats to go out. *)
  Mclock.sleep_s 0.1;
  let t0 = Mclock.now_ns () in
  Replica.Cluster.stop cluster;
  let took_s = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool)
    (Printf.sprintf "stopped in %.3f s (bound 0.5 s)" took_s)
    true (took_s < 0.5)

(* An idle cluster keeps its view on heartbeats alone, and the detector
   does not spin the Protocol thread. Idle, a Protocol thread parks once
   per wake: at most once per heartbeat interval for its own detector
   deadline and once per heartbeat it receives, once per catch-up tick
   and once per retransmission interval. And idle, the only frames sent
   are the leader's heartbeats, one per peer per interval. A leader that
   sent heartbeats on every pass instead (its deadline staying due until
   something recorded the send) floods the hub, and the frame count
   shows it. *)
let test_idle_heartbeats_keep_view_without_spinning () =
  let cfg = test_cfg 3 in
  with_cluster ~cfg @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let quiet_s = 1.5 in
  let hub = Replica.Cluster.hub cluster in
  let parks () =
    gauge_sum ~label:("queue", "dispatcher_queue") "msmr_channel_park_total"
  and frames () = float_of_int (Transport.Hub.frames_sent hub) in
  let parks0 = parks () and frames0 = frames () in
  Mclock.sleep_s quiet_s;
  let parks = parks () -. parks0 and frames = frames () -. frames0 in
  Array.iter
    (fun r ->
       Alcotest.(check int)
         (Printf.sprintf "replica %d view changes" (Replica.me r))
         0 (Replica.view_changes_count r))
    (Replica.Cluster.replicas cluster);
  let per_replica_per_s =
    (2. /. cfg.fd_interval_s) +. (1. /. cfg.catchup_interval_s)
    +. (1. /. cfg.retransmit_interval_s)
  in
  (* Every replica's DispatcherQueue shares one park counter. *)
  let park_bound = 3. *. per_replica_per_s *. quiet_s in
  Alcotest.(check bool)
    (Printf.sprintf "dispatcher parks %.0f <= %.0f over %.1f s" parks
       park_bound quiet_s)
    true (parks <= park_bound);
  (* Two peers, with twice the heartbeat count as slack for timer edges. *)
  let frame_bound = 2. *. 2. *. quiet_s /. cfg.fd_interval_s in
  Alcotest.(check bool)
    (Printf.sprintf "frames sent %.0f <= %.0f over %.1f s" frames
       frame_bound quiet_s)
    true (frames <= frame_bound)

(* A caught-up idle replica does not wake for catch-up: the tick is
   armed only while [Paxos.catchup_due] holds. What is left is the
   failure detector: a leader wakes once per heartbeat interval for its
   deadline, a follower once per heartbeat it receives (its suspicion
   deadline is never reached), so about [1 / fd_interval_s] parks per
   replica per second; measured 1.0 to 1.1 times that. The bound allows
   1.6 times, and has no catch-up term: with a tick every
   [catchup_interval_s] (twice the heartbeat rate under [test_cfg]) an
   idle replica parked 3.7 times as often. *)
let test_idle_replica_skips_catchup_tick () =
  let cfg = test_cfg 3 in
  with_cluster ~cfg @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  (* Past the election's own catch-up traffic. *)
  Mclock.sleep_s 0.2;
  let quiet_s = 1.5 in
  let parks () =
    gauge_sum ~label:("queue", "dispatcher_queue") "msmr_channel_park_total"
  in
  let parks0 = parks () in
  Mclock.sleep_s quiet_s;
  let parks = parks () -. parks0 in
  let bound = 1.6 *. 3. *. quiet_s /. cfg.fd_interval_s in
  Alcotest.(check bool)
    (Printf.sprintf "dispatcher parks %.0f <= %.0f over %.1f s" parks bound
       quiet_s)
    true (parks <= bound)

(* The wake budget of a write. 200 sequential calls, one write in
   flight at a time, on the Hub: the channel parks of every queue per
   write. The Protocol threads hand frames to each other inline and the
   client's thread queues its own request, so a write parks the
   leader's Protocol thread about 3 times, each follower's twice
   (Accept, Decide), each scheduler once and the client once: measured
   6.96 to 8.86 per write over ten runs. The bound is 10.6, 1.2 times
   the highest. With a ClientIO thread between the client and the
   RequestQueue a write parked 8.1 to 10.6 times, and with ReplicaIO
   sender and receiver threads between the Protocol threads as well (a
   send queue and a hub pipe per hop) 21.5 to 22.8 times. *)
let test_write_wake_budget () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "0"));
  let writes = 200 in
  let parks () = gauge_sum "msmr_channel_park_total" in
  let parks0 = parks () in
  for _ = 1 to writes do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  let per_write = (parks () -. parks0) /. float_of_int writes in
  Alcotest.(check bool)
    (Printf.sprintf "channel parks per write %.2f <= 10.6" per_write)
    true (per_write <= 10.6)

let test_cluster_queue_stats () =
  with_cluster @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let stats = Replica.queue_stats leader in
  Alcotest.(check bool) "sane" true
    (stats.request_queue >= 0 && stats.window_in_use >= 0);
  let client = Client.create ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "1"));
  Alcotest.(check bool) "decided" true (Replica.decided_count leader >= 1)

let test_cluster_n5_live () =
  with_cluster ~n:5 @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  for i = 1 to 10 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"n=5 convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 10) replicas)

let test_cluster_single_node () =
  with_cluster ~n:1 @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  Alcotest.(check string) "works alone" "4"
    (Bytes.to_string (Client.call client (Bytes.of_string "4")))

(* A retried request can be answered more than once (from the reply
   cache and by its first execution), and the spare answer can land
   while the client waits on its next request. A stand-in replica on a
   TCP socket answers the first call twice: the second call must return
   its own reply, never the spare answer to the one before, and count
   the spare as late. *)
let test_client_discards_late_replies () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let addr = Unix.getsockname listener in
  let answer fd ~times =
    match Msmr_wire.Frame.read fd with
    | Some raw ->
      let req = Client_msg.request_of_bytes raw in
      let result = Bytes.of_string (string_of_int req.id.seq) in
      for _ = 1 to times do
        Msmr_wire.Frame.write fd
          (Client_msg.reply_to_bytes { id = req.id; result })
      done
    | None -> ()
  in
  let replica =
    Thread.create
      (fun () ->
         let fd, _ = Unix.accept listener in
         answer fd ~times:2;
         answer fd ~times:1;
         Unix.close fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
        Thread.join replica;
        Unix.close listener)
  @@ fun () ->
  let client = Client.connect ~timeout_s:5.0 ~addrs:[ addr ] ~client_id:1 () in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  for seq = 1 to 2 do
    Alcotest.(check string)
      (Printf.sprintf "call %d answers itself" seq)
      (string_of_int seq)
      (Bytes.to_string (Client.call client (Bytes.of_string "1")))
  done;
  Alcotest.(check int) "the spare answer discarded as late" 1
    (Client.late_replies client)

let test_cluster_null_service_throughput_smoke () =
  (* Not a benchmark: just proves the null-service pipeline sustains a
     burst without losing requests. *)
  with_cluster ~service:(fun () -> Service.null ()) @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let done_count = Atomic.make 0 in
  let sink _ = ignore (Atomic.fetch_and_add done_count 1) in
  for i = 1 to 500 do
    let raw =
      Client_msg.request_to_bytes
        { id = { client_id = 1 + (i mod 4); seq = i }; payload = Bytes.make 16 'x' }
    in
    Replica.submit leader ~raw ~reply_to:sink
  done;
  await ~what:"500 replies" (fun () -> Atomic.get done_count >= 500)

let test_ephemeral_stall_is_noop () =
  (* The durability pipeline must not exist in Ephemeral mode: the stall
     hook does nothing and calls flow normally. *)
  with_cluster @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  Replica.stall_stable_storage leader true;
  let client = Client.create ~cluster ~client_id:1 () in
  Alcotest.(check string) "call proceeds while 'stalled'" "5"
    (Bytes.to_string (Client.call client (Bytes.of_string "5")));
  Replica.stall_stable_storage leader false

(* BSZ scales with the request size: at the default config a burst of
   8 KiB requests still shares instances, where a fixed 1300-byte limit
   would give each its own. *)
let test_cluster_large_requests_share_instances () =
  with_cluster ~cfg:(Config.default ~n:3) ~service:(fun () -> Service.null ())
  @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  Alcotest.(check int) "starts at max_batch_bytes" 1300
    (Replica.bsz_now leader);
  let requests = 40 in
  let payload = Bytes.make 8192 'x' in
  let done_count = Atomic.make 0 in
  let sink _ = Atomic.incr done_count in
  let decided0 = Replica.decided_count leader in
  for i = 1 to requests do
    let raw =
      Client_msg.request_to_bytes
        { id = { client_id = i; seq = 1 }; payload }
    in
    Replica.submit leader ~raw ~reply_to:sink
  done;
  await ~what:"all replies" (fun () -> Atomic.get done_count >= requests);
  let instances = Replica.decided_count leader - decided0 in
  Alcotest.(check bool)
    (Printf.sprintf "fewer instances (%d) than requests (%d)" instances
       requests)
    true (instances < requests);
  Alcotest.(check int) "bsz is 8 mean requests" (8 * (16 + 8192))
    (Replica.bsz_now leader)

(* A link's frames, collected in arrival order for a test to take. *)
let inbox (link : Transport.link) =
  let q = Ch.create ~name:"test_inbox" ~kind:Ch.Mpmc ~capacity:1024 in
  link.on_receive (fun b -> ignore (Ch.try_put q b));
  fun ?(timeout_s = 5.0) () -> Ch.take_timeout q ~timeout_s

let test_hub_fault_injection () =
  let hub = Transport.Hub.create ~n:2 () in
  let l01 = Transport.Hub.link hub ~me:0 ~peer:1 in
  let l10 = Transport.Hub.link hub ~me:1 ~peer:0 in
  (* The Hub delivers inline, so a sent frame is there at once. *)
  let recv = inbox l10 ~timeout_s:0. in
  let send l s =
    Alcotest.(check bool) "send accepted" true
      (l.Transport.send (Bytes.of_string s))
  in
  send l01 "hello";
  (match recv () with
   | Some b -> Alcotest.(check string) "delivered" "hello" (Bytes.to_string b)
   | None -> Alcotest.fail "expected frame");
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:1 1.0;
  send l01 "lost";
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:1 0.0;
  send l01 "after";
  (match recv () with
   | Some b ->
     Alcotest.(check string) "dropped frame skipped" "after" (Bytes.to_string b)
   | None -> Alcotest.fail "expected frame");
  Alcotest.(check int) "all sends counted" 3 (Transport.Hub.frames_sent hub);
  l10.close ();
  send l01 "closed";
  Alcotest.(check bool) "closed" true (recv () = None)

let test_tcp_link_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let la = Transport.Tcp.link_of_fd a in
  let lb = Transport.Tcp.link_of_fd b in
  let recv = inbox lb in
  let msg = Msg.Accept { view = 1; iid = 2; value = Msmr_consensus.Value.Noop } in
  Alcotest.(check bool) "send queued" true (la.send (Msg.encode msg));
  (match recv () with
   | Some raw ->
     Alcotest.(check bool) "decodes" true (Msg.equal msg (Msg.decode raw))
   | None -> Alcotest.fail "expected frame");
  let burst =
    List.init 5 (fun i ->
        Msg.encode (Msg.Decide { view = 1; iid = 10 + i }))
  in
  (* A back-to-back run through the writer thread, which drains it in
     bursts: each frame arrives intact and in order. *)
  List.iter (fun f -> ignore (la.send f)) burst;
  List.iteri
    (fun i expect ->
       match recv () with
       | Some raw ->
         Alcotest.(check bool)
           (Printf.sprintf "burst frame %d" i)
           true
           (Bytes.equal raw expect)
       | None -> Alcotest.fail "burst frame missing")
    burst;
  la.close ();
  lb.close ();
  (* The conn under the pump: one coalesced write (a single
     [Frame.write_many]), each frame intact, end-of-file once the other
     side closes. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Transport.Tcp.conn_of_fd a and cb = Transport.Tcp.conn_of_fd b in
  Transport.Tcp.write ca burst;
  List.iteri
    (fun i expect ->
       match Transport.Tcp.read cb with
       | Some raw ->
         Alcotest.(check bool)
           (Printf.sprintf "coalesced frame %d" i)
           true
           (Bytes.equal raw expect)
       | None -> Alcotest.fail "coalesced frame missing")
    burst;
  Transport.Tcp.close_conn ca;
  Alcotest.(check bool) "eof after close" true (Transport.Tcp.read cb = None);
  Transport.Tcp.close_conn cb

let test_tcp_connect_link () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let addr = Unix.getsockname listener in
  let accepted = ref None in
  let acceptor =
    Thread.create
      (fun () ->
         let fd, _ = Unix.accept listener in
         accepted := Some (Transport.Tcp.link_of_fd fd))
      ()
  in
  let client_link = Transport.Tcp.connect_link addr in
  Thread.join acceptor;
  let server_link = Option.get !accepted in
  let server_recv = inbox server_link and client_recv = inbox client_link in
  ignore (client_link.send (Bytes.of_string "ping"));
  (match server_recv () with
   | Some b -> Alcotest.(check string) "ping" "ping" (Bytes.to_string b)
   | None -> Alcotest.fail "no frame");
  ignore (server_link.send (Bytes.of_string "pong"));
  (match client_recv () with
   | Some b -> Alcotest.(check string) "pong" "pong" (Bytes.to_string b)
   | None -> Alcotest.fail "no frame");
  client_link.close ();
  server_link.close ();
  Unix.close listener

let suite =
  [
    Alcotest.test_case "reply cache: basics" `Quick test_reply_cache_basics;
    Alcotest.test_case "service: null" `Quick test_null_service;
    Alcotest.test_case "service: accumulator" `Quick test_accumulator_service;
    Alcotest.test_case "hub: fault injection" `Quick test_hub_fault_injection;
    Alcotest.test_case "tcp: link round-trip" `Quick test_tcp_link_roundtrip;
    Alcotest.test_case "tcp: connect/accept" `Quick test_tcp_connect_link;
    Alcotest.test_case "cluster: initial leader" `Quick test_cluster_elects_initial_leader;
    Alcotest.test_case "cluster: basic calls" `Quick test_cluster_basic_calls;
    Alcotest.test_case "cluster: replicas converge" `Quick test_cluster_replicas_converge;
    Alcotest.test_case "cluster: concurrent clients" `Quick test_cluster_concurrent_clients;
    Alcotest.test_case "cluster: duplicate suppression" `Quick test_cluster_duplicate_suppression;
    Alcotest.test_case "cluster: message loss recovery" `Quick test_cluster_message_loss_recovery;
    Alcotest.test_case "cluster: leader failover (live)" `Quick test_cluster_leader_failover_live;
    Alcotest.test_case "cluster: stop does not wait out a detector period" `Quick
      test_stop_does_not_wait_out_fd_period;
    Alcotest.test_case "cluster: idle heartbeats keep the view without spinning"
      `Quick test_idle_heartbeats_keep_view_without_spinning;
    Alcotest.test_case "cluster: an idle replica skips the catch-up tick"
      `Quick test_idle_replica_skips_catchup_tick;
    Alcotest.test_case "cluster: write wake budget" `Quick test_write_wake_budget;
    Alcotest.test_case "cluster: queue stats" `Quick test_cluster_queue_stats;
    Alcotest.test_case "cluster: n=5" `Quick test_cluster_n5_live;
    Alcotest.test_case "cluster: single node" `Quick test_cluster_single_node;
    Alcotest.test_case "client: late replies discarded" `Quick
      test_client_discards_late_replies;
    Alcotest.test_case "cluster: null service burst" `Quick test_cluster_null_service_throughput_smoke;
    Alcotest.test_case "cluster: ephemeral stall no-op" `Quick test_ephemeral_stall_is_noop;
    Alcotest.test_case "cluster: large requests share instances" `Quick
      test_cluster_large_requests_share_instances;
  ]

(* Stopping a cluster must give back every file descriptor it opened.
   No channel opens one, timed parks included. *)
let test_cluster_fds_released () =
  let fd_count () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    Gc.full_major ();
    let before = fd_count () in
    for i = 1 to 20 do
      with_cluster (fun cluster ->
          let client = Client.create ~cluster ~client_id:i () in
          ignore (Client.call client (Bytes.of_string "1")))
    done;
    Gc.full_major ();
    Alcotest.(check int) "fd count restored" before (fd_count ())
  end

let suite =
  suite
  @ [ Alcotest.test_case "cluster: timed-park fds released" `Quick
        test_cluster_fds_released ]

(* Randomized fault-injection soak: cut and heal random replicas while
   closed-loop clients keep running; the cluster must keep making
   progress (a majority is always up) and converge afterwards, with the
   accumulator reflecting every completed call exactly once. *)
let test_cluster_fault_injection_soak () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let hub = Replica.Cluster.hub cluster in
  let rng = Random.State.make [| 2027 |] in
  let stop = Atomic.make false in
  let sum = Atomic.make 0 in
  let calls = Atomic.make 0 in
  let clients =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
             let client =
               Client.create ~timeout_s:0.3 ~cluster ~client_id:(i + 1) ()
             in
             let v = ref 0 in
             while not (Atomic.get stop) do
               incr v;
               ignore (Client.call client (Bytes.of_string (string_of_int !v)));
               ignore (Atomic.fetch_and_add sum !v);
               ignore (Atomic.fetch_and_add calls 1)
             done)
          ())
  in
  (* Chaos: 6 cut/heal cycles against a random single replica (never two
     at once, so a majority always exists). *)
  for _ = 1 to 6 do
    let victim = Random.State.int rng 3 in
    Transport.Hub.cut hub victim;
    Mclock.sleep_s (0.15 +. Random.State.float rng 0.2);
    Transport.Hub.heal hub victim;
    Mclock.sleep_s (0.1 +. Random.State.float rng 0.1)
  done;
  Atomic.set stop true;
  List.iter Thread.join clients;
  let total = Atomic.get calls in
  Alcotest.(check bool)
    (Printf.sprintf "made progress through faults (%d calls)" total)
    true (total > 20);
  (* Heal everything and check convergence + exactly-once execution. *)
  let replicas = Replica.Cluster.replicas cluster in
  await ~timeout_s:10. ~what:"post-chaos convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = total) replicas);
  let probe = Client.create ~cluster ~client_id:99 () in
  Alcotest.(check string) "exactly-once sum"
    (string_of_int (Atomic.get sum))
    (Bytes.to_string (Client.call probe (Bytes.of_string "0")))

(* ------------------------------------------------------------------ *)
(* Parallel conflict-aware ServiceManager (executor pool). *)

module Kv = Msmr_kv.Kv_service

let kv_call client cmd =
  match Kv.decode_reply (Client.call client (Kv.encode_command cmd)) with
  | rep -> rep
  | exception _ -> Alcotest.fail "undecodable kv reply"

(* Conflicting commands keep their decide order, disjoint ones may run
   concurrently: clients 1-3 all increment one shared key while clients
   4-6 each own a private key; every increment must land exactly once on
   every replica, so the final counters equal the call counts. *)
let test_cluster_executors_kv_ordering () =
  with_cluster ~executor_threads:4 ~service:(fun () -> Kv.make ())
  @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let per_client = 20 in
  let workers =
    List.init 6 (fun i ->
        let c = i + 1 in
        Thread.create
          (fun () ->
             let client = Client.create ~cluster ~client_id:c () in
             let key =
               if c <= 3 then "shared" else Printf.sprintf "own-%d" c
             in
             for _ = 1 to per_client do
               match kv_call client (Kv.Incr { key; by = 1 }) with
               | Kv.Ok_int _ -> ()
               | _ -> Alcotest.fail "expected Ok_int"
             done)
          ())
  in
  List.iter Thread.join workers;
  let total = 6 * per_client in
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"executor convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = total) replicas);
  let probe = Client.create ~cluster ~client_id:99 () in
  (match kv_call probe (Kv.Get "shared") with
   | Kv.Ok_value (Some v) ->
     Alcotest.(check string) "shared key sum" "60" v
   | _ -> Alcotest.fail "missing shared key");
  for c = 4 to 6 do
    match kv_call probe (Kv.Get (Printf.sprintf "own-%d" c)) with
    | Kv.Ok_value (Some v) -> Alcotest.(check string) "own key" "20" v
    | _ -> Alcotest.fail "missing own key"
  done;
  (* A Global command (prefix scan) sees a consistent quiesced state. *)
  match kv_call probe (Kv.List_keys "") with
  | Kv.Ok_keys keys -> Alcotest.(check int) "all keys present" 4 (List.length keys)
  | _ -> Alcotest.fail "expected Ok_keys"

(* Regression: a client's commands on distinct keys land on different
   executors, so out of decide order a later command can finish first.
   At-most-once must therefore be decided by the scheduler in decide
   order (the dispatch frontier) — an executor-side newest-seq check
   would wrongly suppress the earlier, still-fresh command (observed
   live as followers permanently under-executing). *)
let test_cluster_executors_pipelined_client () =
  with_cluster ~executor_threads:4 ~service:(fun () -> Kv.make ())
  @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let n = 300 in
  let replies = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:(n + 8) in
  let sink b = ignore (Ch.try_put replies b) in
  for s = 1 to n do
    let raw =
      Client_msg.request_to_bytes
        { id = rid 9 s;
          payload =
            Kv.encode_command
              (Kv.Incr { key = Printf.sprintf "pk-%d" s; by = 1 }) }
    in
    Replica.submit leader ~raw ~reply_to:sink
  done;
  await ~what:"all pipelined replies" (fun () ->
      Ch.length replies >= n);
  Array.iter
    (fun r ->
       await ~what:"replica executed every command" (fun () ->
           Replica.executed_count r = n))
    (Replica.Cluster.replicas cluster);
  let client = Client.create ~cluster ~client_id:10 () in
  match kv_call client (Kv.List_keys "pk-") with
  | Kv.Ok_keys keys ->
    Alcotest.(check int) "one key per command" n (List.length keys)
  | _ -> Alcotest.fail "expected Ok_keys"

(* At-most-once survives parallel execution: the scheduler's dispatch
   frontier rejects duplicate sequence numbers in decide order and
   resends the cached reply. *)
let test_cluster_executors_duplicate_suppression () =
  with_cluster ~executor_threads:4 ~service:(fun () -> Kv.make ())
  @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let raw =
    Client_msg.request_to_bytes
      { id = rid 7 1; payload = Kv.encode_command (Kv.Incr { key = "k"; by = 3 }) }
  in
  let replies = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:8 in
  let sink b = ignore (Ch.try_put replies b) in
  Replica.submit leader ~raw ~reply_to:sink;
  await ~what:"first execution" (fun () -> Replica.executed_count leader = 1);
  Replica.submit leader ~raw ~reply_to:sink;
  Replica.submit leader ~raw ~reply_to:sink;
  await ~what:"duplicate replies" (fun () ->
      Ch.length replies >= 3);
  Mclock.sleep_s 0.05;
  Alcotest.(check int) "executed once" 1 (Replica.executed_count leader);
  let rec check_all () =
    match Ch.try_take replies with
    | None -> ()
    | Some raw ->
      let rep = Client_msg.reply_of_bytes raw in
      (match Kv.decode_reply rep.result with
       | Kv.Ok_int 3 -> ()
       | _ -> Alcotest.fail "duplicate reply differs");
      check_all ()
  in
  check_all ()

(* Snapshots run against a quiesced pool: with snapshot_every low enough
   to fire many times mid-workload, no increment is lost or doubled. *)
let test_cluster_executors_snapshot_quiescence () =
  let cfg = { (test_cfg 3) with snapshot_every = 5 } in
  with_cluster ~executor_threads:4 ~cfg ~service:(fun () -> Kv.make ())
  @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let workers =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
             let client = Client.create ~cluster ~client_id:(i + 1) () in
             for k = 1 to 25 do
               let key = Printf.sprintf "key-%d" (k mod 7) in
               ignore (kv_call client (Kv.Incr { key; by = 1 }))
             done)
          ())
  in
  List.iter Thread.join workers;
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"snapshot-era convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 100) replicas);
  let probe = Client.create ~cluster ~client_id:42 () in
  let sum = ref 0 in
  for k = 0 to 6 do
    match kv_call probe (Kv.Get (Printf.sprintf "key-%d" k)) with
    | Kv.Ok_value (Some v) -> sum := !sum + int_of_string v
    | Kv.Ok_value None -> ()
    | _ -> Alcotest.fail "expected Ok_value"
  done;
  Alcotest.(check int) "every increment exactly once" 100 !sum

(* A service that classifies everything Global (the accumulator) must
   stay exactly-once and ordered under an executor pool: every command
   takes the quiescence barrier and runs serially. *)
let test_cluster_executors_global_service () =
  with_cluster ~executor_threads:4 @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let nclients = 4 and per_client = 15 in
  let sum = Atomic.make 0 in
  let workers =
    List.init nclients (fun c ->
        Thread.create
          (fun () ->
             let client = Client.create ~cluster ~client_id:(c + 1) () in
             for i = 1 to per_client do
               let v = (c * per_client) + i in
               ignore (Client.call client (Bytes.of_string (string_of_int v)));
               ignore (Atomic.fetch_and_add sum v)
             done)
          ())
  in
  List.iter Thread.join workers;
  let total_reqs = nclients * per_client in
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"global-service convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = total_reqs) replicas);
  let probe = Client.create ~cluster ~client_id:999 () in
  Alcotest.(check string) "deterministic sum"
    (string_of_int (Atomic.get sum))
    (Bytes.to_string (Client.call probe (Bytes.of_string "0")))

(* Four work-stealing executors on the lock-free spine reach exactly
   the kv state the workload defines: key [k(i mod 5)] holds the sum of
   its [i]s, and every Incr reply is that key's running sum. *)
let test_cluster_stealing_kv_state () =
  with_cluster ~executor_threads:4 ~service:(fun () -> Kv.make ())
  @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  let expected = Array.make 5 0 in
  for i = 1 to 40 do
    let r = i mod 5 in
    expected.(r) <- expected.(r) + i;
    match kv_call client (Kv.Incr { key = Printf.sprintf "k%d" r; by = i }) with
    | Kv.Ok_int n -> Alcotest.(check int) "running sum" expected.(r) n
    | _ -> Alcotest.fail "expected Ok_int"
  done;
  let state =
    match kv_call client (Kv.List_keys "") with
    | Kv.Ok_keys keys ->
      List.sort compare
        (List.map
           (fun k ->
             match kv_call client (Kv.Get k) with
             | Kv.Ok_value (Some v) -> (k, v)
             | _ -> Alcotest.fail "missing key")
           keys)
    | _ -> Alcotest.fail "expected Ok_keys"
  in
  Alcotest.(check (list (pair string string)))
    "final state"
    (List.init 5 (fun r -> (Printf.sprintf "k%d" r, string_of_int expected.(r))))
    state

(* ------------------------------------------------------------------ *)
(* Fault controller: crash-shaped kill/restart of live replicas. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let fresh_wal_dirs tag n =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msmr-test-%s-%d" tag (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  let dirs =
    Array.init n (fun i ->
        let d = Filename.concat root (string_of_int i) in
        Unix.mkdir d 0o755;
        d)
  in
  (root, dirs)

(* Kill the leader of a durable cluster, let the survivors elect, then
   restart the victim: the new incarnation re-enters WAL recovery and
   must catch back up to the live tail. The survivors' fault counters
   and the client's retry/redirect counters must all have registered the
   crash. *)
let test_cluster_kill_restart_durable () =
  let root, dirs = fresh_wal_dirs "fc" 3 in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let durability i =
    Replica.Durable { dir = dirs.(i); sync = Msmr_storage.Wal.No_sync }
  in
  with_cluster ~durability @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~timeout_s:0.3 ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "10"));
  let victim = Replica.me (Replica.Cluster.leader cluster) in
  Replica.Cluster.kill cluster victim;
  Alcotest.(check int) "killed the initial leader" 0 victim;
  await ~what:"new leader after crash" (fun () ->
      let rs = Replica.Cluster.replicas cluster in
      Replica.is_leader rs.(1) || Replica.is_leader rs.(2));
  (* Progress with the victim down; service state survived the view
     change. *)
  Alcotest.(check string) "state preserved" "15"
    (Bytes.to_string (Client.call client (Bytes.of_string "5")));
  Alcotest.(check bool) "client retried" true (Client.retries client >= 1);
  Alcotest.(check bool) "client redirected" true (Client.redirects client >= 1);
  let rs = Replica.Cluster.replicas cluster in
  Alcotest.(check bool) "a survivor suspected the dead leader" true
    (Replica.suspects_count rs.(1) >= 1 || Replica.suspects_count rs.(2) >= 1);
  Alcotest.(check bool) "a survivor changed view" true
    (Replica.view_changes_count rs.(1) >= 1
     || Replica.view_changes_count rs.(2) >= 1);
  (* Restart: WAL recovery plus catchup back to the live tail. *)
  let restarted = Replica.Cluster.restart cluster victim in
  Alcotest.(check bool) "restart replaced the cluster slot" true
    ((Replica.Cluster.replicas cluster).(victim) == restarted);
  ignore (Client.call client (Bytes.of_string "3"));
  await ~timeout_s:10. ~what:"restarted replica catches up" (fun () ->
      Array.for_all
        (fun r -> Replica.executed_count r = 3)
        (Replica.Cluster.replicas cluster));
  Alcotest.(check string) "sum intact across crash+recovery" "18"
    (Bytes.to_string (Client.call client (Bytes.of_string "0")))

(* Both sending threads under loss: a durable cluster under
   [Sync_every_write] sends its gated messages from StableStorage and the
   rest from Protocol, and every directed link drops a fifth of its
   frames through one shared per-link RNG. 300 sequential writes of 1 are
   each answered with their own running sum (exactly once, in order), and
   every replica executes all 300. *)
let test_durable_cluster_under_loss () =
  let root, dirs = fresh_wal_dirs "loss" 3 in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let durability i =
    Replica.Durable { dir = dirs.(i); sync = Msmr_storage.Wal.Sync_every_write }
  in
  with_cluster ~durability @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let hub = Replica.Cluster.hub cluster in
  for src = 0 to 2 do
    for dst = 0 to 2 do
      if src <> dst then Transport.Hub.set_drop_rate hub ~src ~dst 0.2
    done
  done;
  let client = Client.create ~timeout_s:0.3 ~cluster ~client_id:1 () in
  let writes = 300 in
  for i = 1 to writes do
    Alcotest.(check string)
      (Printf.sprintf "write %d answered once" i)
      (string_of_int i)
      (Bytes.to_string (Client.call client (Bytes.of_string "1")))
  done;
  await ~timeout_s:20. ~what:"convergence under loss" (fun () ->
      Array.for_all
        (fun r -> Replica.executed_count r = writes)
        (Replica.Cluster.replicas cluster))

(* Catchup under loss: follower 2 loses every frame from the leader
   while a batch of commands decides, so it misses their Accept/Decide
   range entirely and can only recover it through Catchup_query /
   Catchup_reply (via node 1 during the outage, or the leader after the
   heal). Convergence plus the exactly-once sum proves the recovered
   range was applied once, in order. *)
let test_cluster_catchup_under_loss_live () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let hub = Replica.Cluster.hub cluster in
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:2 1.0;
  let client = Client.create ~timeout_s:0.5 ~cluster ~client_id:1 () in
  for i = 1 to 30 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:2 0.0;
  await ~timeout_s:10. ~what:"catchup convergence after loss" (fun () ->
      Array.for_all
        (fun r -> Replica.executed_count r = 30)
        (Replica.Cluster.replicas cluster));
  let probe = Client.create ~cluster ~client_id:9 () in
  Alcotest.(check string) "exactly-once sum" "465"
    (Bytes.to_string (Client.call probe (Bytes.of_string "0")))

(* Cluster.kill / Cluster.restart directly, on an ephemeral follower:
   the fresh incarnation starts empty and rebuilds the full executed
   prefix from its peers. *)
let test_cluster_kill_restart_ephemeral_follower () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  for i = 1 to 10 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  Replica.Cluster.kill cluster 2;
  for i = 11 to 20 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  ignore (Replica.Cluster.restart cluster 2);
  await ~timeout_s:10. ~what:"ephemeral restart catches up" (fun () ->
      Array.for_all
        (fun r -> Replica.executed_count r = 20)
        (Replica.Cluster.replicas cluster));
  let probe = Client.create ~cluster ~client_id:9 () in
  Alcotest.(check string) "exactly-once sum" "210"
    (Bytes.to_string (Client.call probe (Bytes.of_string "0")))

(* ------------------------------------------------------------------ *)
(* Online membership change (DESIGN.md section 17): grow 3 -> 5 under
   load with snapshot-based state transfer, then shrink back, all while
   a client keeps the accumulator moving. *)

let reconfig_cfg n =
  { (test_cfg n) with
    members0 = [ 0; 1; 2 ];
    (* Small snapshot/retention so a joiner must bootstrap from a real
       snapshot install, not a log replay from instance 0. *)
    snapshot_every = 10;
    log_retain = 4 }

let test_cluster_grow_shrink_live () =
  with_cluster ~cfg:(reconfig_cfg 5) ~n:5 @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let replicas = Replica.Cluster.replicas cluster in
  Alcotest.(check bool) "spare 3 starts outside" false
    (Replica.is_member replicas.(3));
  Alcotest.(check bool) "member 1 starts inside" true
    (Replica.is_member replicas.(1));
  (* Enough history that the leader's log is truncated behind its
     snapshots before anyone joins. *)
  let client = Client.create ~cluster ~client_id:1 () in
  for _ = 1 to 40 do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  (* Closed-loop load through the whole reconfiguration. *)
  let loader_stop = Atomic.make false in
  let loader_calls = Atomic.make 0 in
  let loader =
    Thread.create
      (fun () ->
         let c = Client.create ~timeout_s:0.5 ~cluster ~client_id:2 () in
         while not (Atomic.get loader_stop) do
           ignore (Client.call c (Bytes.of_string "1"));
           Atomic.incr loader_calls
         done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
        Atomic.set loader_stop true;
        Thread.join loader)
  @@ fun () ->
  (* Grow 3 -> 5: each joiner enters as a learner, state-transfers, and
     is promoted to voter. *)
  Replica.Cluster.join cluster 3;
  Replica.Cluster.join cluster 4;
  let ld = Replica.Cluster.leader cluster in
  let m = Replica.membership ld in
  Alcotest.(check int) "five voters" 5
    (Msmr_consensus.Membership.n_voters m);
  Alcotest.(check bool) "3 a voter" true
    (Msmr_consensus.Membership.is_voter m 3);
  Alcotest.(check bool) "4 a voter" true
    (Msmr_consensus.Membership.is_voter m 4);
  (* The joiners bootstrapped through snapshot installs, and everyone
     counted the epoch adoptions. *)
  Alcotest.(check bool) "joiner 3 installed a snapshot" true
    (Replica.snapshot_installs_count replicas.(3) >= 1);
  Alcotest.(check bool) "leader adopted epochs" true
    (Replica.reconfigs_applied_count ld >= 4);
  (* Shrink 5 -> 3: decommissioned nodes keep running but are fenced. *)
  Replica.Cluster.decommission cluster 4;
  Replica.Cluster.decommission cluster 3;
  let ld = Replica.Cluster.leader cluster in
  Alcotest.(check int) "back to three voters" 3
    (Msmr_consensus.Membership.n_voters (Replica.membership ld));
  await ~what:"removed nodes fence themselves" (fun () ->
      (not (Replica.is_member replicas.(3)))
      && not (Replica.is_member replicas.(4)));
  Atomic.set loader_stop true;
  Thread.join loader;
  (* Exactly-once through the whole change: the accumulator equals the
     number of increments that were ever acknowledged. *)
  let total = 40 + Atomic.get loader_calls in
  Alcotest.(check string) "exactly-once sum across reconfigs"
    (string_of_int total)
    (Bytes.to_string (Client.call client (Bytes.of_string "0")))

(* Crash during state transfer: the joiner dies while it is a learner
   mid-bootstrap, restarts empty, and must still reach the voting set
   without ever having counted toward a quorum. *)
let test_cluster_join_crash_during_transfer () =
  with_cluster ~cfg:(reconfig_cfg 4) ~n:4 @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~timeout_s:0.5 ~cluster ~client_id:1 () in
  for _ = 1 to 30 do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  (* Learner only — state transfer starts, no voting rights yet. *)
  Replica.Cluster.join cluster ~promote:false 3;
  (* Crash the joiner mid-transfer; the cluster must not notice: its
     quorums never included the learner. *)
  Replica.Cluster.kill cluster 3;
  for _ = 1 to 10 do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  ignore (Replica.Cluster.restart cluster 3);
  (* Completing the join is idempotent: the add_learner step is already
     adopted, so this waits out the (restarted) state transfer and
     promotes. *)
  Replica.Cluster.join cluster 3;
  let ld = Replica.Cluster.leader cluster in
  Alcotest.(check bool) "joiner reached the voting set" true
    (Msmr_consensus.Membership.is_voter (Replica.membership ld) 3);
  for _ = 1 to 5 do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  let replicas = Replica.Cluster.replicas cluster in
  (* A snapshot-bootstrapped node never re-executes the snapshotted
     prefix, so compare log frontiers, not executed counts. *)
  let target = Replica.first_undecided (Replica.Cluster.leader cluster) in
  await ~timeout_s:10. ~what:"restarted joiner converges" (fun () ->
      Replica.first_undecided replicas.(3) >= target);
  (* Safety: the sum reflects every acknowledged increment exactly
     once, across learner crash, restart and promotion. *)
  Alcotest.(check string) "exactly-once sum" "45"
    (Bytes.to_string (Client.call client (Bytes.of_string "0")));
  Replica.Cluster.decommission cluster 3;
  Alcotest.(check bool) "removed again" false
    (Msmr_consensus.Membership.is_member
       (Replica.membership (Replica.Cluster.leader cluster)) 3)

let suite =
  suite
  @ [ Alcotest.test_case "cluster: fault-injection soak" `Slow
        test_cluster_fault_injection_soak;
      Alcotest.test_case "cluster: grow 3->5, shrink 5->3 under load" `Quick
        test_cluster_grow_shrink_live;
      Alcotest.test_case "cluster: joiner crash during state transfer" `Quick
        test_cluster_join_crash_during_transfer;
      Alcotest.test_case "cluster: fault controller kill/restart (durable)"
        `Quick test_cluster_kill_restart_durable;
      Alcotest.test_case "cluster: catchup under loss (live)" `Quick
        test_cluster_catchup_under_loss_live;
      Alcotest.test_case "cluster: durable writes under loss on every link"
        `Quick test_durable_cluster_under_loss;
      Alcotest.test_case "cluster: kill/restart ephemeral follower" `Quick
        test_cluster_kill_restart_ephemeral_follower;
      Alcotest.test_case "cluster: executors keep kv ordering" `Quick
        test_cluster_executors_kv_ordering;
      Alcotest.test_case "cluster: executors handle pipelined client" `Quick
        test_cluster_executors_pipelined_client;
      Alcotest.test_case "cluster: executors suppress duplicates" `Quick
        test_cluster_executors_duplicate_suppression;
      Alcotest.test_case "cluster: stealing executors kv state" `Quick
        test_cluster_stealing_kv_state;
      Alcotest.test_case "cluster: executors quiesce for snapshots" `Quick
        test_cluster_executors_snapshot_quiescence;
      Alcotest.test_case "cluster: executors with Global-only service" `Quick
        test_cluster_executors_global_service ]

(* ------------------------------------------------------------------ *)
(* Read fast path (leases) on the live cluster *)

let lease_test_cfg n =
  { (test_cfg n) with
    Config.lease_enabled = true; lease_duration_s = 0.4;
    clock_skew_bound_s = 0.02 }

let await_lease cluster =
  let leader = Replica.Cluster.await_leader cluster in
  await ~what:"leader lease" (fun () -> Replica.lease_held leader);
  leader

let test_cluster_linearizable_read () =
  with_cluster ~cfg:(lease_test_cfg 3) @@ fun cluster ->
  let leader = await_lease cluster in
  Alcotest.(check bool) "renewal rounds ran" true
    (Replica.lease_renewals_count leader >= 1);
  let client = Client.create ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "5"));
  ignore (Client.call client (Bytes.of_string "7"));
  (* An accumulator read is an add of 0: returns the state, mutates
     nothing. *)
  let r = Client.read client (Bytes.of_string "0") in
  Alcotest.(check string) "read sees both writes" "12" (Bytes.to_string r);
  Alcotest.(check bool) "served on the fast path" true
    (Replica.reads_served_count leader >= 1);
  (* The fast path really bypassed ordering: only the two writes were
     ordered and executed. *)
  Alcotest.(check int) "reads not ordered" 2 (Replica.executed_count leader)

let test_follower_rejects_linearizable_read () =
  with_cluster ~cfg:(lease_test_cfg 3) @@ fun cluster ->
  ignore (await_lease cluster);
  let follower = (Replica.Cluster.replicas cluster).(1) in
  let raw =
    Client_msg.read_to_bytes
      { Client_msg.id = rid 1 1; staleness_ns = Client_msg.linearizable;
        payload = Bytes.of_string "0" }
  in
  let box = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:1 in
  Replica.submit follower ~raw ~reply_to:(fun b ->
      ignore (Ch.try_put box b));
  (match Ch.take_timeout box ~timeout_s:5.0 with
   | Some b ->
     (match (Client_msg.read_reply_of_bytes b).status with
      | Client_msg.Not_leaseholder hint ->
        Alcotest.(check int) "redirect hint names the leader" 0 hint
      | _ -> Alcotest.fail "expected Not_leaseholder")
   | None -> Alcotest.fail "no reply");
  Alcotest.(check bool) "rejection counted" true
    (Replica.reads_rejected_count follower >= 1)

let test_stale_reads_spread_and_redirect () =
  with_cluster ~cfg:(lease_test_cfg 3) @@ fun cluster ->
  ignore (await_lease cluster);
  (* client_id 1 aims its first stale attempt at replica 1 (a follower). *)
  let client = Client.create ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "3"));
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"followers applying the write" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 1) replicas);
  (* A generous bound is servable at the caught-up follower. *)
  let r = Client.read_stale client ~staleness_s:5.0 (Bytes.of_string "0") in
  Alcotest.(check string) "stale read correct" "3" (Bytes.to_string r);
  let stale_served =
    Array.fold_left (fun a r -> a + Replica.stale_reads_served_count r) 0
      replicas
  in
  Alcotest.(check bool) "served somewhere on the stale path" true
    (stale_served >= 1);
  (* A zero bound is only provable at the leaseholder: the follower
     bounces the read with a leader hint and the client follows it. *)
  let r = Client.read_stale client ~staleness_s:0.0 (Bytes.of_string "0") in
  Alcotest.(check string) "tight bound still correct" "3" (Bytes.to_string r);
  Alcotest.(check bool) "redirect taken and counted" true
    (Client.read_redirects client >= 1)

let test_reads_unsupported_without_lease () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "1"));
  Alcotest.check_raises "fail fast, no redirect chase" Client.Reads_unsupported
    (fun () -> ignore (Client.read client (Bytes.of_string "0")))

let test_read_storm_keeps_reply_cache () =
  (* Regression: reads bypass the reply cache, so a storm of reads from
     one client must not disturb the at-most-once guarantee for that
     same client's writes — the duplicate of a completed write still
     gets the cached reply and is not re-executed. *)
  with_cluster ~cfg:(lease_test_cfg 3) @@ fun cluster ->
  let leader = await_lease cluster in
  let wraw =
    Client_msg.request_to_bytes
      { Client_msg.id = rid 7 1; payload = Bytes.of_string "5" }
  in
  let replies = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:4 in
  let sink b = ignore (Ch.try_put replies b) in
  Replica.submit leader ~raw:wraw ~reply_to:sink;
  await ~what:"write executed" (fun () -> Replica.executed_count leader = 1);
  ignore (Ch.take_timeout replies ~timeout_s:5.0);
  (* Read storm from the same client, between the write and its dup. *)
  let served = Atomic.make 0 in
  for i = 1 to 500 do
    let raw =
      Client_msg.read_to_bytes
        { Client_msg.id = rid 7 (1000 + i);
          staleness_ns = Client_msg.linearizable;
          payload = Bytes.of_string "0" }
    in
    Replica.submit leader ~raw ~reply_to:(fun b ->
        match (Client_msg.read_reply_of_bytes b).status with
        | Client_msg.Read_ok _ -> Atomic.incr served
        | _ -> ())
  done;
  await ~what:"storm served" (fun () -> Atomic.get served = 500);
  (* The duplicate write still hits the cache: same reply, no re-run. *)
  Replica.submit leader ~raw:wraw ~reply_to:sink;
  (match Ch.take_timeout replies ~timeout_s:5.0 with
   | Some b ->
     Alcotest.(check string) "cached reply preserved" "5"
       (Bytes.to_string (Client_msg.reply_of_bytes b).result)
   | None -> Alcotest.fail "no duplicate reply");
  Mclock.sleep_s 0.05;
  Alcotest.(check int) "write executed exactly once" 1
    (Replica.executed_count leader)

let suite =
  suite
  @ [ Alcotest.test_case "reads: linearizable at the leaseholder" `Quick
        test_cluster_linearizable_read;
      Alcotest.test_case "reads: follower refuses without the lease" `Quick
        test_follower_rejects_linearizable_read;
      Alcotest.test_case "reads: stale reads spread and redirect" `Quick
        test_stale_reads_spread_and_redirect;
      Alcotest.test_case "reads: unsupported without leases" `Quick
        test_reads_unsupported_without_lease;
      Alcotest.test_case "reads: storm leaves the reply cache intact" `Quick
        test_read_storm_keeps_reply_cache ]

let suite =
  suite
  @ [ Alcotest.test_case "cluster: retransmission recovers a lost accept" `Quick
        test_cluster_retransmit_recovers_accept ]

(* The Batcher seals its open batch as soon as the ordering pipeline is
   idle: a lone call on a quiet cluster does not wait out the delay
   cap. *)
let test_cluster_idle_seal_skips_delay_cap () =
  let cfg = { (test_cfg 3) with max_batch_delay_s = 5.0 } in
  with_cluster ~cfg @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~timeout_s:10.0 ~cluster ~client_id:1 () in
  let t0 = Mclock.now_ns () in
  Alcotest.(check string) "answered" "5"
    (Bytes.to_string (Client.call client (Bytes.of_string "5")));
  let elapsed = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s, under 1 s of a 5 s cap" elapsed)
    true (elapsed < 1.0)

(* A replica's gauge [name], summed over its series. *)
let replica_gauge name r =
  gauge_sum ~label:("replica", string_of_int (Replica.me r)) name

(* Idle seals do not end batching: requests that arrive while an
   instance is in flight still share batches. A lone request on the
   quiet cluster is sealed idle first; the burst that follows it is
   queued by the submitting thread faster than one instance completes. *)
let test_cluster_burst_still_batches () =
  with_cluster @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let done_count = Atomic.make 0 in
  let sink _ = Atomic.incr done_count in
  let submit i =
    let raw =
      Client_msg.request_to_bytes
        { id = { client_id = i; seq = 1 }; payload = Bytes.of_string "1" }
    in
    Replica.submit leader ~raw ~reply_to:sink
  in
  submit 1;
  await ~what:"the lone request's reply" (fun () -> Atomic.get done_count = 1);
  for i = 2 to 200 do submit i done;
  await ~what:"200 replies" (fun () -> Atomic.get done_count >= 200);
  let decided = Replica.decided_count leader in
  let executed = Replica.executed_count leader in
  Alcotest.(check bool)
    (Printf.sprintf "fewer instances (%d) than requests (%d)" decided executed)
    true (decided < executed);
  let idle = replica_gauge "msmr_replica_flush_idle_total" leader in
  Alcotest.(check bool)
    (Printf.sprintf "idle seals counted (%.0f)" idle)
    true (idle > 0.)

let suite =
  suite
  @ [ Alcotest.test_case "cluster: idle call skips the delay cap" `Quick
        test_cluster_idle_seal_skips_delay_cap;
      Alcotest.test_case "cluster: burst still batches" `Quick
        test_cluster_burst_still_batches ]

(* ------------------------------------------------------------------ *)
(* The ServiceManager's idle path: a batch decided while the executor
   pool is idle and the DecisionQueue empty runs on the scheduler. *)

let test_cluster_idle_decision_inline () =
  with_cluster ~executor_threads:2 ~service:(fun () -> Kv.make ())
  @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let client = Client.create ~cluster ~client_id:1 () in
  let put = Kv.Put { key = "k"; value = "v"; ephemeral = false } in
  (match kv_call client put with
   | Kv.Error e -> Alcotest.failf "put failed: %s" e
   | _ -> ());
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"every replica executed the put" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 1) replicas);
  Array.iter
    (fun r ->
       Alcotest.(check bool)
         (Printf.sprintf "replica %d ran the batch inline" (Replica.me r))
         true
         (Replica.exec_inline_count r >= 1))
    replicas;
  Alcotest.(check int) "leader dispatched nothing to the pool" 0
    (Replica.executor_dispatched_count leader)

(* A test service over "<key>:<tag>" payloads: each command appends its
   tag to its key's history and answers with that history, joined by
   commas. A command whose tag has a counter in [counts] bumps it on
   entry; one whose tag has a latch then waits until the test opens
   it. *)
let latched_service ~latches ~counts () =
  let mu = Mutex.create () in
  let history : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let split (req : Client_msg.request) =
    match String.split_on_char ':' (Bytes.to_string req.payload) with
    | [ key; tag ] -> (key, tag)
    | _ -> invalid_arg "latched_service: payload"
  in
  let execute req =
    let key, tag = split req in
    Option.iter Atomic.incr (List.assoc_opt tag counts);
    Option.iter
      (fun latch -> while not (Atomic.get latch) do Thread.delay 0.001 done)
      (List.assoc_opt tag latches);
    Mutex.lock mu;
    let h = tag :: Option.value (Hashtbl.find_opt history key) ~default:[] in
    Hashtbl.replace history key h;
    Mutex.unlock mu;
    Bytes.of_string (String.concat "," (List.rev h))
  in
  Service.make
    ~conflict_keys:(fun req -> Service.Keys [ fst (split req) ])
    ~execute
    ~snapshot:(fun () -> Bytes.empty)
    ~restore:(fun _ -> ())
    ()

(* The pool must still own a key while it runs one of its commands. P
   holds every scheduler (it runs inline and waits on a latch) while A
   and then F are decided, so A is popped with F queued behind it and
   goes to the pool, where it waits on a second latch. B, on A's key,
   is then decided with the DecisionQueue empty: only the pool's
   pending count says that B must queue behind A. The thread that runs
   a request writes its reply before it finishes the request, so the
   replies on A's key arrive in the order their requests ran. *)
let test_cluster_inline_waits_for_busy_pool () =
  let open_p = Atomic.make false and open_a = Atomic.make false in
  let entered_p = Atomic.make 0 and entered_a = Atomic.make 0 in
  let ran_b = Atomic.make 0 in
  let service =
    latched_service
      ~latches:[ ("P", open_p); ("A", open_a) ]
      ~counts:[ ("P", entered_p); ("A", entered_a); ("B", ran_b) ]
  in
  with_cluster ~executor_threads:2 ~service @@ fun cluster ->
  (* A failed check must not leave a thread on a latch: stopping the
     cluster joins every thread. *)
  Fun.protect ~finally:(fun () ->
      Atomic.set open_p true;
      Atomic.set open_a true)
  @@ fun () ->
  let leader = Replica.Cluster.await_leader cluster in
  let replicas = Replica.Cluster.replicas cluster in
  let n = Array.length replicas in
  let mu = Mutex.create () in
  let replies = ref [] in
  let submit client_id payload =
    let raw =
      Client_msg.request_to_bytes
        { id = rid client_id 1; payload = Bytes.of_string payload }
    in
    Replica.submit leader ~raw ~reply_to:(fun b ->
        let rep = Client_msg.reply_of_bytes b in
        Mutex.lock mu;
        replies := (payload, Bytes.to_string rep.result) :: !replies;
        Mutex.unlock mu)
  in
  let queued_all k =
    Array.for_all
      (fun r -> (Replica.queue_stats r).decision_queue >= k)
      replicas
  in
  submit 1 "p:P";
  await ~what:"P running everywhere" (fun () -> Atomic.get entered_p = n);
  submit 2 "k:A";
  await ~what:"A queued behind P" (fun () -> queued_all 1);
  submit 4 "f:F";
  await ~what:"F queued behind A" (fun () -> queued_all 2);
  Atomic.set open_p true;
  await ~what:"A running everywhere" (fun () -> Atomic.get entered_a = n);
  submit 5 "k:B";
  await ~what:"B scheduled everywhere" (fun () ->
      Atomic.get ran_b > 0
      || Array.for_all
           (fun r -> Replica.executor_dispatched_count r >= 3)
           replicas);
  Alcotest.(check int) "B has not run while A holds its key" 0
    (Atomic.get ran_b);
  Atomic.set open_a true;
  await ~what:"four replies" (fun () ->
      Mutex.lock mu;
      let k = List.length !replies in
      Mutex.unlock mu;
      k = 4);
  await ~what:"every replica executed all four" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 4) replicas);
  let replies = List.rev !replies in
  let on_k =
    List.filter (fun (p, _) -> p = "k:A" || p = "k:B") replies
  in
  Alcotest.(check (list (pair string string)))
    "replies on k in decide order, state A then B"
    [ ("k:A", "A"); ("k:B", "A,B") ]
    on_k

(* Under a burst, decisions queue up and the pool still does the work;
   per-key order holds: every key's increments answer 1..50 exactly
   once, and the replicas end in the same state. Each command takes a
   millisecond, so decisions reliably queue behind the one executing. *)
let test_cluster_burst_uses_pool () =
  let instances = ref [] and mu = Mutex.create () in
  let service () =
    let s = Kv.make () in
    Mutex.lock mu;
    instances := s :: !instances;
    Mutex.unlock mu;
    { s with execute = (fun req -> Thread.delay 0.001; s.execute req) }
  in
  with_cluster ~executor_threads:2 ~service @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let keys = 4 and total = 200 in
  let results = Array.make keys [] and rmu = Mutex.create () in
  for i = 1 to total do
    let key = i mod keys in
    let raw =
      Client_msg.request_to_bytes
        { id = rid i 1;
          payload =
            Kv.encode_command
              (Kv.Incr { key = Printf.sprintf "burst-%d" key; by = 1 }) }
    in
    Replica.submit leader ~raw ~reply_to:(fun b ->
        match Kv.decode_reply (Client_msg.reply_of_bytes b).result with
        | Kv.Ok_int v ->
          Mutex.lock rmu;
          results.(key) <- v :: results.(key);
          Mutex.unlock rmu
        | _ -> ())
  done;
  await ~what:"200 replies" (fun () ->
      Mutex.lock rmu;
      let k = Array.fold_left (fun a l -> a + List.length l) 0 results in
      Mutex.unlock rmu;
      k = total);
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"every replica executed the burst" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = total) replicas);
  let dispatched = Replica.executor_dispatched_count leader in
  Alcotest.(check bool)
    (Printf.sprintf "the pool ran part of the burst (%d dispatched)" dispatched)
    true (dispatched > 0);
  Array.iteri
    (fun key vs ->
       Alcotest.(check (list int))
         (Printf.sprintf "burst-%d answers 1..50" key)
         (List.init (total / keys) (fun i -> i + 1))
         (List.sort compare vs))
    results;
  match List.map (fun (s : Service.t) -> s.snapshot ()) !instances with
  | first :: rest ->
    List.iter
      (fun snap ->
         Alcotest.(check bool) "replica states equal" true
           (Bytes.equal first snap))
      rest
  | [] -> Alcotest.fail "no service instances"

let suite =
  suite
  @ [ Alcotest.test_case "cluster: idle decision runs inline" `Quick
        test_cluster_idle_decision_inline;
      Alcotest.test_case "cluster: inline waits for a busy pool" `Quick
        test_cluster_inline_waits_for_busy_pool;
      Alcotest.test_case "cluster: burst still uses the pool" `Quick
        test_cluster_burst_uses_pool ]

(* A request that arrives while an instance is in flight is sealed as
   soon as the pipeline drains, even when nothing arrives after it: the
   Protocol thread wakes the Batcher rather than leaving the request to
   the delay cap. *)
let test_cluster_drained_pipeline_seals () =
  let cfg =
    { (test_cfg 3) with
      max_batch_delay_s = 1.0;
      fd_timeout_s = 30.;
      catchup_interval_s = 30. }
  in
  with_cluster ~cfg @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let me = Replica.me leader in
  let hub = Replica.Cluster.hub cluster in
  let peers = List.filter (fun p -> p <> me) [ 0; 1; 2 ] in
  let replied = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:2 in
  let submit c =
    let raw =
      Client_msg.request_to_bytes
        { id = { client_id = c; seq = 1 }; payload = Bytes.of_string "1" }
    in
    Replica.submit leader ~raw ~reply_to:(fun _ -> Ch.put replied c)
  in
  List.iter (fun p -> Transport.Hub.sever hub ~src:me ~dst:p) peers;
  submit 1;
  await ~what:"request A in flight" (fun () ->
      (Replica.queue_stats leader).window_in_use = 1);
  let t0 = Mclock.now_ns () in
  submit 2;
  Mclock.sleep_s 0.05;
  List.iter (fun p -> Transport.Hub.heal_link hub ~src:me ~dst:p) peers;
  let next () =
    match Ch.take_timeout replied ~timeout_s:2.0 with
    | Some c -> c
    | None -> Alcotest.fail "no reply within 2 s of the heal"
  in
  Alcotest.(check int) "A answered first" 1 (next ());
  Alcotest.(check int) "then B" 2 (next ());
  let elapsed = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool)
    (Printf.sprintf "B answered in %.3f s, under 0.5 s of a 1 s cap" elapsed)
    true (elapsed < 0.5)

let suite =
  suite
  @ [ Alcotest.test_case "cluster: drained pipeline seals the open batch"
        `Quick test_cluster_drained_pipeline_seals ]

(* The delay cap is one of the Protocol thread's timers. With an
   instance held in flight, a request that arrives behind it can be
   sealed neither idle nor on a drain, and no other timer is due for
   seconds: only the cap's deadline wakes the thread to seal it. *)
let test_cluster_delay_cap_live () =
  let cfg =
    { (test_cfg 3) with
      max_batch_delay_s = 0.05;
      retransmit_interval_s = 2.0;
      fd_timeout_s = 30.;
      catchup_interval_s = 30. }
  in
  with_cluster ~cfg @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let me = Replica.me leader in
  let hub = Replica.Cluster.hub cluster in
  let peers = List.filter (fun p -> p <> me) [ 0; 1; 2 ] in
  let replied = Ch.create ~name:"test" ~kind:Ch.Mpmc ~capacity:2 in
  let submit c =
    let raw =
      Client_msg.request_to_bytes
        { id = { client_id = c; seq = 1 }; payload = Bytes.of_string "1" }
    in
    Replica.submit leader ~raw ~reply_to:(fun _ -> Ch.put replied c)
  in
  let delay_seals () = replica_gauge "msmr_replica_flush_delay_total" leader in
  List.iter (fun p -> Transport.Hub.sever hub ~src:me ~dst:p) peers;
  submit 1;
  await ~what:"request A in flight" (fun () ->
      (Replica.queue_stats leader).window_in_use = 1);
  let before = delay_seals () in
  let t0 = Mclock.now_ns () in
  submit 2;
  await ~timeout_s:0.5 ~what:"a delay-cap seal within 0.5 s" (fun () ->
      delay_seals () > before);
  let elapsed = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool)
    (Printf.sprintf "B sealed after %.3f s, no sooner than its 0.05 s cap"
       elapsed)
    true (elapsed >= 0.05);
  List.iter (fun p -> Transport.Hub.heal_link hub ~src:me ~dst:p) peers;
  (* Both Accepts were lost: they go out again on retransmission. *)
  let next () =
    match Ch.take_timeout replied ~timeout_s:5.0 with
    | Some c -> c
    | None -> Alcotest.fail "no reply within 5 s of the heal"
  in
  let got = List.sort compare [ next (); next () ] in
  Alcotest.(check (list int)) "A and B answered" [ 1; 2 ] got

(* With the window full the Protocol thread stops draining the
   RequestQueue: requests wait there, bounded, rather than in batches
   nothing may propose yet. *)
let test_cluster_full_window_backpressure () =
  let cfg =
    { (test_cfg 3) with fd_timeout_s = 30.; catchup_interval_s = 30. }
  in
  with_cluster ~cfg ~service:(fun () -> Service.null ()) @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let me = Replica.me leader in
  let hub = Replica.Cluster.hub cluster in
  let peers = List.filter (fun p -> p <> me) [ 0; 1; 2 ] in
  let n = 300 in
  (* 1 KiB payloads: the size-scaled BSZ holds about 8 of them, so the
     window absorbs some 80 requests and the rest must queue. *)
  let payload = Bytes.make 1024 'x' in
  let replies = Array.init (n + 1) (fun _ -> Atomic.make 0) in
  List.iter (fun p -> Transport.Hub.sever hub ~src:me ~dst:p) peers;
  for c = 1 to n do
    let raw =
      Client_msg.request_to_bytes { id = { client_id = c; seq = 1 }; payload }
    in
    Replica.submit leader ~raw ~reply_to:(fun _ -> Atomic.incr replies.(c))
  done;
  await ~what:"a full window" (fun () ->
      (Replica.queue_stats leader).window_in_use = cfg.window);
  let queued = (Replica.queue_stats leader).request_queue in
  Alcotest.(check bool)
    (Printf.sprintf "requests wait in the RequestQueue (%d)" queued)
    true (queued > 0);
  List.iter (fun p -> Transport.Hub.heal_link hub ~src:me ~dst:p) peers;
  await ~timeout_s:10.0 ~what:"every request answered" (fun () ->
      Array.for_all (fun a -> Atomic.get a >= 1) (Array.sub replies 1 n));
  let replicas = Replica.Cluster.replicas cluster in
  await ~timeout_s:10.0 ~what:"replicas converge" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = n) replicas);
  let not_once =
    List.filter (fun c -> Atomic.get replies.(c) <> 1) (List.init n succ)
  in
  Alcotest.(check (list int)) "clients not answered exactly once" [] not_once

let suite =
  suite
  @ [ Alcotest.test_case "cluster: live delay cap seals a held batch" `Quick
        test_cluster_delay_cap_live;
      Alcotest.test_case "cluster: full window leaves requests queued" `Quick
        test_cluster_full_window_backpressure ]

(* Stopping a replica whose RequestQueue is full must release a
   submitter parked on it: with the window full nothing drains the queue
   once the Protocol thread has gone. The submitter gets an exception,
   as a call after [stop] does. *)
let test_cluster_stop_with_full_request_queue () =
  let cfg =
    { (test_cfg 3) with fd_timeout_s = 30.; catchup_interval_s = 30. }
  in
  let cluster =
    Replica.Cluster.create ~cfg ~service:(fun () -> Service.null ()) ()
  in
  let leader = Replica.Cluster.await_leader cluster in
  let me = Replica.me leader in
  let hub = Replica.Cluster.hub cluster in
  List.iter
    (fun p -> if p <> me then Transport.Hub.sever hub ~src:me ~dst:p)
    [ 0; 1; 2 ];
  (* As in the full-window test, the window absorbs some 80 of these
     1 KiB requests; 1000 or more fill the RequestQueue (its ring rounds
     the capacity up to 1024), and the submitter parks on the next. *)
  let payload = Bytes.make 1024 'x' in
  let submitted = Atomic.make 0 and released = Atomic.make false in
  let submitter =
    Thread.create
      (fun () ->
         try
           for c = 1 to 1300 do
             let raw =
               Client_msg.request_to_bytes
                 { id = { client_id = c; seq = 1 }; payload }
             in
             Replica.submit leader ~raw ~reply_to:ignore;
             Atomic.incr submitted
           done
         with _ -> Atomic.set released true)
      ()
  in
  await ~what:"a full RequestQueue" (fun () ->
      (Replica.queue_stats leader).request_queue >= 1000);
  Mclock.sleep_s 0.05;
  Alcotest.(check bool)
    (Printf.sprintf "the submitter is parked (%d submitted)"
       (Atomic.get submitted))
    true (Atomic.get submitted < 1300);
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
         Replica.Cluster.stop cluster;
         Atomic.set stopped true)
      ()
  in
  await ~what:"the cluster to stop" (fun () -> Atomic.get stopped);
  Thread.join stopper;
  await ~what:"the parked submitter released" (fun () ->
      Atomic.get released);
  Thread.join submitter

let suite =
  suite
  @ [ Alcotest.test_case "cluster: stop with a full request queue" `Quick
        test_cluster_stop_with_full_request_queue ]
