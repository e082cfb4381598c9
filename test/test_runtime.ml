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
  let replies = Ch.create ~kind:Ch.Mpmc ~capacity:8 in
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

let test_sender_flushes_counted () =
  with_cluster @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let client = Client.create ~cluster ~client_id:1 () in
  for i = 1 to 10 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  (* Every inter-replica message went through a coalesced sender drain;
     the per-replica flush counters must have moved. *)
  let flushes =
    List.fold_left
      (fun acc (s : Msmr_obs.Metrics.sample) ->
         if s.name = "msmr_replica_sender_flushes" then
           match s.value with
           | Msmr_obs.Metrics.Gauge_v v -> acc +. v
           | _ -> acc
         else acc)
      0.
      (Msmr_obs.Metrics.snapshot ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "sender flushes counted (%.0f)" flushes)
    true (flushes > 0.)

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

let test_cluster_autotune_live () =
  (* Live wiring sanity: the controller ticks on the Protocol thread and
     the published knobs stay inside the configured bounds. *)
  let cfg = { (test_cfg 3) with auto_tune = true; tune_epoch_s = 0.02 } in
  with_cluster ~cfg @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let bsz0, wnd0 = Replica.tuned_now leader in
  Alcotest.(check int) "starts at static bsz" cfg.Config.max_batch_bytes bsz0;
  Alcotest.(check int) "starts at static wnd" cfg.Config.window wnd0;
  let client = Client.create ~cluster ~client_id:77 () in
  for i = 1 to 100 do
    ignore (Client.call client (Bytes.of_string (string_of_int i)))
  done;
  let bsz, wnd = Replica.tuned_now leader in
  Alcotest.(check bool) "bsz within bounds" true
    (bsz >= cfg.Config.bsz_min && bsz <= cfg.Config.bsz_max);
  Alcotest.(check bool) "wnd within bounds" true
    (wnd >= cfg.Config.wnd_min && wnd <= cfg.Config.wnd_max)

let test_hub_fault_injection () =
  let hub = Transport.Hub.create ~n:2 () in
  let l01 = Transport.Hub.link hub ~me:0 ~peer:1 in
  let l10 = Transport.Hub.link hub ~me:1 ~peer:0 in
  l01.send_bytes (Bytes.of_string "hello");
  (match l10.recv_bytes () with
   | Some b -> Alcotest.(check string) "delivered" "hello" (Bytes.to_string b)
   | None -> Alcotest.fail "expected frame");
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:1 1.0;
  l01.send_bytes (Bytes.of_string "lost");
  Transport.Hub.set_drop_rate hub ~src:0 ~dst:1 0.0;
  l01.send_bytes (Bytes.of_string "after");
  (match l10.recv_bytes () with
   | Some b ->
     Alcotest.(check string) "dropped frame skipped" "after" (Bytes.to_string b)
   | None -> Alcotest.fail "expected frame");
  Alcotest.(check int) "all sends counted" 3 (Transport.Hub.frames_sent hub);
  Transport.Hub.close hub;
  Alcotest.(check bool) "closed" true (l10.recv_bytes () = None)

let test_tcp_link_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let la = Transport.Tcp.link_of_fd a in
  let lb = Transport.Tcp.link_of_fd b in
  let msg = Msg.Accept { view = 1; iid = 2; value = Msmr_consensus.Value.Noop } in
  la.send_bytes (Msg.encode msg);
  (match lb.recv_bytes () with
   | Some raw ->
     Alcotest.(check bool) "decodes" true (Msg.equal msg (Msg.decode raw))
   | None -> Alcotest.fail "expected frame");
  (* Coalesced sender path: one send_many, each frame arrives intact. *)
  let burst =
    List.init 5 (fun i ->
        Msg.encode (Msg.Decide { view = 1; iid = 10 + i }))
  in
  la.send_many burst;
  List.iteri
    (fun i expect ->
       match lb.recv_bytes () with
       | Some raw ->
         Alcotest.(check bool)
           (Printf.sprintf "burst frame %d" i)
           true
           (Bytes.equal raw expect)
       | None -> Alcotest.fail "burst frame missing")
    burst;
  la.close ();
  Alcotest.(check bool) "eof after close" true (lb.recv_bytes () = None);
  lb.close ()

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
  client_link.send_bytes (Bytes.of_string "ping");
  (match server_link.recv_bytes () with
   | Some b -> Alcotest.(check string) "ping" "ping" (Bytes.to_string b)
   | None -> Alcotest.fail "no frame");
  server_link.send_bytes (Bytes.of_string "pong");
  (match client_link.recv_bytes () with
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
    Alcotest.test_case "cluster: queue stats" `Quick test_cluster_queue_stats;
    Alcotest.test_case "cluster: n=5" `Quick test_cluster_n5_live;
    Alcotest.test_case "cluster: single node" `Quick test_cluster_single_node;
    Alcotest.test_case "cluster: null service burst" `Quick test_cluster_null_service_throughput_smoke;
    Alcotest.test_case "cluster: sender flushes counted" `Quick test_sender_flushes_counted;
    Alcotest.test_case "cluster: ephemeral stall no-op" `Quick test_ephemeral_stall_is_noop;
    Alcotest.test_case "cluster: autotune live" `Quick test_cluster_autotune_live;
  ]

(* The paper's §VI-B extension in the live runtime: several Batcher
   threads sharing the RequestQueue still yield a correct, converging
   cluster with unique batch ids. *)
let test_cluster_multi_batcher () =
  let cfg = test_cfg 3 in
  let hub = Transport.Hub.create ~n:3 () in
  let replicas =
    Array.init 3 (fun me ->
        let links =
          List.filter_map
            (fun peer ->
               if peer = me then None
               else Some (peer, Transport.Hub.link hub ~me ~peer))
            [ 0; 1; 2 ]
        in
        Replica.create ~batcher_threads:3 ~cfg ~me ~links
          ~service:(Service.accumulator ()) ())
  in
  Fun.protect
    ~finally:(fun () ->
        Array.iter Replica.stop replicas;
        Transport.Hub.close hub)
  @@ fun () ->
  await ~what:"leader" (fun () -> Array.exists Replica.is_leader replicas);
  let leader = Array.get replicas 0 in
  (* Concurrent clients exercise all three batchers. Each client has
     one request outstanding, the contract of [Replica.submit]: with
     several batchers a pipelined client's requests may be decided out
     of order, and the older ones are then dropped as stale. *)
  for c = 1 to 60 do
    let raw =
      Client_msg.request_to_bytes
        { id = { client_id = c; seq = 1 }; payload = Bytes.of_string "1" }
    in
    Replica.submit leader ~raw ~reply_to:ignore
  done;
  await ~what:"60 executions" (fun () -> Replica.executed_count leader = 60);
  await ~what:"replica convergence" (fun () ->
      Array.for_all (fun r -> Replica.executed_count r = 60) replicas);
  Array.iter
    (fun r -> Alcotest.(check int) "executed" 60 (Replica.executed_count r))
    replicas

(* ClientIO waits on its ingress alone; a reply handed over from another
   thread must wake it through the Kick. Delivering at varied moments
   around the worker's return to its park exercises the race between
   the worker lowering the Kick flag and a deliverer raising it. *)
let test_client_io_reply_wakes_worker () =
  let request_queue = Ch.create ~kind:Ch.Mpmc ~capacity:16 in
  let cio =
    Client_io.create ~pool_size:1 ~request_queue
      ~reply_cache:(Reply_cache.create ()) ()
  in
  Fun.protect ~finally:(fun () -> Client_io.stop cio) @@ fun () ->
  let box = Ch.create ~kind:Ch.Mpmc ~capacity:4 in
  for seq = 1 to 200 do
    let id = rid 1 seq in
    let raw = Client_msg.request_to_bytes { id; payload = Bytes.empty } in
    Client_io.submit cio ~raw ~reply_to:(fun b -> ignore (Ch.try_put box b));
    (* The worker has routed the client once its request is here. *)
    ignore (Ch.take request_queue);
    let deliverer =
      Thread.create
        (fun () ->
           if seq mod 2 = 0 then Mclock.sleep_s (float_of_int (seq mod 7) *. 1e-4);
           Client_io.deliver_reply cio { id; result = Bytes.empty })
        ()
    in
    (match Ch.take_timeout box ~timeout_s:0.1 with
     | Some _ -> ()
     | None -> Alcotest.failf "reply %d not delivered within 100 ms" seq);
    Thread.join deliverer
  done;
  Ch.close box

(* Timed parks hold a self-pipe per channel; stopping a cluster must
   release every one of them. *)
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
  @ [ Alcotest.test_case "cluster: multiple batcher threads" `Quick
        test_cluster_multi_batcher;
      Alcotest.test_case "client_io: reply wakes parked worker" `Quick
        test_client_io_reply_wakes_worker;
      Alcotest.test_case "cluster: timed-park fds released" `Quick
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
  let replies = Ch.create ~kind:Ch.Mpmc ~capacity:(n + 8) in
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
  let replies = Ch.create ~kind:Ch.Mpmc ~capacity:8 in
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

(* Kill the leader of a durable cluster through the fault controller,
   let the survivors elect, then restart the victim: the new incarnation
   re-enters WAL recovery and must catch back up to the live tail. The
   survivors' fault counters and the client's retry/redirect counters
   must all have registered the crash. *)
let test_fault_controller_kill_restart_durable () =
  let root, dirs = fresh_wal_dirs "fc" 3 in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let durability i =
    Replica.Durable { dir = dirs.(i); sync = Msmr_storage.Wal.No_sync }
  in
  with_cluster ~durability @@ fun cluster ->
  ignore (Replica.Cluster.await_leader cluster);
  let fc = Fault_controller.create ~cluster () in
  let client = Client.create ~timeout_s:0.3 ~cluster ~client_id:1 () in
  ignore (Client.call client (Bytes.of_string "10"));
  let victim = Fault_controller.kill_leader fc in
  Alcotest.(check int) "killed the initial leader" 0 victim;
  Alcotest.(check int) "one kill" 1 (Fault_controller.kills fc);
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
  let restarted = Fault_controller.restart fc victim in
  Alcotest.(check int) "one restart" 1 (Fault_controller.restarts fc);
  Alcotest.(check bool) "restart replaced the cluster slot" true
    ((Replica.Cluster.replicas cluster).(victim) == restarted);
  ignore (Client.call client (Bytes.of_string "3"));
  await ~timeout_s:10. ~what:"restarted replica catches up" (fun () ->
      Array.for_all
        (fun r -> Replica.executed_count r = 3)
        (Replica.Cluster.replicas cluster));
  Alcotest.(check string) "sum intact across crash+recovery" "18"
    (Bytes.to_string (Client.call client (Bytes.of_string "0")))

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
  let fc = Fault_controller.create ~cluster () in
  let client = Client.create ~timeout_s:0.5 ~cluster ~client_id:1 () in
  for _ = 1 to 30 do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  (* Learner only — state transfer starts, no voting rights yet. *)
  Fault_controller.join fc ~promote:false 3;
  Alcotest.(check int) "one join" 1 (Fault_controller.joins fc);
  (* Crash the joiner mid-transfer; the cluster must not notice: its
     quorums never included the learner. *)
  Fault_controller.kill fc 3;
  for _ = 1 to 10 do
    ignore (Client.call client (Bytes.of_string "1"))
  done;
  ignore (Fault_controller.restart fc 3);
  (* Completing the join is idempotent: the add_learner step is already
     adopted, so this waits out the (restarted) state transfer and
     promotes. *)
  Fault_controller.join fc 3;
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
  Fault_controller.decommission fc 3;
  Alcotest.(check int) "one decommission" 1 (Fault_controller.decommissions fc);
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
        `Quick test_fault_controller_kill_restart_durable;
      Alcotest.test_case "cluster: catchup under loss (live)" `Quick
        test_cluster_catchup_under_loss_live;
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
(* Multi-group Paxos: the router partition function and the sharded
   in-process cluster (Replica_group). *)

let test_router_partition () =
  let groups = 4 in
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun k ->
       let g = Router.group_of_key ~groups k in
       Alcotest.(check bool) "in range" true (g >= 0 && g < groups);
       Alcotest.(check int) "stable" g (Router.group_of_key ~groups k))
    keys;
  Alcotest.(check bool) "hash actually spreads keys" true
    (List.length
       (List.sort_uniq compare (List.map (Router.group_of_key ~groups) keys))
     > 1);
  Alcotest.(check int) "groups=1 degenerates to 0" 0
    (Router.group_of_key ~groups:1 "anything");
  Alcotest.(check int) "client partition is cid mod groups" 3
    (Router.group_of_client ~groups 7);
  Alcotest.(check bool) "groups < 1 rejected" true
    (try
       ignore (Router.group_of_key ~groups:0 "x");
       false
     with Invalid_argument _ -> true)

let test_router_targets () =
  let groups = 4 in
  let t c = Router.target_of_conflict ~groups ~fallback:9 c in
  Alcotest.(check bool) "Global stays Global" true
    (t Service.Global = Router.Global);
  Alcotest.(check bool) "no keys falls back to the client's group" true
    (t (Service.Keys []) = Router.Group (Router.group_of_client ~groups 9));
  let g_a = Router.group_of_key ~groups "a" in
  Alcotest.(check bool) "single key routes to its group" true
    (t (Service.Keys [ "a" ]) = Router.Group g_a);
  Alcotest.(check bool) "same-group key set stays grouped" true
    (t (Service.Keys [ "a"; "a" ]) = Router.Group g_a);
  (* A key set spanning two groups cannot be ordered by one log. *)
  let rec other_group i =
    let k = Printf.sprintf "probe-%d" i in
    if Router.group_of_key ~groups k <> g_a then k else other_group (i + 1)
  in
  Alcotest.(check bool) "spanning key set promoted to Global" true
    (t (Service.Keys [ "a"; other_group 0 ]) = Router.Global)

(* A keyed counter: payload "k:v" adds v to counter k (conflict class k)
   and replies with the new value; any other payload is Global and
   replies with the sum of this instance's counters. State is
   partitioned across groups, so a group's instance only ever holds its
   own partition's keys. *)
let keyed_counter () =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let parse payload =
    match String.index_opt payload ':' with
    | Some i ->
      Some
        ( String.sub payload 0 i,
          int_of_string
            (String.sub payload (i + 1) (String.length payload - i - 1)) )
    | None -> None
  in
  Service.make
    ~conflict_keys:(fun (req : Client_msg.request) ->
        match parse (Bytes.to_string req.payload) with
        | Some (k, _) -> Service.Keys [ k ]
        | None -> Service.Global)
    ~execute:(fun req ->
        match parse (Bytes.to_string req.payload) with
        | Some (k, v) ->
          let v' = Option.value (Hashtbl.find_opt tbl k) ~default:0 + v in
          Hashtbl.replace tbl k v';
          Bytes.of_string (string_of_int v')
        | None ->
          Bytes.of_string
            (string_of_int (Hashtbl.fold (fun _ v acc -> acc + v) tbl 0)))
    ~snapshot:(fun () ->
        Bytes.of_string
          (String.concat ";"
             (List.sort compare
                (Hashtbl.fold
                   (fun k v acc -> Printf.sprintf "%s:%d" k v :: acc)
                   tbl []))))
    ~restore:(fun b ->
        Hashtbl.reset tbl;
        List.iter
          (fun s ->
             match String.index_opt s ':' with
             | Some i ->
               Hashtbl.replace tbl (String.sub s 0 i)
                 (int_of_string
                    (String.sub s (i + 1) (String.length s - i - 1)))
             | None -> ())
          (String.split_on_char ';' (Bytes.to_string b)))
    ()

let with_group f =
  let rg =
    Replica_group.create ~groups:2 ~cfg:(test_cfg 3)
      ~service:(fun ~gid:_ -> keyed_counter ())
      ()
  in
  Fun.protect ~finally:(fun () -> Replica_group.stop rg) (fun () -> f rg)

let rg_call rg ~client_id ~seq payload =
  let raw =
    Client_msg.request_to_bytes
      { Client_msg.id = { client_id; seq }; payload = Bytes.of_string payload }
  in
  let box = Ch.create ~kind:Ch.Mpmc ~capacity:1 in
  Replica_group.submit rg ~raw ~reply_to:(fun b ->
      ignore (Ch.try_put box b));
  match Ch.take_timeout box ~timeout_s:5.0 with
  | Some raw -> Bytes.to_string (Client_msg.reply_of_bytes raw).result
  | None -> Alcotest.failf "no reply for %S" payload

(* A key guaranteed to route to group [g] of [groups]. *)
let key_in_group ~groups g =
  let rec go i =
    let k = Printf.sprintf "k%d-%d" g i in
    if Router.group_of_key ~groups k = g then k else go (i + 1)
  in
  go 0

let test_replica_group_partitions () =
  with_group @@ fun rg ->
  Replica_group.await_leaders rg;
  let k0 = key_in_group ~groups:2 0 and k1 = key_in_group ~groups:2 1 in
  (* Interleaved increments: each key's counter accumulates in order
     inside its own group's log, independent of the other group. *)
  Alcotest.(check string) "k0 first" "5"
    (rg_call rg ~client_id:1 ~seq:1 (k0 ^ ":5"));
  Alcotest.(check string) "k1 first" "7"
    (rg_call rg ~client_id:1 ~seq:2 (k1 ^ ":7"));
  Alcotest.(check string) "k0 second" "6"
    (rg_call rg ~client_id:1 ~seq:3 (k0 ^ ":1"));
  Alcotest.(check string) "k1 second" "9"
    (rg_call rg ~client_id:1 ~seq:4 (k1 ^ ":2"));
  Alcotest.(check int) "router counted every request" 4
    (Replica_group.routed_count rg);
  Alcotest.(check int) "no globals yet" 0 (Replica_group.globals_count rg);
  (* Each group ordered exactly its own partition. *)
  let executed gid =
    Replica.executed_count
      (Replica.Cluster.await_leader (Replica_group.cluster rg ~gid))
  in
  Alcotest.(check int) "group 0 executed its two" 2 (executed 0);
  Alcotest.(check int) "group 1 executed its two" 2 (executed 1);
  (* Group leadership is spread: group 1's initial leader is node 1. *)
  Alcotest.(check int) "group 1 led by node 1" 1
    (Replica.me (Replica.Cluster.await_leader (Replica_group.cluster rg ~gid:1)))

let test_replica_group_global_barrier () =
  with_group @@ fun rg ->
  Replica_group.await_leaders rg;
  let k0 = key_in_group ~groups:2 0 and k1 = key_in_group ~groups:2 1 in
  ignore (rg_call rg ~client_id:1 ~seq:1 (k0 ^ ":5"));
  ignore (rg_call rg ~client_id:1 ~seq:2 (k1 ^ ":7"));
  (* The Global executes through group 0's log after both groups have
     quiesced: its reply reflects group 0's partition of the state. *)
  Alcotest.(check string) "global sees group 0's partition" "5"
    (rg_call rg ~client_id:1 ~seq:3 "sum");
  Alcotest.(check int) "one barrier crossing" 1
    (Replica_group.globals_count rg);
  (* The gate reopened: keyed traffic flows again afterwards. *)
  Alcotest.(check string) "traffic resumes" "6"
    (rg_call rg ~client_id:1 ~seq:4 (k0 ^ ":1"))

let suite =
  suite
  @ [ Alcotest.test_case "router: key partition" `Quick test_router_partition;
      Alcotest.test_case "router: conflict targets" `Quick test_router_targets;
      Alcotest.test_case "replica group: partitions and replies" `Quick
        test_replica_group_partitions;
      Alcotest.test_case "replica group: cross-group Global barrier" `Quick
        test_replica_group_global_barrier ]

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
  let box = Ch.create ~kind:Ch.Mpmc ~capacity:1 in
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
  let replies = Ch.create ~kind:Ch.Mpmc ~capacity:4 in
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

let test_replica_group_reads () =
  let rg =
    Replica_group.create ~groups:2 ~cfg:(lease_test_cfg 3)
      ~service:(fun ~gid:_ -> keyed_counter ())
      ()
  in
  Fun.protect ~finally:(fun () -> Replica_group.stop rg) @@ fun () ->
  Replica_group.await_leaders rg;
  let k0 = key_in_group ~groups:2 0 and k1 = key_in_group ~groups:2 1 in
  ignore (rg_call rg ~client_id:1 ~seq:1 (k0 ^ ":5"));
  ignore (rg_call rg ~client_id:1 ~seq:2 (k1 ^ ":7"));
  (* Per-group leases: each group's leader holds its own. *)
  let leader gid =
    Replica.Cluster.await_leader (Replica_group.cluster rg ~gid)
  in
  await ~what:"group leases" (fun () ->
      Replica.lease_held (leader 0) && Replica.lease_held (leader 1));
  let read_key k =
    let raw =
      Client_msg.read_to_bytes
        { Client_msg.id = rid 2 1; staleness_ns = Client_msg.linearizable;
          payload = Bytes.of_string (k ^ ":0") }
    in
    let box = Ch.create ~kind:Ch.Mpmc ~capacity:1 in
    Replica_group.submit rg ~raw ~reply_to:(fun b ->
        ignore (Ch.try_put box b));
    match Ch.take_timeout box ~timeout_s:5.0 with
    | Some b ->
      (match (Client_msg.read_reply_of_bytes b).status with
       | Client_msg.Read_ok r -> Bytes.to_string r
       | _ -> Alcotest.failf "read of %S refused" k)
    | None -> Alcotest.failf "no read reply for %S" k
  in
  Alcotest.(check string) "group 0 read" "5" (read_key k0);
  Alcotest.(check string) "group 1 read" "7" (read_key k1);
  Alcotest.(check int) "router counted the reads" 2
    (Replica_group.reads_routed_count rg);
  Alcotest.(check int) "reads did not consume the write router count" 2
    (Replica_group.routed_count rg)

(* ------------------------------------------------------------------ *)
(* Speculative execution: reply-cache staging, the speculation ledger,
   model-checked confirm-vs-abort interleavings, and a live cluster
   running optimistically (DESIGN.md section 16). *)

let test_reply_cache_staging () =
  let rc = Reply_cache.create () in
  (* Staged replies are invisible to the dedup path: a retry of a
     speculated-but-unconfirmed request still reads Fresh. *)
  Reply_cache.stage rc (rid 1 1) (Bytes.of_string "spec");
  Alcotest.(check bool) "staged is not cached" true
    (Reply_cache.lookup rc (rid 1 1) = Fresh);
  Alcotest.(check bool) "staged is not executed" false
    (Reply_cache.already_executed rc (rid 1 1));
  Alcotest.(check int) "one staged" 1 (Reply_cache.staged_size rc);
  Alcotest.(check int) "none committed" 0 (Reply_cache.size rc);
  (match Reply_cache.peek rc (rid 1 1) with
   | Some b -> Alcotest.(check string) "peek" "spec" (Bytes.to_string b)
   | None -> Alcotest.fail "peek missed the staged reply");
  Alcotest.(check bool) "peek is seq-exact" true
    (Reply_cache.peek rc (rid 1 2) = None);
  (* Confirm promotes: only now does the reply become client-visible. *)
  (match Reply_cache.confirm rc (rid 1 1) with
   | Some b -> Alcotest.(check string) "confirmed" "spec" (Bytes.to_string b)
   | None -> Alcotest.fail "confirm missed the staged reply");
  (match Reply_cache.lookup rc (rid 1 1) with
   | Cached b -> Alcotest.(check string) "now cached" "spec" (Bytes.to_string b)
   | _ -> Alcotest.fail "confirmed reply not cached");
  Alcotest.(check int) "staging emptied" 0 (Reply_cache.staged_size rc);
  Alcotest.(check int) "one committed" 1 (Reply_cache.size rc);
  (* Aborted speculation leaves no dedup residue: the same request takes
     the ordered path as if never speculated. *)
  Reply_cache.stage rc (rid 2 5) (Bytes.of_string "ghost");
  Reply_cache.unstage rc (rid 2 5);
  Alcotest.(check int) "unstaged" 0 (Reply_cache.staged_size rc);
  Alcotest.(check bool) "no residue: still fresh" true
    (Reply_cache.lookup rc (rid 2 5) = Fresh);
  Alcotest.(check bool) "no residue: not executed" false
    (Reply_cache.already_executed rc (rid 2 5));
  Alcotest.(check int) "committed untouched" 1 (Reply_cache.size rc);
  Alcotest.(check bool) "confirm of nothing falls through" true
    (Reply_cache.confirm rc (rid 2 5) = None);
  (* Clients are sequential: a newer stage overwrites, and a confirm for
     the stale seq must miss rather than promote the wrong reply. *)
  Reply_cache.stage rc (rid 3 1) (Bytes.of_string "a");
  Reply_cache.stage rc (rid 3 2) (Bytes.of_string "b");
  Alcotest.(check int) "one staged per client" 1 (Reply_cache.staged_size rc);
  Alcotest.(check bool) "stale-seq confirm misses" true
    (Reply_cache.confirm rc (rid 3 1) = None);
  (match Reply_cache.confirm rc (rid 3 2) with
   | Some b -> Alcotest.(check string) "newest wins" "b" (Bytes.to_string b)
   | None -> Alcotest.fail "newest staged reply lost")

let test_spec_ledger_semantics () =
  let led = Spec_ledger.create () in
  let admit id key =
    Spec_ledger.admit led id ~key ~lane:0 ~now_ns:0L
  in
  let f1 = Option.get (admit (rid 1 1) "k") in
  let f2 = Option.get (admit (rid 2 1) "k") in
  let f3 = Option.get (admit (rid 3 1) "other") in
  Alcotest.(check bool) "client with an open frame is refused" true
    (admit (rid 1 2) "k" = None);
  Alcotest.(check int) "three unresolved" 3 (Spec_ledger.unresolved led);
  Alcotest.(check bool) "effects pending" true (Spec_ledger.effects_pending led);
  (* Decides matching the predicted (admit) order confirm in turn. *)
  (match Spec_ledger.on_decide led (rid 1 1) ~key:"k" with
   | Confirm f -> Alcotest.(check int) "head confirms" 1 f.f_id.client_id
   | _ -> Alcotest.fail "expected Confirm for the predicted head");
  Spec_ledger.settled led f1;
  (* A decide diverging from the prediction rolls the whole key back,
     newest-first, and leaves the other key's frame alone. *)
  ignore (Option.get (admit (rid 4 1) "k"));
  (match Spec_ledger.on_decide led (rid 4 1) ~key:"k" with
   | Mispredict frames ->
     Alcotest.(check (list int)) "aborts newest-first" [ 4; 2 ]
       (List.map (fun f -> f.Spec_ledger.f_id.client_id) frames);
     List.iter (Spec_ledger.settled led) frames
   | _ -> Alcotest.fail "expected Mispredict on reordered decide");
  ignore f2;
  Alcotest.(check bool) "unspeculated key reports no frame" true
    (Spec_ledger.on_decide led (rid 9 1) ~key:"k" = No_frame);
  Alcotest.(check int) "other key untouched" 1 (Spec_ledger.unresolved led);
  (* abort_all (view change / snapshot / read) drains everything. *)
  let aborted = Spec_ledger.abort_all led in
  Alcotest.(check (list int)) "abort_all returns the rest" [ 3 ]
    (List.map (fun f -> f.Spec_ledger.f_id.client_id) aborted);
  Alcotest.(check int) "none unresolved" 0 (Spec_ledger.unresolved led);
  Alcotest.(check bool) "effects still pending until settled" true
    (Spec_ledger.effects_pending led);
  Spec_ledger.settled led f3;
  Alcotest.(check bool) "all effects settled" false
    (Spec_ledger.effects_pending led)

(* Model-checked confirm path: the decide matches the prediction, the
   executor promotes the staged effect, and the effects gate (the read /
   snapshot quiesce condition) only clears once the effect is settled —
   under every interleaving of scheduler, executor and a reader. *)
let test_mc_spec_confirm () =
  let runs, complete =
    Interleave.explore (fun () ->
        let module A = Interleave.Traced_atomic in
        let led = Spec_ledger.create () in
        let reg = A.make 0 in
        let f1 =
          Option.get (Spec_ledger.admit led (rid 1 1) ~key:"k" ~lane:0 ~now_ns:0L)
        in
        (* The lane FIFO: work items drain in push order, exactly the
           per-lane order the executor rings guarantee. *)
        let lane = Queue.create () in
        Queue.push (`Spec (f1, 101)) lane;
        let scheduler () =
          match Spec_ledger.on_decide led (rid 1 1) ~key:"k" with
          | Confirm f -> Queue.push (`Confirm f) lane
          | _ -> Alcotest.fail "expected Confirm for the predicted order"
        in
        let process = function
          | `Spec (f, v) ->
            let prev = A.get reg in
            A.set reg v;
            Atomic.set f.Spec_ledger.f_undo (Some (fun () -> A.set reg prev))
          | `Confirm f -> Spec_ledger.settled led f
        in
        (* Bounded passes, never a wait: a pass that finds the lane empty
           just yields (unbounded spinning would make the schedule tree
           infinite). [check] drains whatever the executor missed. *)
        let executor () =
          for _ = 1 to 3 do
            match Queue.take_opt lane with
            | None -> ignore (A.get reg)
            | Some item -> process item
          done
        in
        let reader () =
          for _ = 1 to 2 do
            let pending = Spec_ledger.effects_pending led in
            let v = A.get reg in
            if (not pending) && v <> 101 then
              Alcotest.failf "effects-settled read saw %d, not the confirmed 101"
                v
          done
        in
        let check () =
          let rec drain () =
            match Queue.take_opt lane with
            | None -> ()
            | Some item ->
              process item;
              drain ()
          in
          drain ();
          if A.get reg <> 101 then
            Alcotest.failf "final state %d <> 101" (A.get reg);
          if Spec_ledger.effects_pending led then
            Alcotest.fail "effects never settled";
          if Spec_ledger.unresolved led <> 0 then
            Alcotest.fail "frame left unresolved"
        in
        ([ scheduler; executor; reader ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) (Printf.sprintf "explored %d schedules" runs) true
    (runs > 1)

(* Model-checked rollback path: the decide order diverges from the
   prediction, so both frames on the key must abort — undos applied
   newest-first through the lane FIFO — before the ordered re-executions
   land. A reader behind the effects gate must never observe a
   speculative value, and every interleaving must end in the ordered
   result. *)
let test_mc_spec_rollback () =
  let runs, complete =
    Interleave.explore (fun () ->
        let module A = Interleave.Traced_atomic in
        let led = Spec_ledger.create () in
        let reg = A.make 0 in
        let admit id = Spec_ledger.admit led id ~key:"k" ~lane:0 ~now_ns:0L in
        (* Predicted order: client 1 then client 2, both writing "k". *)
        let f1 = Option.get (admit (rid 1 1)) in
        let f2 = Option.get (admit (rid 2 1)) in
        let lane = Queue.create () in
        Queue.push (`Spec (f1, 101)) lane;
        Queue.push (`Spec (f2, 102)) lane;
        let scheduler () =
          (* The decide stream arrives client 2 first: mispredict. *)
          (match Spec_ledger.on_decide led (rid 2 1) ~key:"k" with
           | Mispredict frames ->
             if
               List.map (fun f -> f.Spec_ledger.f_id.client_id) frames
               <> [ 2; 1 ]
             then Alcotest.fail "aborts not newest-first";
             List.iter (fun f -> Queue.push (`Abort f) lane) frames
           | _ -> Alcotest.fail "expected Mispredict on reordered decide");
          Queue.push (`Exec 202) lane;
          (match Spec_ledger.on_decide led (rid 1 1) ~key:"k" with
           | No_frame -> ()
           | _ -> Alcotest.fail "frame survived the rollback");
          Queue.push (`Exec 201) lane
        in
        let process = function
          | `Spec (f, v) ->
            let prev = A.get reg in
            A.set reg v;
            Atomic.set f.Spec_ledger.f_undo (Some (fun () -> A.set reg prev))
          | `Abort f ->
            (match Atomic.get f.Spec_ledger.f_undo with
             | Some undo -> undo ()
             | None ->
               (* The lane FIFO put the speculation before its abort. *)
               Alcotest.fail "abort overtook the speculative execution");
            Spec_ledger.settled led f
          | `Exec v -> A.set reg v
        in
        (* Bounded passes (see the confirm test): an empty pass yields,
           [check] drains the remainder. *)
        let executor () =
          for _ = 1 to 6 do
            match Queue.take_opt lane with
            | None -> ignore (A.get reg)
            | Some item -> process item
          done
        in
        let reader () =
          for _ = 1 to 2 do
            let pending = Spec_ledger.effects_pending led in
            let v = A.get reg in
            if (not pending) && (v = 101 || v = 102) then
              Alcotest.failf "effects-settled read saw speculative value %d" v
          done
        in
        let check () =
          let rec drain () =
            match Queue.take_opt lane with
            | None -> ()
            | Some item ->
              process item;
              drain ()
          in
          drain ();
          if A.get reg <> 201 then
            Alcotest.failf "final state %d <> ordered result 201" (A.get reg);
          if Spec_ledger.effects_pending led then
            Alcotest.fail "effects never settled";
          if Spec_ledger.unresolved led <> 0 then
            Alcotest.fail "frames left unresolved"
        in
        ([ scheduler; executor; reader ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) (Printf.sprintf "explored %d schedules" runs) true
    (runs > 1)

let test_cluster_speculative_kv () =
  (* The live optimistic path end to end: a cluster with speculation on,
     a 4-executor pool and the KV service (which implements
     execute_undo). Replies must be exactly the sequential KV semantics,
     the leader must actually have speculated, and a duplicate of a
     speculated write must replay the cached reply, not re-execute. *)
  let module Kv = Msmr_kv.Kv_service in
  let cfg = { (test_cfg 3) with Config.speculate = true } in
  with_cluster ~executor_threads:4 ~cfg ~service:Kv.make @@ fun cluster ->
  let leader = Replica.Cluster.await_leader cluster in
  let client = Client.create ~cluster ~client_id:1 () in
  let call cmd = Kv.decode_reply (Client.call client (Kv.encode_command cmd)) in
  Alcotest.(check bool) "put" true
    (call (Kv.Put { key = "a"; value = "1"; ephemeral = false }) = Kv.Ok_unit);
  for i = 1 to 30 do
    Alcotest.(check bool)
      (Printf.sprintf "incr %d" i)
      true
      (call (Kv.Incr { key = "a"; by = 1 }) = Kv.Ok_int (1 + i))
  done;
  Alcotest.(check bool) "final value" true
    (call (Kv.Get "a") = Kv.Ok_value (Some "31"));
  Alcotest.(check bool)
    (Printf.sprintf "speculations dispatched (%d)"
       (Replica.spec_dispatched_count leader))
    true
    (Replica.spec_dispatched_count leader > 0);
  Alcotest.(check bool)
    (Printf.sprintf "speculations confirmed (%d)"
       (Replica.spec_confirmed_count leader))
    true
    (Replica.spec_confirmed_count leader > 0);
  (* At-most-once survives speculation: the duplicate replays the cached
     reply (a re-execution would answer 10, not 5). *)
  let raw =
    Client_msg.request_to_bytes
      { Client_msg.id = rid 9 1;
        payload = Kv.encode_command (Kv.Incr { key = "d"; by = 5 }) }
  in
  let box = Ch.create ~kind:Ch.Mpmc ~capacity:2 in
  let sink b = ignore (Ch.try_put box b) in
  Replica.submit leader ~raw ~reply_to:sink;
  (match Ch.take_timeout box ~timeout_s:5.0 with
   | Some b ->
     Alcotest.(check bool) "first execution" true
       (Kv.decode_reply (Client_msg.reply_of_bytes b).result = Kv.Ok_int 5)
   | None -> Alcotest.fail "no reply to the write");
  Replica.submit leader ~raw ~reply_to:sink;
  (match Ch.take_timeout box ~timeout_s:5.0 with
   | Some b ->
     Alcotest.(check bool) "duplicate replays the cached reply" true
       (Kv.decode_reply (Client_msg.reply_of_bytes b).result = Kv.Ok_int 5)
   | None -> Alcotest.fail "no reply to the duplicate");
  (* Every replica converges on the same sequential history. *)
  let replicas = Replica.Cluster.replicas cluster in
  await ~what:"replicas converging" (fun () ->
      Array.for_all
        (fun r -> Replica.executed_count r = Replica.executed_count leader)
        replicas)

let suite =
  suite
  @ [ Alcotest.test_case "reply cache: staged replies stay invisible" `Quick
        test_reply_cache_staging;
      Alcotest.test_case "spec ledger: admit/confirm/mispredict" `Quick
        test_spec_ledger_semantics;
      Alcotest.test_case "spec ledger: model-checked confirm" `Quick
        test_mc_spec_confirm;
      Alcotest.test_case "spec ledger: model-checked rollback" `Quick
        test_mc_spec_rollback;
      Alcotest.test_case "speculation: live KV cluster" `Quick
        test_cluster_speculative_kv ]

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
        test_read_storm_keeps_reply_cache;
      Alcotest.test_case "replica group: per-group lease reads" `Quick
        test_replica_group_reads ]
