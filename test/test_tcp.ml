(* TCP deployment path: Tcp_mesh + Client_server, a full 3-replica
   cluster over real loopback sockets driven by a framed TCP client. *)

module R = Msmr_runtime
module Client_msg = Msmr_wire.Client_msg

let free_ports k =
  (* Bind ephemeral listeners to reserve distinct ports, then release. *)
  let socks =
    List.init k (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
         match Unix.getsockname fd with
         | Unix.ADDR_INET (_, p) -> p
         | Unix.ADDR_UNIX _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  ports

(* A link's frames, collected in arrival order for a test to take. *)
let inbox (link : R.Transport.link) =
  let module Ch = Msmr_platform.Channel in
  let q = Ch.create ~name:"test_inbox" ~kind:Ch.Mpmc ~capacity:1024 in
  link.on_receive (fun b -> ignore (Ch.try_put q b));
  fun ?(timeout_s = 5.0) () -> Ch.take_timeout q ~timeout_s

let send (link : R.Transport.link) s = ignore (link.send (Bytes.of_string s))

(* One mesh per node, built concurrently: [Tcp_mesh.create] blocks until
   the full mesh is up. *)
let create_meshes addrs =
  let meshes = Array.make (List.length addrs) None in
  List.iter Thread.join
    (List.map
       (fun (me, _) ->
          Thread.create
            (fun () -> meshes.(me) <- Some (R.Tcp_mesh.create ~me ~addrs ()))
            ())
       addrs);
  Array.map Option.get meshes

let test_tcp_cluster_end_to_end () =
  let n = 3 in
  let ports = free_ports n in
  let addrs =
    List.mapi
      (fun i p -> (i, Unix.ADDR_INET (Unix.inet_addr_loopback, p)))
      ports
  in
  let cfg =
    { (Msmr_consensus.Config.default ~n) with max_batch_delay_s = 0.004 }
  in
  let meshes = create_meshes addrs in
  let links = Array.map R.Tcp_mesh.links meshes in
  Array.iteri
    (fun me ls ->
       Alcotest.(check int)
         (Printf.sprintf "node %d link count" me)
         (n - 1) (List.length ls))
    links;
  let replicas =
    Array.init n (fun me ->
        R.Replica.create ~cfg ~me ~links:links.(me)
          ~service:(R.Service.accumulator ()) ())
  in
  let servers =
    Array.map (fun r -> R.Client_server.start r ~port:0) replicas
  in
  Fun.protect
    ~finally:(fun () ->
        Array.iter R.Client_server.stop servers;
        Array.iter R.Replica.stop replicas;
        Array.iter R.Tcp_mesh.close meshes)
  @@ fun () ->
  (* Wait for the leader. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (Array.exists R.Replica.is_leader replicas))
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Alcotest.(check bool) "leader elected" true
    (Array.exists R.Replica.is_leader replicas);
  (* Framed TCP client against the leader's client port. *)
  let leader_idx = ref 0 in
  Array.iteri (fun i r -> if R.Replica.is_leader r then leader_idx := i) replicas;
  let port = R.Client_server.port servers.(!leader_idx) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let call seq payload =
    let req =
      { Client_msg.id = { client_id = 77; seq }; payload = Bytes.of_string payload }
    in
    Msmr_wire.Frame.write fd (Client_msg.request_to_bytes req);
    match Msmr_wire.Frame.read fd with
    | Some raw ->
      let reply = Client_msg.reply_of_bytes raw in
      Alcotest.(check int) "seq echo" seq reply.id.seq;
      Bytes.to_string reply.result
    | None -> Alcotest.fail "connection closed"
  in
  Alcotest.(check string) "first call" "30" (call 1 "30");
  Alcotest.(check string) "second call" "42" (call 2 "12");
  Unix.close fd;
  (* Replicas converge. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (Array.for_all (fun r -> R.Replica.executed_count r = 2) replicas))
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Array.iter
    (fun r ->
       Alcotest.(check int) "executed everywhere" 2 (R.Replica.executed_count r))
    replicas

let suite =
  [ Alcotest.test_case "tcp: 3-replica cluster end-to-end" `Quick
      test_tcp_cluster_end_to_end ]

let tcp_cfg =
  { (Msmr_consensus.Config.default ~n:3) with max_batch_delay_s = 0.004 }

(* Failure detection fast enough for a test to watch a failover. *)
let fast_fd_cfg = { tcp_cfg with fd_interval_s = 0.04; fd_timeout_s = 0.2 }

(* A 3-replica accumulator cluster over Tcp_mesh + Client_server, with
   a leader elected; [f] gets the replicas and their client servers. *)
let with_tcp_cluster ?(service = R.Service.accumulator) ~cfg f =
  let n = cfg.Msmr_consensus.Config.n in
  let ports = free_ports n in
  let addrs =
    List.mapi
      (fun i p -> (i, Unix.ADDR_INET (Unix.inet_addr_loopback, p)))
      ports
  in
  let meshes = create_meshes addrs in
  let links = Array.map R.Tcp_mesh.links meshes in
  let replicas =
    Array.init n (fun me ->
        R.Replica.create ~cfg ~me ~links:links.(me) ~service:(service ()) ())
  in
  let servers =
    Array.map (fun r -> R.Client_server.start r ~port:0) replicas
  in
  Fun.protect
    ~finally:(fun () ->
        Array.iter R.Client_server.stop servers;
        Array.iter R.Replica.stop replicas;
        Array.iter R.Tcp_mesh.close meshes)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (Array.exists R.Replica.is_leader replicas))
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  f replicas servers

let client_addr server =
  Unix.ADDR_INET (Unix.inet_addr_loopback, R.Client_server.port server)

(* Client.connect against a live cluster, including failover. *)
let test_tcp_client_failover () =
  with_tcp_cluster ~cfg:fast_fd_cfg @@ fun replicas servers ->
  let client_addrs = Array.to_list (Array.map client_addr servers) in
  let client =
    R.Client.connect ~timeout_s:0.4 ~addrs:client_addrs ~client_id:55 ()
  in
  Fun.protect ~finally:(fun () -> R.Client.close client) @@ fun () ->
  Alcotest.(check string) "first" "7"
    (Bytes.to_string (R.Client.call client (Bytes.of_string "7")));
  (* Kill the leader's client server AND its replica: the client must
     rotate to a follower, and the cluster must elect a new leader. *)
  let leader_idx = ref 0 in
  Array.iteri (fun i r -> if R.Replica.is_leader r then leader_idx := i) replicas;
  R.Client_server.stop servers.(!leader_idx);
  R.Replica.stop replicas.(!leader_idx);
  Alcotest.(check string) "after failover" "12"
    (Bytes.to_string (R.Client.call client (Bytes.of_string "5")));
  Alcotest.(check bool) "client rotated" true (R.Client.retries client >= 1)

(* Self-healing mesh: when one endpoint's process "dies" (its whole mesh
   closes) and later comes back on the same address, the survivor's
   dialer re-establishes the connection under the same facade link —
   traffic resumes without the caller rebuilding anything, and the
   reconnect is counted. *)
let test_tcp_mesh_reconnect () =
  let ports = free_ports 2 in
  let addrs =
    List.mapi
      (fun i p -> (i, Unix.ADDR_INET (Unix.inet_addr_loopback, p)))
      ports
  in
  let meshes = create_meshes addrs in
  let m0 = meshes.(0) and m1 = meshes.(1) in
  let l10 = List.assoc 0 (R.Tcp_mesh.links m1) in
  (* The handler keeps node 1's reader running, so the dead connection
     is noticed and the dialer re-arms. *)
  let recv10 = inbox l10 in
  send (List.assoc 1 (R.Tcp_mesh.links m0)) "before";
  (match recv10 () with
   | Some b -> Alcotest.(check string) "before crash" "before" (Bytes.to_string b)
   | None -> Alcotest.fail "expected frame before crash");
  (* Node 0 crashes: its listener and connections all go away. *)
  R.Tcp_mesh.close m0;
  (* Node 0 comes back on the same address; create blocks until node 1's
     dialer has found it again. *)
  let m0' = R.Tcp_mesh.create ~me:0 ~addrs () in
  Fun.protect
    ~finally:(fun () ->
        R.Tcp_mesh.close m0';
        R.Tcp_mesh.close m1)
  @@ fun () ->
  send (List.assoc 1 (R.Tcp_mesh.links m0')) "after";
  (match recv10 () with
   | Some b -> Alcotest.(check string) "after reconnect" "after" (Bytes.to_string b)
   | None -> Alcotest.fail "facade stopped delivering instead of reconnecting");
  Alcotest.(check bool) "survivor counted the reconnect" true
    (R.Tcp_mesh.reconnects m1 >= 1);
  Alcotest.(check int) "fresh mesh counts no reconnect" 0
    (R.Tcp_mesh.reconnects m0')

(* Online membership change at the mesh layer: a two-node mesh splices a
   third peer in mid-run (add_peer on both sides, same dial-direction
   rule as boot), retires it (remove_peer: facade reads end, sends
   drop), and re-admits it over the same slot. Sends before a link is up
   drop by design (the retransmitter covers them in a replica), so the
   test pumps frames until one lands. *)
let test_tcp_mesh_add_remove_peer () =
  let ports = free_ports 3 in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, List.nth ports i) in
  let base_addrs = [ (0, addr 0); (1, addr 1) ] in
  let meshes = create_meshes base_addrs in
  let m0 = meshes.(0) and m1 = meshes.(1) in
  (* Node 2 boots alone (its address set is just itself), then dials the
     existing members; they splice its slot in on their side. *)
  let m2 = R.Tcp_mesh.create ~me:2 ~addrs:[ (2, addr 2) ] () in
  Fun.protect
    ~finally:(fun () ->
        R.Tcp_mesh.close m2;
        R.Tcp_mesh.close m1;
        R.Tcp_mesh.close m0)
  @@ fun () ->
  let l02 = R.Tcp_mesh.add_peer m0 ~peer:2 ~addr:(addr 2) in
  (* 2 > 0, so node 2's dialer initiates; node 0's acceptor splices. *)
  let l20 = R.Tcp_mesh.add_peer m2 ~peer:0 ~addr:(addr 0) in
  let recv02 = inbox l02 and recv20 = inbox l20 in
  (* Pump until the dial lands. *)
  let rec pump_up n =
    if n = 0 then Alcotest.fail "join up: no frame arrived"
    else
      match recv02 ~timeout_s:0.02 () with
      | Some b -> b
      | None ->
        send l20 "hello-up";
        pump_up (n - 1)
  in
  Alcotest.(check string) "joiner's frame arrives" "hello-up"
    (Bytes.to_string (pump_up 400));
  (* Reverse direction over the now-established pair. *)
  send l02 "hello-down";
  (match recv20 () with
   | Some b ->
     Alcotest.(check string) "reverse frame arrives" "hello-down"
       (Bytes.to_string b)
   | None -> Alcotest.fail "join down: no frame arrived");
  (* Spare pumped frames may still be arriving. *)
  while recv02 ~timeout_s:0.1 () <> None do () done;
  (* Decommission: node 0 retires the slot; its handler receives nothing
     more and its sends drop. *)
  R.Tcp_mesh.remove_peer m0 ~peer:2;
  send l20 "after-removal";
  Alcotest.(check bool) "retired facade receives nothing" true
    (recv02 ~timeout_s:0.2 () = None);
  send l02 "dropped";
  (* Re-admission over the same slot: node 2's dialer keeps redialing,
     node 0 reopens with add_peer and the pair comes back under the same
     facade and handler. *)
  let l02' = R.Tcp_mesh.add_peer m0 ~peer:2 ~addr:(addr 2) in
  Alcotest.(check bool) "same facade" true (l02' == l02);
  let rec pump_back n =
    if n > 0 then
      match recv02 ~timeout_s:0.05 () with
      | Some b when Bytes.to_string b = "rejoin" -> Some b
      | Some _ | None ->
        send l20 "rejoin";
        pump_back (n - 1)
    else None
  in
  (match pump_back 200 with
   | Some b ->
     Alcotest.(check string) "re-admitted link carries traffic" "rejoin"
       (Bytes.to_string b)
   | None -> Alcotest.fail "re-admission: no frame arrived");
  Alcotest.(check int) "mesh 1 untouched" 0 (R.Tcp_mesh.reconnects m1)

(* Client endpoint refresh on membership change: the client keeps its
   connection when its current target survives the update in place, and
   re-targets (then steers back to the leader by rotation) when the set
   changes under it. *)
let test_tcp_client_update_addrs () =
  with_tcp_cluster ~cfg:tcp_cfg @@ fun _replicas servers ->
  let caddr i = client_addr servers.(i) in
  (* Node 0 leads view 0; the client starts knowing only the leader. *)
  let client =
    R.Client.connect ~timeout_s:0.4 ~addrs:[ caddr 0 ] ~client_id:66 ()
  in
  Fun.protect ~finally:(fun () -> R.Client.close client) @@ fun () ->
  Alcotest.(check string) "call before refresh" "4"
    (Bytes.to_string (R.Client.call client (Bytes.of_string "4")));
  (* Same target at the same index: the connection survives the
     refresh, no rotation happens. *)
  let before = R.Client.redirects client in
  R.Client.update_addrs client [ caddr 0; caddr 1 ];
  Alcotest.(check string) "call after compatible refresh" "9"
    (Bytes.to_string (R.Client.call client (Bytes.of_string "5")));
  Alcotest.(check int) "no rotation for a kept connection" before
    (R.Client.redirects client);
  (* Membership changed under the client: the set is reordered, so it
     disconnects, re-targets from the head (a follower), and must rotate
     back to the leader to complete the call. *)
  R.Client.update_addrs client [ caddr 1; caddr 0 ];
  Alcotest.(check string) "call after disruptive refresh" "12"
    (Bytes.to_string (R.Client.call client (Bytes.of_string "3")));
  Alcotest.(check bool) "rotated off the follower" true
    (R.Client.redirects client > before);
  Alcotest.check_raises "empty endpoint set rejected"
    (Invalid_argument "Client.update_addrs: no addresses") (fun () ->
        R.Client.update_addrs client [])

let suite =
  suite
  @ [ Alcotest.test_case "tcp: client failover" `Quick test_tcp_client_failover;
      Alcotest.test_case "tcp: mesh reconnects after peer restart" `Quick
        test_tcp_mesh_reconnect;
      Alcotest.test_case "tcp: mesh add/remove peer (membership)" `Quick
        test_tcp_mesh_add_remove_peer;
      Alcotest.test_case "tcp: client endpoint refresh (membership)" `Quick
        test_tcp_client_update_addrs ]

(* The lease read path over TCP: linearizable and bounded-staleness
   reads, and a linearizable read that lands on a follower first. *)
let test_tcp_client_reads () =
  let cfg =
    { fast_fd_cfg with
      lease_enabled = true; lease_duration_s = 0.4; clock_skew_bound_s = 0.02 }
  in
  with_tcp_cluster ~cfg @@ fun replicas servers ->
  let caddr i = client_addr servers.(i) in
  let client =
    R.Client.connect ~timeout_s:0.4 ~addrs:[ caddr 0; caddr 1; caddr 2 ]
      ~client_id:77 ()
  in
  Fun.protect ~finally:(fun () -> R.Client.close client) @@ fun () ->
  Alcotest.(check string) "write" "7"
    (Bytes.to_string (R.Client.call client (Bytes.of_string "7")));
  (* An accumulator read is an add of 0: returns the state, mutates
     nothing. *)
  Alcotest.(check string) "linearizable read" "7"
    (Bytes.to_string (R.Client.read client (Bytes.of_string "0")));
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (Array.for_all (fun r -> R.Replica.executed_count r = 1) replicas))
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Alcotest.(check string) "stale read" "7"
    (Bytes.to_string
       (R.Client.read_stale client ~staleness_s:5.0 (Bytes.of_string "0")));
  (* Node 0 leads view 0. With node 2 first, the read starts at a
     follower, which answers [Not_leaseholder]; the client moves on until
     the leaseholder serves it. *)
  let rotated =
    R.Client.connect ~timeout_s:0.4 ~addrs:[ caddr 2; caddr 0; caddr 1 ]
      ~client_id:78 ()
  in
  Fun.protect ~finally:(fun () -> R.Client.close rotated) @@ fun () ->
  Alcotest.(check string) "read from a follower first" "7"
    (Bytes.to_string (R.Client.read rotated (Bytes.of_string "0")));
  Alcotest.(check bool) "redirect taken" true
    (R.Client.read_redirects rotated >= 1)

let suite =
  suite
  @ [ Alcotest.test_case "tcp: client reads (lease fast path)" `Quick
        test_tcp_client_reads ]

(* The mesh hello is the dialer's node id alone. A frame of any other
   shape, such as a hello that also carries a group id, closes that one
   connection, and the acceptor stays up for the real peer. *)
let test_tcp_mesh_rejects_malformed_hello () =
  let ports = free_ports 2 in
  let addrs =
    List.mapi
      (fun i p -> (i, Unix.ADDR_INET (Unix.inet_addr_loopback, p)))
      ports
  in
  let m0 = ref None in
  let boot0 =
    Thread.create
      (fun () -> m0 := Some (R.Tcp_mesh.create ~connect_timeout_s:10. ~me:0 ~addrs ()))
      ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let rec connect tries =
    match Unix.connect fd (List.assoc 0 addrs) with
    | () -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
      Thread.delay 0.02;
      connect (tries - 1)
  in
  connect 100;
  let hello = Msmr_wire.Codec.W.create ~initial:8 () in
  Msmr_wire.Codec.W.i32 hello 1;
  Msmr_wire.Codec.W.i32 hello 0;
  Msmr_wire.Frame.write fd (Msmr_wire.Codec.W.contents hello);
  let closed =
    match Unix.select [ fd ] [] [] 5.0 with
    | [], _, _ -> false
    | _ -> (
        match Msmr_wire.Frame.read fd with
        | None -> true
        | Some _ | (exception _) -> false)
  in
  Unix.close fd;
  Alcotest.(check bool) "malformed hello's connection closed" true closed;
  let m1 = R.Tcp_mesh.create ~connect_timeout_s:10. ~me:1 ~addrs () in
  Thread.join boot0;
  let m0 = Option.get !m0 in
  Fun.protect
    ~finally:(fun () ->
        R.Tcp_mesh.close m0;
        R.Tcp_mesh.close m1)
  @@ fun () ->
  let recv = inbox (List.assoc 0 (R.Tcp_mesh.links m1)) in
  send (List.assoc 1 (R.Tcp_mesh.links m0)) "hi";
  match recv () with
  | Some b -> Alcotest.(check string) "real peer linked" "hi" (Bytes.to_string b)
  | None -> Alcotest.fail "no frame from node 0"

let suite =
  suite
  @ [ Alcotest.test_case "tcp: mesh rejects a malformed hello" `Quick
        test_tcp_mesh_rejects_malformed_hello ]

(* Polls [cond] every 5 ms; fails the test after [timeout_s]. *)
let await ?(timeout_s = 5.0) ~what cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let dial server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (client_addr server);
  fd

(* The next frame on [fd] within [timeout_s]; [None] on EOF. *)
let read_within ~what ~timeout_s fd =
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> Alcotest.failf "%s: nothing within %.1f s" what timeout_s
  | _ -> Msmr_wire.Frame.read fd

let write_req fd ~client_id ~seq =
  Msmr_wire.Frame.write fd
    (Client_msg.request_to_bytes
       { id = { client_id; seq }; payload = Bytes.of_string "1" })

(* A client that stops reading holds up only its own connection.
   Socket A sends requests for clients 3, 6, 9, 15, ... (multiples of 3
   but 12) and never reads their 64 KiB replies. Its receive buffer is
   shrunk, so the first 200 replies (12.5 MiB) are more than the
   sockets hold and the connection stalls; they are fewer than the
   sockets plus the connection's 256-reply outbox, so it stays open.
   Meanwhile client 12, on connection B, gets a write and a lease read
   answered within 1 s, the write still on the scheduler's idle path.
   Further requests on A pass the outbox bound and the server closes A.
   (A pool of three ClientIO threads would put clients 3, 6, ... and 12
   on one thread, blocked in A's write.) *)
let test_tcp_stalled_reader_spares_others () =
  let cfg =
    { tcp_cfg with
      lease_enabled = true; lease_duration_s = 0.4; clock_skew_bound_s = 0.02 }
  in
  with_tcp_cluster ~cfg ~service:(fun () -> R.Service.null ~reply_size:65536 ())
  @@ fun replicas servers ->
  let leader_idx = ref 0 in
  Array.iteri (fun i r -> if R.Replica.is_leader r then leader_idx := i) replicas;
  let leader = replicas.(!leader_idx) and server = servers.(!leader_idx) in
  await ~what:"the leader's lease" (fun () -> R.Replica.lease_held leader);
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
  Unix.connect a (client_addr server);
  let b = dial server in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let a_client i = 3 * if i < 4 then i else i + 1 in
  let stalled = 200 in
  for i = 1 to stalled do write_req a ~client_id:(a_client i) ~seq:1 done;
  await ~timeout_s:10.0 ~what:"A's requests executed" (fun () ->
      R.Replica.executed_count leader >= stalled);
  let inline_before = R.Replica.exec_inline_count leader in
  write_req b ~client_id:12 ~seq:1;
  (match read_within ~what:"client 12's write" ~timeout_s:1.0 b with
   | Some raw ->
     let rep = Client_msg.reply_of_bytes raw in
     Alcotest.(check (pair int int)) "client 12's reply" (12, 1)
       (rep.id.client_id, rep.id.seq)
   | None -> Alcotest.fail "B closed");
  Alcotest.(check bool) "client 12's write ran on the scheduler" true
    (R.Replica.exec_inline_count leader > inline_before);
  Msmr_wire.Frame.write b
    (Client_msg.read_to_bytes
       { Client_msg.id = { client_id = 12; seq = 2 };
         staleness_ns = Client_msg.linearizable; payload = Bytes.empty });
  (match read_within ~what:"client 12's lease read" ~timeout_s:1.0 b with
   | Some raw -> (
       match (Client_msg.read_reply_of_bytes raw).status with
       | Client_msg.Read_ok _ -> ()
       | _ -> Alcotest.fail "client 12's read refused")
   | None -> Alcotest.fail "B closed");
  Alcotest.(check int) "A is stalled, not closed" 2
    (R.Client_server.connections server);
  (* Rounds of 100 more replies on A, until the server closes it. *)
  let rec flood seq =
    if seq <= 10 && R.Client_server.connections server = 2 then
      match
        for i = 1 to 100 do write_req a ~client_id:(a_client i) ~seq done
      with
      | () ->
        Thread.delay 0.2;
        flood (seq + 1)
      | exception Unix.Unix_error _ -> ()
  in
  flood 2;
  await ~what:"A closed past its outbox bound" (fun () ->
      R.Client_server.connections server = 1)

(* A replica stopped under a live client server: the next frame on a
   connection closes it (EOF at the client), and the server forgets
   it. *)
let test_tcp_connection_outlives_replica () =
  let cfg = Msmr_consensus.Config.default ~n:1 in
  let replica =
    R.Replica.create ~cfg ~me:0 ~links:[] ~service:(R.Service.accumulator ())
      ()
  in
  let server = R.Client_server.start replica ~port:0 in
  Fun.protect
    ~finally:(fun () ->
        R.Client_server.stop server;
        R.Replica.stop replica)
  @@ fun () ->
  await ~what:"leadership" (fun () -> R.Replica.is_leader replica);
  let fd = dial server in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_req fd ~client_id:5 ~seq:1;
  Alcotest.(check bool) "answered while the replica runs" true
    (read_within ~what:"the first reply" ~timeout_s:5.0 fd <> None);
  R.Replica.stop replica;
  write_req fd ~client_id:5 ~seq:2;
  Alcotest.(check bool) "EOF after the replica stopped" true
    (read_within ~what:"EOF" ~timeout_s:5.0 fd = None);
  await ~what:"no connection left" (fun () ->
      R.Client_server.connections server = 0)

let suite =
  suite
  @ [ Alcotest.test_case "tcp: a stalled reader spares other clients" `Quick
        test_tcp_stalled_reader_spares_others;
      Alcotest.test_case "tcp: a connection outlives its replica" `Quick
        test_tcp_connection_outlives_replica ]
