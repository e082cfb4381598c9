(* Tests for msmr_baseline: the ZooKeeper-like contended model. *)

open Msmr_sim

let params ~cores =
  let p = Params.default ~n:3 ~cores () in
  { p with n_clients = 200; warmup = 0.1; duration = 0.4 }

let test_zk_runs () =
  let r = Msmr_baseline.Zk_model.run (params ~cores:2) in
  Alcotest.(check bool) "throughput" true (r.throughput > 1000.);
  Alcotest.(check int) "three replicas" 3 (Array.length r.replicas);
  let names = List.map fst r.replicas.(0).threads in
  List.iter
    (fun expected ->
       Alcotest.(check bool) expected true (List.mem expected names))
    [ "CommitProcessor"; "LearnerHandler:1"; "LearnerHandler:2";
      "ProcessThread"; "Sender:1"; "Sender:2"; "SyncThread" ]

let test_zk_deterministic () =
  let r1 = Msmr_baseline.Zk_model.run (params ~cores:4) in
  let r2 = Msmr_baseline.Zk_model.run (params ~cores:4) in
  Alcotest.(check (float 0.)) "same" r1.throughput r2.throughput

let test_zk_rise_then_collapse () =
  let t cores = (Msmr_baseline.Zk_model.run (params ~cores)).throughput in
  let t1 = t 1 and t6 = t 6 and t24 = t 24 in
  Alcotest.(check bool)
    (Printf.sprintf "rises 1->6 (%.0f -> %.0f)" t1 t6)
    true (t6 > 3. *. t1);
  Alcotest.(check bool)
    (Printf.sprintf "collapses 6->24 (%.0f -> %.0f)" t6 t24)
    true
    (t24 < 0.85 *. t6)

let test_zk_contention_grows_with_cores () =
  let b cores =
    (Msmr_baseline.Zk_model.run (params ~cores)).replicas.(0).blocked_pct
  in
  let b6 = b 6 and b24 = b 24 in
  Alcotest.(check bool)
    (Printf.sprintf "blocked grows (%.0f%% -> %.0f%%)" b6 b24)
    true (b24 > b6 +. 20.);
  Alcotest.(check bool) "past 100% of a core" true (b24 > 100.)

let suite =
  [
    Alcotest.test_case "zk model: runs" `Quick test_zk_runs;
    Alcotest.test_case "zk model: deterministic" `Quick test_zk_deterministic;
    Alcotest.test_case "zk model: rise then collapse" `Slow test_zk_rise_then_collapse;
    Alcotest.test_case "zk model: contention grows" `Slow test_zk_contention_grows_with_cores;
  ]

(* ---------------- live monolithic baseline ---------------- *)

module Mono = Msmr_baseline.Mono_replica
module Client_msg = Msmr_wire.Client_msg
module Ch = Msmr_platform.Channel

let mono_cfg =
  { (Msmr_consensus.Config.default ~n:3) with
    max_batch_delay_s = 0.004;
    fd_interval_s = 0.04;
    fd_timeout_s = 0.2 }

(* Simple synchronous call helper against a mono replica. *)
let mono_call replica ~client_id ~seq payload =
  let reply_box = Ch.create ~kind:Ch.Mpmc ~capacity:1 in
  let raw =
    Client_msg.request_to_bytes { id = { client_id; seq }; payload }
  in
  Mono.submit replica ~raw ~reply_to:(fun b ->
      ignore (Ch.try_put reply_box b));
  match
    Ch.take_timeout reply_box ~timeout_s:3.0
  with
  | Some b -> (Client_msg.reply_of_bytes b).result
  | None -> Alcotest.fail "mono call timed out"

let test_mono_basic_calls () =
  let cluster =
    Mono.Cluster.create ~cfg:mono_cfg
      ~service:(fun () -> Msmr_runtime.Service.accumulator ())
      ()
  in
  Fun.protect ~finally:(fun () -> Mono.Cluster.stop cluster) @@ fun () ->
  let leader = Mono.Cluster.await_leader cluster in
  Alcotest.(check string) "first" "5"
    (Bytes.to_string (mono_call leader ~client_id:1 ~seq:1 (Bytes.of_string "5")));
  Alcotest.(check string) "second" "12"
    (Bytes.to_string (mono_call leader ~client_id:1 ~seq:2 (Bytes.of_string "7")))

let test_mono_replicas_converge () =
  let cluster =
    Mono.Cluster.create ~cfg:mono_cfg
      ~service:(fun () -> Msmr_runtime.Service.accumulator ())
      ()
  in
  Fun.protect ~finally:(fun () -> Mono.Cluster.stop cluster) @@ fun () ->
  let leader = Mono.Cluster.await_leader cluster in
  for i = 1 to 25 do
    ignore (mono_call leader ~client_id:1 ~seq:i (Bytes.of_string "1"))
  done;
  let replicas = Mono.Cluster.replicas cluster in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (Array.for_all (fun r -> Mono.executed_count r = 25) replicas))
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Array.iter
    (fun r -> Alcotest.(check int) "executed" 25 (Mono.executed_count r))
    replicas

let test_mono_duplicate_suppression () =
  let cluster =
    Mono.Cluster.create ~cfg:mono_cfg
      ~service:(fun () -> Msmr_runtime.Service.accumulator ())
      ()
  in
  Fun.protect ~finally:(fun () -> Mono.Cluster.stop cluster) @@ fun () ->
  let leader = Mono.Cluster.await_leader cluster in
  let r1 = mono_call leader ~client_id:3 ~seq:1 (Bytes.of_string "9") in
  (* Same (client, seq): cached reply, no re-execution. *)
  let r2 = mono_call leader ~client_id:3 ~seq:1 (Bytes.of_string "9") in
  Alcotest.(check string) "same answer" (Bytes.to_string r1) (Bytes.to_string r2);
  Alcotest.(check string) "9" "9" (Bytes.to_string r1)

let suite =
  suite
  @ [
      Alcotest.test_case "mono: basic calls" `Quick test_mono_basic_calls;
      Alcotest.test_case "mono: replicas converge" `Quick test_mono_replicas_converge;
      Alcotest.test_case "mono: duplicate suppression" `Quick test_mono_duplicate_suppression;
    ]
