(* Quickstart: bring up a 3-replica in-process cluster, run a few
   requests against the replicated accumulator service, crash the
   leader, and show that the cluster keeps answering with its state
   intact.

     dune exec examples/quickstart.exe *)

module R = Msmr_runtime

let () =
  (* 1. Configure a 3-replica group. WND (pipelining) and BSZ (batching)
     are the paper's two tuning knobs; the defaults are the paper's
     settings (WND=10, BSZ=1300 bytes). *)
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      max_batch_delay_s = 0.002;  (* flush small batches quickly *)
      fd_interval_s = 0.05;       (* fast failure detection for the demo *)
      fd_timeout_s = 0.25 }
  in

  (* 2. Start the cluster. Each replica runs the threading
     architecture: Protocol (which also batches, runs the
     retransmission timers and the failure detector, and on this
     in-process hub hands each message straight to the peer) and the
     ServiceManager. A client's own thread does the ClientIO work. *)
  let cluster =
    R.Replica.Cluster.create ~cfg
      ~service:(fun () -> R.Service.accumulator ())
      ()
  in
  Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
  @@ fun () ->
  let leader = R.Replica.Cluster.await_leader cluster in
  Printf.printf "cluster up; replica %d is the leader of view %d\n%!"
    (R.Replica.me leader) (R.Replica.current_view leader);

  (* 3. Run requests through the replicated state machine. The
     accumulator adds the (decimal) payload to a running sum. *)
  let client = R.Client.create ~timeout_s:0.5 ~cluster ~client_id:1 () in
  List.iter
    (fun v ->
       let reply = R.Client.call client (Bytes.of_string (string_of_int v)) in
       Printf.printf "  add %d -> sum = %s\n%!" v (Bytes.to_string reply))
    [ 10; 20; 12 ];

  (* 4. Kill the leader (cut all its network traffic). The failure
     detector times out, a follower runs Phase 1 of Paxos and takes
     over. *)
  Printf.printf "cutting the leader's network...\n%!";
  Msmr_runtime.Transport.Hub.cut
    (R.Replica.Cluster.hub cluster)
    (R.Replica.me leader);

  (* 5. The same client keeps working (it retries and follows the new
     leader); the replicated state survived the failover. *)
  let reply = R.Client.call client (Bytes.of_string "8") in
  Printf.printf "after failover: add 8 -> sum = %s (expected 50)\n%!"
    (Bytes.to_string reply);
  (* The cut replica still believes it leads; look for a live claimant. *)
  let new_leader =
    let replicas = R.Replica.Cluster.replicas cluster in
    let old = R.Replica.me leader in
    match
      Array.find_opt
        (fun r -> R.Replica.me r <> old && R.Replica.is_leader r)
        replicas
    with
    | Some r -> r
    | None -> failwith "no new leader"
  in
  Printf.printf "new leader is replica %d in view %d (retries: %d)\n%!"
    (R.Replica.me new_leader)
    (R.Replica.current_view new_leader)
    (R.Client.retries client);
  assert (Bytes.to_string reply = "50");
  print_endline "quickstart OK"
