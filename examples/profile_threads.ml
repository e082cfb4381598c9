(* Per-thread profiling of a live replica under load — the runtime
   counterpart of the paper's Figure 8 methodology (busy / blocked /
   waiting / other per thread), using the Thread_state accounting wired
   into every queue of the architecture.

     dune exec examples/profile_threads.exe *)

module R = Msmr_runtime

let () =
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with max_batch_delay_s = 0.002 }
  in
  let cluster =
    R.Replica.Cluster.create ~cfg ~service:(fun () -> R.Service.null ()) ()
  in
  Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
  @@ fun () ->
  ignore (R.Replica.Cluster.await_leader cluster);
  (* Warm up, then reset the accounting so the report covers steady
     state only (the paper discards the first 10% of each run). *)
  let load_for ~first_id seconds n_clients =
    let stop_at =
      Int64.add (Msmr_platform.Mclock.now_ns ())
        (Msmr_platform.Mclock.ns_of_s seconds)
    in
    let workers =
      List.init n_clients (fun i ->
          Thread.create
            (fun () ->
               let c = R.Client.create ~cluster ~client_id:(first_id + i) () in
               let payload = Bytes.make 112 'x' in
               while
                 Int64.compare (Msmr_platform.Mclock.now_ns ()) stop_at < 0
               do
                 ignore (R.Client.call c payload)
               done)
            ())
    in
    List.iter Thread.join workers
  in
  (* Client ids double as session ids: each phase uses fresh ids, since
     the reply cache treats a reused id with a restarted sequence number
     as a duplicate (at-most-once semantics). *)
  load_for ~first_id:1 0.5 8;
  Msmr_platform.Thread_state.reset_all ();
  load_for ~first_id:101 2.0 8;
  print_endline "per-thread profile of all three replicas (steady state):";
  Format.printf "%a%!" Msmr_platform.Thread_state.pp_report
    (Msmr_platform.Thread_state.snapshot_all ());
  print_endline "profile_threads OK"
