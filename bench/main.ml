(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI). Run all experiments with

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- fig4 tab1 micro

   The multi-core scalability experiments run on the deterministic
   discrete-event simulator (see DESIGN.md for the substitution argument
   and calibration); `live` exercises the real threading architecture on
   this machine; `micro` runs bechamel micro-benchmarks of the
   substrate. *)

module Params = Msmr_sim.Params
module Jp = Msmr_sim.Jpaxos_model
module Zk = Msmr_baseline.Zk_model
module Sstats = Msmr_sim.Sstats

let core_points profile =
  if profile.Params.max_cores <= 8 then [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  else [ 1; 2; 4; 6; 8; 12; 16; 20; 24 ]

(* ------------------------------------------------------------------ *)
(* Cached model runs (several figures share the same sweeps). *)

let jp_cache : (string, Jp.result) Hashtbl.t = Hashtbl.create 64
let zk_cache : (int, Zk.result) Hashtbl.t = Hashtbl.create 16

let jp ?(profile = Params.parapluie) ?(n = 3) ~cores ?wnd ?bsz ?cio () =
  let p = Params.default ~profile ~n ~cores () in
  let p = { p with warmup = 0.3; duration = 1.0 } in
  let p = match wnd with Some w -> { p with wnd = w } | None -> p in
  let p = match bsz with Some b -> { p with bsz = b } | None -> p in
  let p =
    match cio with Some c -> { p with client_io_threads = c } | None -> p
  in
  let key =
    Printf.sprintf "%s/n%d/c%d/w%d/b%d/io%d" profile.profile_name n cores
      p.wnd p.bsz p.client_io_threads
  in
  match Hashtbl.find_opt jp_cache key with
  | Some r -> r
  | None ->
    let r = Jp.run p in
    Hashtbl.replace jp_cache key r;
    r

let zk ~cores =
  match Hashtbl.find_opt zk_cache cores with
  | Some r -> r
  | None ->
    let p = Params.default ~n:3 ~cores () in
    let p = { p with warmup = 0.3; duration = 1.0 } in
    let r = Zk.run p in
    Hashtbl.replace zk_cache cores r;
    r

(* ------------------------------------------------------------------ *)
(* Rendering helpers. *)

let heading id title =
  Printf.printf "\n==== %s: %s ====\n%!" id title

let profile_table rows =
  Format.printf "%a%!" Sstats.pp_profile rows

let k x = x /. 1e3

(* ------------------------------------------------------------------ *)
(* Experiments. *)

let fig1 () =
  heading "fig1" "ZooKeeper throughput vs cores; leader thread profile";
  Printf.printf "(paper: peak ~50K req/s at 4 cores, <30K at 24; heavy blocked time)\n";
  Printf.printf "%6s %14s %10s %12s\n" "cores" "req/s (x1000)" "cpu%" "blocked%";
  List.iter
    (fun cores ->
       let r = zk ~cores in
       Printf.printf "%6d %14.1f %10.0f %12.1f\n%!" cores (k r.throughput)
         r.replicas.(0).cpu_util_pct r.replicas.(0).blocked_pct)
    (core_points Params.parapluie);
  Printf.printf "\nFig 1b - per-thread profile of the ZooKeeper leader, 24 cores:\n";
  profile_table (zk ~cores:24).replicas.(0).threads

let fig4 () =
  heading "fig4" "JPaxos throughput and speedup vs cores (parapluie)";
  Printf.printf "(paper: n=3 linear to ~6 cores, ~100K req/s and speedup ~6.5 at 12+;\n";
  Printf.printf " n=5 lower, speedup ~5.5)\n";
  Printf.printf "%6s | %13s %8s | %13s %8s\n" "cores" "n=3 (x1000)" "speedup"
    "n=5 (x1000)" "speedup";
  let base3 = (jp ~n:3 ~cores:1 ()).throughput in
  let base5 = (jp ~n:5 ~cores:1 ()).throughput in
  List.iter
    (fun cores ->
       let r3 = jp ~n:3 ~cores () and r5 = jp ~n:5 ~cores () in
       Printf.printf "%6d | %13.1f %8.2f | %13.1f %8.2f\n%!" cores
         (k r3.throughput) (r3.throughput /. base3)
         (k r5.throughput) (r5.throughput /. base5))
    (core_points Params.parapluie);
  let curve n =
    List.map
      (fun cores -> (float_of_int cores, k (jp ~n ~cores ()).throughput))
      (core_points Params.parapluie)
  in
  Format.printf "@.%a"
    (fun ppf () ->
       Msmr_platform.Ascii_plot.render ppf ~y_label:"req/s (x1000)"
         ~x_label:"cores"
         [ { Msmr_platform.Ascii_plot.label = "n=3"; points = curve 3 };
           { label = "n=5"; points = curve 5 } ])
    ()

let fig5 () =
  heading "fig5" "JPaxos CPU utilization and total blocked time (parapluie)";
  Printf.printf "(paper: leader highest; blocked stays under ~20%% of the run)\n";
  List.iter
    (fun n ->
       Printf.printf "n=%d:\n%6s" n "cores";
       for i = 0 to n - 1 do
         Printf.printf "  cpu%%[r%d] blk%%[r%d]" i i
       done;
       print_newline ();
       List.iter
         (fun cores ->
            let r = jp ~n ~cores () in
            Printf.printf "%6d" cores;
            Array.iter
              (fun (rep : Jp.replica_report) ->
                 Printf.printf "  %8.0f %8.1f" rep.cpu_util_pct rep.blocked_pct)
              r.replicas;
            print_newline ())
         (core_points Params.parapluie))
    [ 3; 5 ]

let fig6 () =
  heading "fig6" "JPaxos throughput and speedup vs cores (edel, 8 cores)";
  Printf.printf "(paper: near-linear to speedup ~7 at 8 cores, ~80K req/s, network not saturated)\n";
  Printf.printf "%6s | %13s %8s | %13s %8s\n" "cores" "n=3 (x1000)" "speedup"
    "n=5 (x1000)" "speedup";
  let profile = Params.edel in
  let base3 = (jp ~profile ~n:3 ~cores:1 ()).throughput in
  let base5 = (jp ~profile ~n:5 ~cores:1 ()).throughput in
  List.iter
    (fun cores ->
       let r3 = jp ~profile ~n:3 ~cores () and r5 = jp ~profile ~n:5 ~cores () in
       Printf.printf "%6d | %13.1f %8.2f | %13.1f %8.2f\n%!" cores
         (k r3.throughput) (r3.throughput /. base3)
         (k r5.throughput) (r5.throughput /. base5))
    (core_points profile)

let fig7 () =
  heading "fig7" "JPaxos CPU utilization and blocked time (edel)";
  List.iter
    (fun n ->
       Printf.printf "n=%d:\n%6s" n "cores";
       for i = 0 to n - 1 do
         Printf.printf "  cpu%%[r%d] blk%%[r%d]" i i
       done;
       print_newline ();
       List.iter
         (fun cores ->
            let r = jp ~profile:Params.edel ~n ~cores () in
            Printf.printf "%6d" cores;
            Array.iter
              (fun (rep : Jp.replica_report) ->
                 Printf.printf "  %8.0f %8.1f" rep.cpu_util_pct rep.blocked_pct)
              r.replicas;
            print_newline ())
         (core_points Params.edel))
    [ 3; 5 ]

let fig8 () =
  heading "fig8" "JPaxos per-thread profile of the leader (n=3)";
  Printf.printf "(paper: at 1 core ClientIO+Batcher dominate; at full cores all\n";
  Printf.printf " threads 30-60%% busy with minimal blocked time)\n";
  let show label (r : Jp.result) =
    Printf.printf "\n%s:\n" label;
    profile_table r.replicas.(0).threads
  in
  show "parapluie, 1 core" (jp ~n:3 ~cores:1 ());
  show "parapluie, 24 cores" (jp ~n:3 ~cores:24 ());
  show "edel, 1 core" (jp ~profile:Params.edel ~n:3 ~cores:1 ());
  show "edel, 8 cores" (jp ~profile:Params.edel ~n:3 ~cores:8 ())

let fig9 () =
  heading "fig9" "Throughput and CPU vs number of ClientIO threads (24 cores)";
  Printf.printf "(paper: ~40K with 1 thread, >100K with 4, degrades beyond ~8)\n";
  Printf.printf "%12s %14s %10s\n" "IO threads" "req/s (x1000)" "cpu%";
  List.iter
    (fun cio ->
       let r = jp ~n:3 ~cores:24 ~cio () in
       Printf.printf "%12d %14.1f %10.0f\n%!" cio (k r.throughput)
         r.replicas.(0).cpu_util_pct)
    [ 1; 2; 3; 4; 6; 8; 12; 16; 20; 24 ]

let wnd_points = [ 1; 4; 6; 10; 15; 20; 35; 50 ]

let tab1 () =
  heading "tab1" "Average queue sizes and parallel ballots vs WND (Table I)";
  Printf.printf "(paper: RequestQueue >1/4 full, ProposalQueue >1/2 full,\n";
  Printf.printf " DispatcherQueue ~empty, window ~= WND)\n";
  Printf.printf "%5s %13s %14s %16s %15s\n" "WND" "RequestQueue"
    "ProposalQueue" "DispatcherQueue" "parallel ballots";
  List.iter
    (fun wnd ->
       let r = jp ~n:3 ~cores:24 ~wnd () in
       Printf.printf "%5d %13.1f %14.2f %16.2f %15.2f\n%!" wnd
         r.avg_request_queue r.avg_proposal_queue r.avg_dispatcher_queue
         r.avg_window)
    wnd_points

let fig10 () =
  heading "fig10" "Performance as a function of window size (24 cores, n=3)";
  Printf.printf "(paper: throughput rises until the NIC packet budget binds, then\n";
  Printf.printf " flattens while instance latency keeps growing with WND; our\n";
  Printf.printf " simulated kernel queues less than the real pre-2.6.35 stack, so\n";
  Printf.printf " the crossover lands at a smaller WND - see EXPERIMENTS.md)\n";
  Printf.printf "%5s %14s %13s %17s %12s\n" "WND" "req/s (x1000)"
    "latency (ms)" "batch (reqs)" "window";
  List.iter
    (fun wnd ->
       let r = jp ~n:3 ~cores:24 ~wnd () in
       Printf.printf "%5d %14.1f %13.2f %17.1f %12.1f\n%!" wnd (k r.throughput)
         (r.instance_latency *. 1e3) r.avg_batch_reqs r.avg_window)
    wnd_points

let tab2 () =
  heading "tab2" "Ping RTT between nodes, idle vs during a run (Table II)";
  Printf.printf "(paper: idle ~0.06ms everywhere; leader<->any ~2.5ms under load)\n";
  let r = jp ~n:3 ~cores:24 ~wnd:35 () in
  Printf.printf "%-28s %10.3f ms\n" "idle any <-> any" (r.rtt_idle *. 1e3);
  Printf.printf "%-28s %10.3f ms\n" "follower <-> follower"
    (r.rtt_followers *. 1e3);
  Printf.printf "%-28s %10.3f ms\n%!" "leader <-> any" (r.rtt_leader *. 1e3)

let bsz_points = [ 650; 1300; 2600; 5200; 10400 ]

let fig11 () =
  heading "fig11" "Performance as a function of batch size (24 cores, WND=35)";
  Printf.printf "(paper: 650B noticeably slower; >=1300B all roughly equal)\n";
  Printf.printf "%6s %14s %13s %13s %12s\n" "BSZ" "req/s (x1000)"
    "latency (ms)" "batch (B)" "window";
  List.iter
    (fun bsz ->
       let r = jp ~n:3 ~cores:24 ~wnd:35 ~bsz () in
       Printf.printf "%6d %14.1f %13.2f %13.0f %12.1f\n%!" bsz (k r.throughput)
         (r.instance_latency *. 1e3) r.avg_batch_bytes r.avg_window)
    bsz_points

let tab3 () =
  heading "tab3" "Throughput and network utilization vs BSZ (Table III)";
  Printf.printf "(paper: packets/s out pinned at ~150K for every BSZ)\n";
  Printf.printf "%6s %12s %10s %10s %9s %9s\n" "BSZ" "throughput"
    "pkts/s out" "pkts/s in" "MB/s out" "MB/s in";
  List.iter
    (fun bsz ->
       let r = jp ~n:3 ~cores:24 ~wnd:35 ~bsz () in
       Printf.printf "%6d %11.0fK %9.0fK %9.0fK %9.1f %9.1f\n%!" bsz
         (k r.throughput) (k r.leader_tx_pps) (k r.leader_rx_pps)
         r.leader_tx_mbps r.leader_rx_mbps)
    bsz_points

let fig12 () =
  heading "fig12" "JPaxos vs ZooKeeper throughput and speedup vs cores";
  Printf.printf "(paper: JPaxos scales to ~100K; ZooKeeper peaks at 4 cores then degrades)\n";
  Printf.printf "%6s | %15s %8s | %17s %8s\n" "cores" "JPaxos (x1000)"
    "speedup" "ZooKeeper (x1000)" "speedup";
  let jbase = (jp ~n:3 ~cores:1 ()).throughput in
  let zbase = (zk ~cores:1).throughput in
  List.iter
    (fun cores ->
       let j = jp ~n:3 ~cores () and z = zk ~cores in
       Printf.printf "%6d | %15.1f %8.2f | %17.1f %8.2f\n%!" cores
         (k j.throughput) (j.throughput /. jbase)
         (k z.throughput) (z.throughput /. zbase))
    (core_points Params.parapluie);
  let points f =
    List.map
      (fun cores -> (float_of_int cores, k (f cores)))
      (core_points Params.parapluie)
  in
  Format.printf "@.%a"
    (fun ppf () ->
       Msmr_platform.Ascii_plot.render ppf ~y_label:"req/s (x1000)"
         ~x_label:"cores"
         [ { Msmr_platform.Ascii_plot.label = "JPaxos (staged)";
             points = points (fun c -> (jp ~n:3 ~cores:c ()).throughput) };
           { label = "ZooKeeper-like";
             points = points (fun c -> (zk ~cores:c).throughput) } ])
    ()

let fig13 () =
  heading "fig13" "ZooKeeper CPU usage and contention vs cores";
  Printf.printf "(paper: leader blocked time exceeds 100%% of the run; CPU rises\n";
  Printf.printf " while throughput falls - cycles burned on contention)\n";
  Printf.printf "%6s" "cores";
  for i = 0 to 2 do
    Printf.printf "  cpu%%[r%d] blk%%[r%d]" i i
  done;
  print_newline ();
  List.iter
    (fun cores ->
       let r = zk ~cores in
       Printf.printf "%6d" cores;
       Array.iter
         (fun (rep : Zk.replica_report) ->
            Printf.printf "  %8.0f %8.1f" rep.cpu_util_pct rep.blocked_pct)
         r.replicas;
       print_newline ())
    (core_points Params.parapluie)

let fig14 () =
  heading "fig14" "ZooKeeper per-thread profile of the leader";
  Printf.printf "(paper: at 24 cores three threads are busy-or-blocked 100%% of the time)\n";
  Printf.printf "\n1 core:\n";
  profile_table (zk ~cores:1).replicas.(0).threads;
  Printf.printf "\n24 cores:\n";
  profile_table (zk ~cores:24).replicas.(0).threads

let ext () =
  heading "ext"
    "Extensions the paper proposes (Section VI-B and footnote 5)";
  Printf.printf
    "(RSS/RPS spreads NIC interrupts over cores - the paper reports the\n\
    \ throughput roughly doubled; multiple Batcher threads are the paper's\n\
    \ proposed parallelisation; it predicts the Replica thread becomes the\n\
    \ next, hard-to-parallelise bottleneck)\n";
  let run ~label ?(rss = false) ?(batchers = 1) ?cio ?(exec_speedup = 1.0) () =
    let p = Params.default ~n:3 ~cores:24 () in
    let p =
      { p with warmup = 0.3; duration = 1.0; rss; n_batchers = batchers;
        costs =
          { p.costs with
            exec_per_req = p.costs.exec_per_req /. exec_speedup };
        client_io_threads =
          (match cio with Some c -> c | None -> p.client_io_threads) }
    in
    let r = Jp.run p in
    let busy name =
      match List.assoc_opt name r.replicas.(0).threads with
      | Some (t : Sstats.totals) -> 100. *. t.busy
      | None -> nan
    in
    let batcher_busy =
      if batchers = 1 then busy "Batcher" else busy "Batcher-0"
    in
    Printf.printf "%-30s %10.1fK %12.0f%% %11.0f%% %11.0f%%\n%!" label
      (k r.throughput)
      (r.replicas.(0).cpu_util_pct)
      batcher_busy (busy "Replica")
  in
  Printf.printf "%-30s %11s %13s %12s %12s\n" "configuration" "req/s"
    "leader cpu" "Batcher busy" "Replica busy";
  run ~label:"paper setup (WND=10)" ();
  run ~label:"+ RSS" ~rss:true ();
  run ~label:"+ RSS, 2 Batchers" ~rss:true ~batchers:2 ();
  run ~label:"+ RSS, 4 Batchers, 8 IO" ~rss:true ~batchers:4 ~cio:8 ();
  (* The paper's last lever: "the only obvious way to improve this stage
     [the Replica thread] is by optimizing its single-thread
     performance". *)
  run ~label:"+ RSS, 2 Batchers, 2x Replica" ~rss:true ~batchers:2
    ~exec_speedup:2.0 ();
  Printf.printf
    "-> with the kernel limit lifted, the single-threaded Replica stage\n\
    \   saturates (~100%% busy); extra Batcher/ClientIO threads no longer\n\
    \   help, and only making the Replica stage itself faster does - the\n\
    \   scalability limit and the remedy the paper names in Section VI-B.\n"

(* ------------------------------------------------------------------ *)
(* Live experiments: the real runtime on this machine. *)

(* Run [n_clients] closed-loop clients against a live cluster for
   [duration_s]; returns (throughput, latency histogram). *)
let live_load ?(payload_size = 112) ~first_id cluster ~n_clients ~duration_s () =
  let module R = Msmr_runtime in
  let stop_at =
    Int64.add (Msmr_platform.Mclock.now_ns ())
      (Msmr_platform.Mclock.ns_of_s duration_s)
  in
  let completed = Atomic.make 0 in
  let hist = Msmr_platform.Histogram.create () in
  let workers =
    List.init n_clients (fun i ->
        Thread.create
          (fun () ->
             let client =
               R.Client.create ~cluster ~client_id:(first_id + i) ()
             in
             let payload = Bytes.make payload_size 'x' in
             while Int64.compare (Msmr_platform.Mclock.now_ns ()) stop_at < 0 do
               let t0 = Msmr_platform.Mclock.now_ns () in
               ignore (R.Client.call client payload);
               Msmr_platform.Histogram.record hist
                 (Msmr_platform.Mclock.s_of_ns
                    (Int64.sub (Msmr_platform.Mclock.now_ns ()) t0));
               ignore (Atomic.fetch_and_add completed 1)
             done)
          ())
  in
  List.iter Thread.join workers;
  (float_of_int (Atomic.get completed) /. duration_s, hist)

let ablation () =
  heading "ablation"
    "Stable storage ablation (live runtime, this host)";
  Printf.printf
    "(the paper disables stable storage because it \"would introduce an\n\
    \ additional bottleneck\"; this measures that cost on the real runtime:\n\
    \ WAL disabled / unsynced / fsync'd periodically / fsync per write)\n";
  let module R = Msmr_runtime in
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      max_batch_delay_s = 0.002;
      snapshot_every = 0 }
  in
  let tmp_root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msmr-ablation-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Printf.printf "%-24s %12s %12s %12s\n" "durability" "req/s" "p50 (ms)"
    "p99 (ms)";
  List.iter
    (fun (label, durability) ->
       rm_rf tmp_root;
       Unix.mkdir tmp_root 0o755;
       let cluster =
         R.Replica.Cluster.create ~durability ~cfg
           ~service:(fun () -> R.Service.null ())
           ()
       in
       Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
       @@ fun () ->
       ignore (R.Replica.Cluster.await_leader cluster);
       let tput, hist =
         live_load ~first_id:1 cluster ~n_clients:8 ~duration_s:2.0 ()
       in
       Printf.printf "%-24s %12.0f %12.2f %12.2f\n%!" label tput
         (1e3 *. Msmr_platform.Histogram.percentile hist 0.5)
         (1e3 *. Msmr_platform.Histogram.percentile hist 0.99))
    [ ("ephemeral (paper setup)", fun _ -> R.Replica.Ephemeral);
      ( "wal, no sync",
        fun me ->
          R.Replica.Durable
            { dir = Filename.concat tmp_root (Printf.sprintf "ns%d" me);
              sync = Msmr_storage.Wal.No_sync } );
      ( "wal, periodic sync",
        fun me ->
          R.Replica.Durable
            { dir = Filename.concat tmp_root (Printf.sprintf "ps%d" me);
              sync = Msmr_storage.Wal.Sync_periodic } );
      ( "wal, fsync every write",
        fun me ->
          R.Replica.Durable
            { dir = Filename.concat tmp_root (Printf.sprintf "es%d" me);
              sync = Msmr_storage.Wal.Sync_every_write } ) ];
  rm_rf tmp_root

let live () =
  heading "live" "Live threading architecture on this host (sanity check)";
  let module R = Msmr_runtime in
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      max_batch_delay_s = 0.002;
      fd_interval_s = 0.05;
      fd_timeout_s = 0.3 }
  in
  let cluster =
    R.Replica.Cluster.create ~cfg ~service:(fun () -> R.Service.null ()) ()
  in
  Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
  @@ fun () ->
  let leader = R.Replica.Cluster.await_leader cluster in
  let n_clients = 16 and duration_s = 3.0 in
  let tput, hist = live_load ~first_id:1 cluster ~n_clients ~duration_s () in
  let stats = R.Replica.queue_stats leader in
  Printf.printf
    "3 replicas in-process, %d closed-loop clients, %.0fs: %.0f req/s\n"
    n_clients duration_s tput;
  Format.printf "latency: %a@." Msmr_platform.Histogram.pp_summary hist;
  Printf.printf
    "leader queues at end: request=%d proposal=%d dispatcher=%d window=%d\n"
    stats.request_queue stats.proposal_queue stats.dispatcher_queue
    stats.window_in_use;
  Printf.printf "decided instances: %d, executed requests: %d\n%!"
    (R.Replica.decided_count leader)
    (R.Replica.executed_count leader);
  Printf.printf "\nper-thread states (Thread_state accounting):\n";
  Format.printf "%a%!" Msmr_platform.Thread_state.pp_report
    (Msmr_platform.Thread_state.snapshot_all ())

let live_mono () =
  heading "live-mono"
    "Staged architecture vs traditional monolithic event loop (live, this host)";
  Printf.printf
    "(the paper's premise: the traditional single-event-loop design is\n\
    \ fine on few cores and caps at one thread. This host has %d core(s),\n\
    \ so expect parity here; the multi-core separation is what fig4/fig12\n\
    \ show on the simulator.)\n"
    (try
       let ic = Unix.open_process_in "nproc" in
       let n = int_of_string (String.trim (input_line ic)) in
       ignore (Unix.close_process_in ic);
       n
     with _ -> 1);
  let module R = Msmr_runtime in
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with max_batch_delay_s = 0.002 }
  in
  let n_clients = 8 and duration_s = 2.0 in
  (* Staged. *)
  let staged_tput, staged_hist =
    let cluster =
      R.Replica.Cluster.create ~cfg ~service:(fun () -> R.Service.null ()) ()
    in
    Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
    @@ fun () ->
    ignore (R.Replica.Cluster.await_leader cluster);
    live_load ~first_id:1 cluster ~n_clients ~duration_s ()
  in
  (* Monolithic: closed-loop clients via submit + reply box. *)
  let mono_tput, mono_hist =
    let module Mono = Msmr_baseline.Mono_replica in
    let cluster =
      Mono.Cluster.create ~cfg ~service:(fun () -> R.Service.null ()) ()
    in
    Fun.protect ~finally:(fun () -> Mono.Cluster.stop cluster) @@ fun () ->
    let leader = Mono.Cluster.await_leader cluster in
    let stop_at = Unix.gettimeofday () +. duration_s in
    let completed = Atomic.make 0 in
    let hist = Msmr_platform.Histogram.create () in
    let workers =
      List.init n_clients (fun i ->
          Thread.create
            (fun () ->
               let payload = Bytes.make 112 'x' in
               let reply_box =
                 Msmr_platform.Channel.create ~kind:Msmr_platform.Channel.Spsc
                   ~capacity:1
               in
               let seq = ref 0 in
               while Unix.gettimeofday () < stop_at do
                 incr seq;
                 let raw =
                   Msmr_wire.Client_msg.request_to_bytes
                     { id = { client_id = i + 1; seq = !seq }; payload }
                 in
                 let t0 = Unix.gettimeofday () in
                 Mono.submit leader ~raw ~reply_to:(fun b ->
                     ignore (Msmr_platform.Channel.try_put reply_box b));
                 match
                   Msmr_platform.Channel.take_timeout reply_box
                     ~timeout_s:2.0
                 with
                 | Some _ ->
                   Msmr_platform.Histogram.record hist
                     (Unix.gettimeofday () -. t0);
                   ignore (Atomic.fetch_and_add completed 1)
                 | None -> ()
               done)
            ())
    in
    List.iter Thread.join workers;
    (float_of_int (Atomic.get completed) /. duration_s, hist)
  in
  Printf.printf "%-28s %10s %10s %10s\n" "architecture" "req/s" "p50 (ms)"
    "p99 (ms)";
  let row label tput hist =
    Printf.printf "%-28s %10.0f %10.2f %10.2f\n%!" label tput
      (1e3 *. Msmr_platform.Histogram.percentile hist 0.5)
      (1e3 *. Msmr_platform.Histogram.percentile hist 0.99)
  in
  row "staged (paper)" staged_tput staged_hist;
  row "monolithic event loop" mono_tput mono_hist

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the substrate. *)

let micro () =
  heading "micro" "Substrate micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let ch =
    Msmr_platform.Channel.create ~kind:Msmr_platform.Channel.Mpmc ~capacity:1024
  in
  let bench_ch =
    Test.make ~name:"channel put+take"
      (Staged.stage (fun () ->
           Msmr_platform.Channel.put ch 42;
           ignore (Msmr_platform.Channel.take ch)))
  in
  let mpsc = Msmr_platform.Mpsc_queue.create () in
  let bench_mpsc =
    Test.make ~name:"mpsc push+pop"
      (Staged.stage (fun () ->
           Msmr_platform.Mpsc_queue.push mpsc 42;
           ignore (Msmr_platform.Mpsc_queue.pop mpsc)))
  in
  let cmap = Msmr_platform.Concurrent_map.create () in
  let key = ref 0 in
  let bench_cmap =
    Test.make ~name:"concurrent_map set+find"
      (Staged.stage (fun () ->
           incr key;
           let kk = !key land 1023 in
           Msmr_platform.Concurrent_map.set cmap kk kk;
           ignore (Msmr_platform.Concurrent_map.find_opt cmap kk)))
  in
  let rc = Msmr_runtime.Reply_cache.create () in
  let seq = ref 0 in
  let bench_cache =
    Test.make ~name:"reply_cache store+lookup"
      (Staged.stage (fun () ->
           incr seq;
           let id =
             { Msmr_wire.Client_msg.client_id = !seq land 255; seq = !seq }
           in
           Msmr_runtime.Reply_cache.store rc id Bytes.empty;
           ignore (Msmr_runtime.Reply_cache.lookup rc id)))
  in
  let req =
    { Msmr_wire.Client_msg.id = { client_id = 7; seq = 1234 };
      payload = Bytes.make 112 'x' }
  in
  let bench_req_codec =
    Test.make ~name:"request encode+decode"
      (Staged.stage (fun () ->
           ignore
             (Msmr_wire.Client_msg.request_of_bytes
                (Msmr_wire.Client_msg.request_to_bytes req))))
  in
  let accept =
    Msmr_consensus.Msg.Accept
      { view = 3; iid = 42;
        value =
          Msmr_consensus.Value.Batch
            { bid = { src = 0; num = 7 };
              requests = List.init 9 (fun _ -> req) } }
  in
  let bench_msg_codec =
    Test.make ~name:"accept(9 reqs) encode+decode"
      (Staged.stage (fun () ->
           ignore (Msmr_consensus.Msg.decode (Msmr_consensus.Msg.encode accept))))
  in
  let cfg_b = Msmr_consensus.Config.default ~n:3 in
  let bench_batcher =
    let b = Msmr_consensus.Batcher.create cfg_b ~src:0 in
    Test.make ~name:"batcher add (128B reqs)"
      (Staged.stage (fun () ->
           ignore (Msmr_consensus.Batcher.add b req ~now_ns:0L)))
  in
  let dq = Msmr_platform.Delay_queue.create () in
  let bench_delayq =
    Test.make ~name:"delay_queue schedule+cancel"
      (Staged.stage (fun () ->
           let h =
             Msmr_platform.Delay_queue.schedule dq ~at_ns:Int64.max_int 0
           in
           Msmr_platform.Delay_queue.cancel h))
  in
  let test =
    Test.make_grouped ~name:"substrate"
      [ bench_ch; bench_mpsc; bench_cmap; bench_cache; bench_req_codec;
        bench_msg_codec; bench_batcher; bench_delayq ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
       match Analyze.OLS.estimates ols with
       | Some [ est ] -> Printf.printf "%-40s %10.0f ns/op\n" name est
       | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* bench002: machine-readable snapshot of the headline results, written
   as JSON so CI and the verify script can regression-check numbers
   instead of scraping tables. Two sweeps:
     - core scaling:     jp, n=3, cores in {1, 8, 24}  (fig4 anchor points)
     - executor scaling: exec_threads in {1, 2, 4, 8} on an
       execution-bound workload (the parallel-ServiceManager figure; the
       workload keeps the leader far below the NIC ceiling so executor
       scaling is visible rather than masked by the packet budget). *)

let bench_quick = ref false
let bench_out = ref "bench/BENCH_002.json"

let bench002 () =
  heading "bench002"
    (Printf.sprintf "Machine-readable snapshot -> %s%s" !bench_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let warmup, duration = if !bench_quick then (0.05, 0.1) else (0.3, 1.0) in
  let core_row cores =
    let p = Params.default ~profile:Params.parapluie ~n:3 ~cores () in
    let r = Jp.run { p with warmup; duration } in
    (cores, r.Jp.throughput)
  in
  let exec_row exec_threads =
    (* Execution-bound: 50 us/request (vs the calibrated ~10 us), 16
       cores, 600 closed-loop clients. exec_threads=1 runs the exact
       serial ServiceManager path. *)
    let p = Params.default ~n:3 ~cores:16 () in
    let p =
      { p with
        n_clients = 600;
        warmup = (if !bench_quick then 0.05 else 0.2);
        duration = (if !bench_quick then 0.1 else 0.5);
        costs = { p.costs with exec_per_req = 50e-6 };
        exec_threads }
    in
    let r = Jp.run p in
    (exec_threads, r.Jp.throughput)
  in
  let cores_rows = List.map core_row [ 1; 8; 24 ] in
  let exec_rows = List.map exec_row [ 1; 2; 4; 8 ] in
  let base_cores = List.assoc 1 cores_rows in
  let base_exec = List.assoc 1 exec_rows in
  Printf.printf "core scaling (n=3, parapluie):\n";
  Printf.printf "%6s %14s %8s\n" "cores" "req/s (x1000)" "speedup";
  List.iter
    (fun (c, t) ->
       Printf.printf "%6d %14.1f %8.2f\n%!" c (k t) (t /. base_cores))
    cores_rows;
  Printf.printf "executor scaling (n=3, 16 cores, exec-bound workload):\n";
  Printf.printf "%6s %14s %8s\n" "execs" "req/s (x1000)" "speedup";
  List.iter
    (fun (e, t) ->
       Printf.printf "%6d %14.1f %8.2f\n%!" e (k t) (t /. base_exec))
    exec_rows;
  let row_obj key (x, tput) base =
    J.Obj
      [ (key, J.Int x);
        ("throughput_rps", J.Float tput);
        ("speedup", J.Float (tput /. base)) ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_002");
        ("source", J.String "bench/main.exe bench002");
        ("quick", J.Bool !bench_quick);
        ( "core_scaling",
          J.Obj
            [ ("n", J.Int 3);
              ("profile", J.String "parapluie");
              ( "points",
                J.List
                  (List.map (fun r -> row_obj "cores" r base_cores) cores_rows)
              ) ] );
        ( "executor_scaling",
          J.Obj
            [ ("n", J.Int 3);
              ("cores", J.Int 16);
              ("exec_per_req_us", J.Float 50.0);
              ( "points",
                J.List
                  (List.map
                     (fun r -> row_obj "exec_threads" r base_exec)
                     exec_rows) ) ] ) ]
  in
  let oc = open_out !bench_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench_out

(* ------------------------------------------------------------------ *)
(* bench003: durable-mode sweep. The paper disables stable storage
   because a synchronous log "would introduce an additional bottleneck";
   this experiment quantifies that bottleneck and the group-commit
   remedy on the simulator: Sync_serial makes the Protocol thread block
   on one device fsync (5 ms) per persisted event, Sync_group runs the
   StableStorage pipeline — the log queue absorbs bursts, one fsync
   covers the whole burst, and gated sends are released when their LSN
   is durable. *)

let bench003_out = ref "bench/BENCH_003.json"

let bench003 () =
  heading "bench003"
    (Printf.sprintf "Durable-mode sweep (serial fsync vs group commit) -> %s%s"
       !bench003_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  (* Both policies are device-bound (5 ms/fsync), so client RTTs run to
     hundreds of ms under Sync_serial; the population and windows are
     sized so even the serial sweep reaches closed-loop steady state
     well inside the warm-up. *)
  let n_clients, warmup, duration =
    if !bench_quick then (100, 0.4, 0.8) else (400, 1.0, 2.0)
  in
  let run_pol cores pol =
    let p = Params.default ~profile:Params.parapluie ~n:3 ~cores () in
    Jp.run { p with n_clients; warmup; duration; sync_policy = pol }
  in
  let points =
    List.map
      (fun cores ->
         (cores, run_pol cores Params.Sync_serial,
          run_pol cores Params.Sync_group))
      [ 1; 8; 24 ]
  in
  Printf.printf "(n=3, parapluie, fsync latency %.0f ms)\n"
    (1e3 *. (Params.default ~n:3 ~cores:1 ()).fsync_latency);
  Printf.printf "%6s %15s %15s %8s %12s %12s\n" "cores" "serial (req/s)"
    "group (req/s)" "speedup" "group syncs" "recs/sync";
  List.iter
    (fun (cores, (s : Jp.result), (g : Jp.result)) ->
       Printf.printf "%6d %15.0f %15.0f %8.1f %12d %12.1f\n%!" cores
         s.throughput g.throughput
         (g.throughput /. s.throughput)
         g.wal_syncs g.wal_group_avg)
    points;
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_003");
        ("source", J.String "bench/main.exe bench003");
        ("quick", J.Bool !bench_quick);
        ("n", J.Int 3);
        ("profile", J.String "parapluie");
        ( "fsync_latency_s",
          J.Float (Params.default ~n:3 ~cores:1 ()).fsync_latency );
        ( "points",
          J.List
            (List.map
               (fun (cores, (s : Jp.result), (g : Jp.result)) ->
                  J.Obj
                    [ ("cores", J.Int cores);
                      ("serial_rps", J.Float s.throughput);
                      ("group_rps", J.Float g.throughput);
                      ("speedup", J.Float (g.throughput /. s.throughput));
                      ("group_wal_syncs", J.Int g.wal_syncs);
                      ("group_records_per_sync", J.Float g.wal_group_avg) ])
               points) ) ]
  in
  let oc = open_out !bench003_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench003_out

(* ------------------------------------------------------------------ *)
(* bench004: static vs adaptive BSZ/WND. The paper hand-picks its two
   headline knobs per deployment; the Autotune controller (DESIGN.md
   §11) tunes them online from queue/batch/latency signals. This sweep
   compares, for each (request size, cores) point:
     - static-default: the paper's WND=10 / BSZ=1300, untouched;
     - static-best:    the best point of a small static grid — the
                       hand-tuning the controller is meant to replace;
     - adaptive:       auto_tune from the default starting point.
   The gate (scripts/verify.sh) requires adaptive to beat the static
   default by >= 1.2x somewhere and to stay within 10% of static-best
   everywhere. *)

let bench004_out = ref "bench/BENCH_004.json"

let bench004 () =
  heading "bench004"
    (Printf.sprintf "Static vs adaptive BSZ/WND sweep -> %s%s" !bench004_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  (* The adaptive runs start from the static default and must converge
     inside the warm-up; a finer controller epoch compensates for the
     shorter quick windows. *)
  let warmup, duration, epoch =
    if !bench_quick then (0.4, 0.4, 0.004) else (0.8, 1.0, 0.01)
  in
  let static_grid = [ (10, 1300); (35, 1300); (10, 16384); (35, 16384) ] in
  let run ~cores ~size ?(auto = false) ~wnd ~bsz () =
    let p = Params.default ~profile:Params.parapluie ~n:3 ~cores () in
    Jp.run
      { p with
        request_size = size;
        wnd;
        bsz;
        warmup;
        duration;
        auto_tune = auto;
        tune_epoch = epoch }
  in
  Printf.printf "(n=3, parapluie; adaptive starts from WND=10, BSZ=1300)\n";
  Printf.printf "%6s %6s | %11s %11s %9s | %11s %7s %7s %6s %7s\n" "size"
    "cores" "default" "best" "best@" "adaptive" "vs_def" "vs_best" "wnd*"
    "bsz*";
  let point size cores =
    let statics =
      List.map
        (fun (w, b) -> ((w, b), (run ~cores ~size ~wnd:w ~bsz:b ()).Jp.throughput))
        static_grid
    in
    let default_rps = List.assoc (10, 1300) statics in
    let (best_wnd, best_bsz), best_rps =
      List.fold_left
        (fun (bk, bt) (key, t) -> if t > bt then (key, t) else (bk, bt))
        (List.hd statics) (List.tl statics)
    in
    let ad = run ~cores ~size ~auto:true ~wnd:10 ~bsz:1300 () in
    let vs_def = ad.Jp.throughput /. default_rps in
    let vs_best = ad.Jp.throughput /. best_rps in
    Printf.printf
      "%6d %6d | %10.1fK %10.1fK %4d/%-5d | %10.1fK %7.2f %7.2f %6d %7d\n%!"
      size cores (k default_rps) (k best_rps) best_wnd best_bsz
      (k ad.Jp.throughput) vs_def vs_best ad.Jp.tuned_wnd_final
      ad.Jp.tuned_bsz_final;
    J.Obj
      [ ("request_size", J.Int size);
        ("cores", J.Int cores);
        ("static_default_rps", J.Float default_rps);
        ("static_best_rps", J.Float best_rps);
        ("static_best_wnd", J.Int best_wnd);
        ("static_best_bsz", J.Int best_bsz);
        ("adaptive_rps", J.Float ad.Jp.throughput);
        ("adaptive_vs_default", J.Float vs_def);
        ("adaptive_vs_best", J.Float vs_best);
        ("tuned_wnd_final", J.Int ad.Jp.tuned_wnd_final);
        ("tuned_bsz_final", J.Int ad.Jp.tuned_bsz_final) ]
  in
  let points =
    List.concat_map
      (fun size -> List.map (point size) [ 1; 8; 24 ])
      [ 128; 1024; 8192 ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_004");
        ("source", J.String "bench/main.exe bench004");
        ("quick", J.Bool !bench_quick);
        ("n", J.Int 3);
        ("profile", J.String "parapluie");
        ("start_wnd", J.Int 10);
        ("start_bsz", J.Int 1300);
        ( "static_grid",
          J.List
            (List.map
               (fun (w, b) ->
                  J.Obj [ ("wnd", J.Int w); ("bsz", J.Int b) ])
               static_grid) );
        ("points", J.List points) ]
  in
  let oc = open_out !bench004_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench004_out

(* ------------------------------------------------------------------ *)
(* bench005: fault injection and recovery. Three sections:
     - crash: deterministic sim run with the leader crashed mid-
       measurement and restarted; reports the throughput trajectory
       through the fault, the recovery time, and the post-recovery /
       pre-crash throughput ratio (gated >= 0.9 in scripts/verify.sh);
     - soak: a seeded randomized fault schedule (crash + partition +
       lossy links) run twice, checking the linearizability verdict,
       replica convergence, and bit-identical reproducibility;
     - live: the real runtime — Fault_controller kills the leader of a
       Durable in-process cluster, restarts it through WAL recovery, and
       reports the replica fault counters and per-client retry/redirect
       counts (informational; the sim sections carry the gates). *)

let bench005_out = ref "bench/BENCH_005.json"

let bench005 () =
  heading "bench005"
    (Printf.sprintf "Fault injection: crash recovery + seeded chaos soak -> %s%s"
       !bench005_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let module F = Msmr_sim.Sfault in
  let quick = !bench_quick in
  let base ~duration ~client_timeout faults =
    let p = Params.default ~profile:Params.parapluie ~n:3 ~cores:2 () in
    { p with
      n_clients = 60;
      warmup = 0.1;
      duration;
      faults;
      chaos_seed = 42;
      chaos_client_timeout = client_timeout }
  in
  (* --- leader crash at mid-run, restart, measure the trajectory --- *)
  let crash_at, restart_at, duration, client_timeout =
    if quick then (0.3, 0.45, 0.7, 0.1) else (0.4, 0.7, 1.0, 0.25)
  in
  let p =
    base ~duration ~client_timeout
      [ F.Crash { node = 0; at = crash_at; restart_at = Some restart_at } ]
  in
  let r = Jp.run p in
  let bucket = p.chaos_bucket in
  let t_end = p.warmup +. p.duration in
  (* Clients stuck on the dethroned leader only give up after their
     retransmit timeout, so steady post-recovery throughput starts at
     restart + client timeout; the final timeline bucket is partial and
     excluded from both windows. *)
  let post_start = restart_at +. client_timeout in
  let window lo hi =
    let total = ref 0 and buckets = ref 0 in
    Array.iter
      (fun (t, c) ->
         if t >= lo -. 1e-9 && t +. bucket <= hi +. 1e-9 then begin
           total := !total + c;
           incr buckets
         end)
      r.Jp.timeline;
    if !buckets = 0 then 0.
    else float_of_int !total /. (float_of_int !buckets *. bucket)
  in
  let pre_rps = window p.warmup crash_at in
  let post_rps = window post_start t_end in
  let post_over_pre = if pre_rps > 0. then post_rps /. pre_rps else 0. in
  Printf.printf
    "crash: pre %.0f req/s | post %.0f req/s (ratio %.3f) | recovery %.3fs | \
     unavailable %.3fs | views %d | safety %b | client retries %d\n"
    pre_rps post_rps post_over_pre r.Jp.recovery_s r.Jp.unavailable_s
    r.Jp.view_changes r.Jp.safety_ok r.Jp.client_retries;
  Printf.printf "trajectory (completions per %.0f ms bucket):\n"
    (1e3 *. bucket);
  Array.iter
    (fun (t, c) ->
       if t +. bucket <= t_end +. 1e-9 then
         Printf.printf "  %5.2fs %6d %s\n" t c
           (String.make (min 60 (c / 50)) '#'))
    r.Jp.timeline;
  (* --- seeded randomized soak, run twice for reproducibility --- *)
  let seed = 42 in
  let soak_t0, soak_t1, soak_duration =
    if quick then (0.15, 0.55, 0.6) else (0.2, 1.0, 1.0)
  in
  let sp =
    base ~duration:soak_duration ~client_timeout
      (F.random_schedule ~seed ~n:3 ~t0:soak_t0 ~t1:soak_t1)
  in
  let s1 = Jp.run sp in
  let s2 = Jp.run sp in
  let runs_identical =
    s1.Jp.completed = s2.Jp.completed
    && s1.Jp.view_changes = s2.Jp.view_changes
    && s1.Jp.recovery_s = s2.Jp.recovery_s
    && s1.Jp.unavailable_s = s2.Jp.unavailable_s
    && s1.Jp.events = s2.Jp.events
  in
  let converged =
    s1.Jp.safety_ok && s1.Jp.executed_max - s1.Jp.executed_min <= 2000
  in
  Printf.printf
    "soak (seed %d): completed %d | views %d | recovery %.3fs | safety %b | \
     executed [%d, %d] | converged %b | runs identical %b\n"
    seed s1.Jp.completed s1.Jp.view_changes s1.Jp.recovery_s s1.Jp.safety_ok
    s1.Jp.executed_min s1.Jp.executed_max converged runs_identical;
  (* --- live runtime: kill + WAL-recover the leader under load --- *)
  let module R = Msmr_runtime in
  let tmp_root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msmr-bench005-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm_rf tmp_root;
  Unix.mkdir tmp_root 0o755;
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      max_batch_delay_s = 0.002;
      fd_interval_s = 0.05;
      fd_timeout_s = 0.25 }
  in
  let cluster =
    R.Replica.Cluster.create
      ~durability:(fun me ->
          R.Replica.Durable
            { dir = Filename.concat tmp_root (string_of_int me);
              sync = Msmr_storage.Wal.No_sync })
      ~cfg
      ~service:(fun () -> R.Service.null ())
      ()
  in
  let fc = R.Fault_controller.create ~cluster () in
  let live_json =
    Fun.protect
      ~finally:(fun () ->
          R.Replica.Cluster.stop cluster;
          rm_rf tmp_root)
    @@ fun () ->
    ignore (R.Replica.Cluster.await_leader cluster);
    let live_dur = if quick then 1.0 else 2.0 in
    let n_clients = 4 in
    let stop_at =
      Int64.add (Msmr_platform.Mclock.now_ns ())
        (Msmr_platform.Mclock.ns_of_s live_dur)
    in
    let completed = Atomic.make 0 in
    let per_client = Array.make n_clients (0, 0, 0) in
    let workers =
      List.init n_clients (fun i ->
          Thread.create
            (fun () ->
               let client =
                 R.Client.create ~timeout_s:0.3 ~cluster ~client_id:(i + 1) ()
               in
               let payload = Bytes.make 112 'x' in
               while
                 Int64.compare (Msmr_platform.Mclock.now_ns ()) stop_at < 0
               do
                 ignore (R.Client.call client payload);
                 ignore (Atomic.fetch_and_add completed 1)
               done;
               per_client.(i) <-
                 ( R.Client.calls_made client,
                   R.Client.retries client,
                   R.Client.redirects client ))
            ())
    in
    Msmr_platform.Mclock.sleep_s (0.3 *. live_dur);
    let victim = R.Fault_controller.kill_leader fc in
    Msmr_platform.Mclock.sleep_s (0.2 *. live_dur);
    ignore (R.Fault_controller.restart fc victim);
    List.iter Thread.join workers;
    let sum f =
      Array.fold_left
        (fun acc rep -> acc + f rep)
        0
        (R.Replica.Cluster.replicas cluster)
    in
    let view_changes = sum R.Replica.view_changes_count in
    let suspects = sum R.Replica.suspects_count in
    let retries =
      Array.fold_left (fun acc (_, r, _) -> acc + r) 0 per_client
    in
    let redirects =
      Array.fold_left (fun acc (_, _, r) -> acc + r) 0 per_client
    in
    Printf.printf
      "live: killed replica %d under load, WAL-recovered it | completed %d | \
       views %d | suspects %d | client retries %d redirects %d\n%!"
      victim (Atomic.get completed) view_changes suspects retries redirects;
    J.Obj
      [ ("kills", J.Int (R.Fault_controller.kills fc));
        ("restarts", J.Int (R.Fault_controller.restarts fc));
        ("killed_replica", J.Int victim);
        ("completed", J.Int (Atomic.get completed));
        ("view_changes", J.Int view_changes);
        ("suspects", J.Int suspects);
        ("client_retries", J.Int retries);
        ("client_redirects", J.Int redirects);
        ( "clients",
          J.List
            (Array.to_list
               (Array.mapi
                  (fun i (calls, rtr, rdr) ->
                     J.Obj
                       [ ("client_id", J.Int (i + 1));
                         ("calls", J.Int calls);
                         ("retries", J.Int rtr);
                         ("redirects", J.Int rdr) ])
                  per_client)) ) ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_005");
        ("source", J.String "bench/main.exe bench005");
        ("quick", J.Bool quick);
        ( "crash",
          J.Obj
            [ ("n", J.Int 3);
              ("cores", J.Int 2);
              ("n_clients", J.Int 60);
              ("crash_at_s", J.Float crash_at);
              ("restart_at_s", J.Float restart_at);
              ("pre_rps", J.Float pre_rps);
              ("post_rps", J.Float post_rps);
              ("post_over_pre", J.Float post_over_pre);
              ("recovery_s", J.Float r.Jp.recovery_s);
              ("unavailable_s", J.Float r.Jp.unavailable_s);
              ("view_changes", J.Int r.Jp.view_changes);
              ("safety_ok", J.Bool r.Jp.safety_ok);
              ("client_retries", J.Int r.Jp.client_retries);
              ( "timeline",
                J.List
                  (Array.to_list
                     (Array.map
                        (fun (t, c) ->
                           J.Obj [ ("t", J.Float t); ("completed", J.Int c) ])
                        r.Jp.timeline)) ) ] );
        ( "soak",
          J.Obj
            [ ("seed", J.Int seed);
              ("completed", J.Int s1.Jp.completed);
              ("view_changes", J.Int s1.Jp.view_changes);
              ("recovery_s", J.Float s1.Jp.recovery_s);
              ("unavailable_s", J.Float s1.Jp.unavailable_s);
              ("safety_ok", J.Bool s1.Jp.safety_ok);
              ("executed_min", J.Int s1.Jp.executed_min);
              ("executed_max", J.Int s1.Jp.executed_max);
              ("client_retries", J.Int s1.Jp.client_retries);
              ("converged", J.Bool converged);
              ("runs_identical", J.Bool runs_identical) ] );
        ("live", live_json) ]
  in
  let oc = open_out !bench005_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench005_out

(* ------------------------------------------------------------------ *)
(* bench006: compartmentalized multi-group Paxos. A single group is
   NIC-bound at its leader (~150K pps through one kernel stack), so the
   classic deployment flattens near ~115K req/s regardless of cores.
   Group g is led by node g mod n: every extra group adds another
   leader NIC to the aggregate budget. This sweep measures throughput
   for groups in {1, 2, 4} at 8 and 24 cores (n=3, parapluie), records
   the per-group split, and exercises the cross-group Global barrier on
   a mixed workload (conflict_ratio > 0 forces quiescence barriers
   through group 0). The committed run is gated in scripts/verify.sh:
   groups=4 at 24 cores must reach >= 2x the single-group throughput. *)

let bench006_out = ref "bench/BENCH_006.json"

let bench006 () =
  heading "bench006"
    (Printf.sprintf "Multi-group Paxos scaling -> %s%s" !bench006_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let warmup, duration = if !bench_quick then (0.1, 0.3) else (0.3, 1.0) in
  let run ~groups ~cores ?(conflict_ratio = 0.0) () =
    let p = Params.default ~profile:Params.parapluie ~n:3 ~cores () in
    Jp.run { p with groups; warmup; duration; conflict_ratio }
  in
  let group_pts = [ 1; 2; 4 ] and core_pts = [ 8; 24 ] in
  let rows =
    List.concat_map
      (fun cores ->
         List.map (fun groups -> (groups, cores, run ~groups ~cores ()))
           group_pts)
      core_pts
  in
  let base cores =
    let _, _, r =
      List.find (fun (g, c, _) -> g = 1 && c = cores) rows
    in
    r.Jp.throughput
  in
  Printf.printf "(n=3, parapluie; group g led by node g mod 3)\n";
  Printf.printf "%7s %6s %14s %8s  %s\n" "groups" "cores" "req/s (x1000)"
    "vs g=1" "per-group (x1000)";
  List.iter
    (fun (groups, cores, (r : Jp.result)) ->
       Printf.printf "%7d %6d %14.1f %8.2f  [%s]\n%!" groups cores
         (k r.throughput)
         (r.throughput /. base cores)
         (String.concat "; "
            (List.map
               (fun t -> Printf.sprintf "%.1f" (k t))
               (Array.to_list r.group_throughputs))))
    rows;
  (* Cross-group barrier: a slice of requests classified Global must
     drain every group before executing serially through group 0. *)
  let cr = 0.05 in
  let b = run ~groups:4 ~cores:24 ~conflict_ratio:cr () in
  Printf.printf
    "barrier (groups=4, 24 cores, %.0f%% Global): %.1fK req/s, %d globals \
     executed\n%!"
    (100. *. cr) (k b.throughput) b.globals_executed;
  let point (groups, cores, (r : Jp.result)) =
    J.Obj
      [ ("groups", J.Int groups);
        ("cores", J.Int cores);
        ("throughput_rps", J.Float r.throughput);
        ("speedup_vs_g1", J.Float (r.throughput /. base cores));
        ( "group_throughputs_rps",
          J.List
            (List.map (fun t -> J.Float t) (Array.to_list r.group_throughputs))
        ) ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_006");
        ("source", J.String "bench/main.exe bench006");
        ("quick", J.Bool !bench_quick);
        ("n", J.Int 3);
        ("profile", J.String "parapluie");
        ("points", J.List (List.map point rows));
        ( "barrier",
          J.Obj
            [ ("groups", J.Int 4);
              ("cores", J.Int 24);
              ("conflict_ratio", J.Float cr);
              ("throughput_rps", J.Float b.throughput);
              ("globals_executed", J.Int b.globals_executed) ] ) ]
  in
  let oc = open_out !bench006_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench006_out

(* ------------------------------------------------------------------ *)
(* bench007: work-stealing executors (simulator). The execution-bound
   workload of bench002 at 4 executors, swept over client skew (fraction
   of "hot" clients whose conflict keys all home on executor 0) with the
   work-stealing pool on and off. Fixed routing convoys the hot lanes on
   one executor; stealing spreads their tokens over the pool. Gate:
   steal_speedup_hot >= 1.5 at skew 0.9. *)

let bench007_out = ref "bench/BENCH_007.json"

let bench007 () =
  heading "bench007"
    (Printf.sprintf
       "Work-stealing executors -> %s%s"
       !bench007_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let quick = !bench_quick in
  let warmup, duration = if quick then (0.05, 0.1) else (0.2, 0.5) in
  (* 150 clients: enough to saturate the 4-executor pool (80 K req/s)
     when balanced, few enough that the cold minority cannot mask the
     executor-0 convoy under fixed routing (closed-loop clients have no
     think time, so a large cold population would simply speed up and
     fill the idle executors). *)
  let sim_run ~skew ~steal =
    let p = Params.default ~n:3 ~cores:16 () in
    Jp.run
      { p with
        n_clients = 150;
        warmup;
        duration;
        costs = { p.costs with exec_per_req = 50e-6 };
        exec_threads = 4;
        steal;
        skew }
  in
  let skews = [ 0.0; 0.5; 0.9 ] in
  let rows =
    List.map
      (fun skew ->
         let off = sim_run ~skew ~steal:false in
         let on = sim_run ~skew ~steal:true in
         (skew, off, on))
      skews
  in
  Printf.printf
    "steal vs fixed routing (n=3, 16 cores, 4 executors, exec-bound):\n";
  Printf.printf "%6s %16s %16s %8s %8s\n" "skew" "fixed req/s" "steal req/s"
    "speedup" "steals";
  List.iter
    (fun (skew, (off : Jp.result), (on : Jp.result)) ->
       Printf.printf "%6.2f %16.1f %16.1f %8.2f %8d\n%!" skew (k off.throughput)
         (k on.throughput)
         (on.throughput /. off.throughput)
         on.steals)
    rows;
  let hot_speedup =
    let _, off, on = List.find (fun (s, _, _) -> s = 0.9) rows in
    on.Jp.throughput /. off.Jp.throughput
  in
  Printf.printf "steal speedup at skew 0.9: %.2fx (gate >= 1.5)\n%!"
    hot_speedup;
  let sim_point (skew, (off : Jp.result), (on : Jp.result)) =
    J.Obj
      [ ("skew", J.Float skew);
        ("nosteal_rps", J.Float off.throughput);
        ("steal_rps", J.Float on.throughput);
        ("speedup", J.Float (on.throughput /. off.throughput));
        ("steals", J.Int on.steals) ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_007");
        ("source", J.String "bench/main.exe bench007");
        ("quick", J.Bool quick);
        ( "sim",
          J.Obj
            [ ("n", J.Int 3);
              ("cores", J.Int 16);
              ("exec_threads", J.Int 4);
              ("n_clients", J.Int 150);
              ("exec_per_req_us", J.Float 50.0);
              ("points", J.List (List.map sim_point rows));
              ("steal_speedup_hot", J.Float hot_speedup) ] ) ]
  in
  let oc = open_out !bench007_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench007_out

(* ------------------------------------------------------------------ *)
(* bench008: the read-heavy fast path (leader leases). Sweep of the
   simulated cluster (n=5, 8 cores) over

     read mix      95/5 and 50/50 reads/writes
     read path     ordered  (lease off: reads ride Batcher/Paxos — the
                             ordered-read baseline)
                   lease    (linearizable reads at the leaseholder)
                   stale    (bounded-staleness reads spread over all
                             replicas)
     groups        1 and 4

   The ordered baseline is leader-NIC-bound like any write workload;
   linearizable leases lift the Batcher/Paxos cost but still converge on
   one leader's NIC; bounded-staleness reads are the tentpole — every
   replica's NIC serves its share, so read throughput scales with the
   cluster. Gate: stale/ordered >= 5 at 95/5, groups=1. *)

let bench008_out = ref "bench/BENCH_008.json"

let bench008 () =
  heading "bench008"
    (Printf.sprintf "Read-heavy fast path (leases) -> %s%s" !bench008_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let quick = !bench_quick in
  let warmup, duration, n_clients =
    if quick then (0.05, 0.15, 300) else (0.2, 0.5, 1200)
  in
  let run ~ratio ~groups ~lease ~stale =
    let p = Params.default ~n:5 ~cores:8 () in
    Jp.run
      { p with
        groups;
        n_clients;
        warmup;
        duration;
        read_ratio = ratio;
        lease;
        stale_reads = stale;
        clock_skew = 0.002;
        lease_duration = 0.5 }
  in
  let modes =
    [ ("ordered", false, false); ("lease", true, false);
      ("stale", true, true) ]
  in
  Printf.printf "read fast path (n=5, 8 cores, %d clients):\n" n_clients;
  Printf.printf "%6s %7s %8s %12s %10s %8s %8s\n" "mix" "groups" "mode"
    "total req/s" "reads/s" "rejects" "safe";
  let rows =
    List.concat_map
      (fun ratio ->
         List.concat_map
           (fun groups ->
              List.map
                (fun (mode, lease, stale) ->
                   let r = run ~ratio ~groups ~lease ~stale in
                   let reads_rps =
                     float_of_int r.Jp.reads_completed /. duration
                   in
                   Printf.printf "%6.2f %7d %8s %12.1f %10.1f %8d %8b\n%!"
                     ratio groups mode (k r.throughput) (k reads_rps)
                     r.read_rejects r.safety_ok;
                   (ratio, groups, mode, r))
                modes)
           [ 1; 4 ])
      [ 0.95; 0.5 ]
  in
  let rps ratio groups mode =
    let _, _, _, r =
      List.find
        (fun (ra, g, m, _) -> ra = ratio && g = groups && m = mode)
        rows
    in
    r.Jp.throughput
  in
  let stale_speedup = rps 0.95 1 "stale" /. rps 0.95 1 "ordered" in
  Printf.printf
    "stale-read speedup over the ordered baseline at 95/5, groups=1: %.2fx \
     (gate >= 5)\n%!"
    stale_speedup;
  let point (ratio, groups, mode, (r : Jp.result)) =
    J.Obj
      [ ("read_ratio", J.Float ratio);
        ("groups", J.Int groups);
        ("mode", J.String mode);
        ("throughput_rps", J.Float r.throughput);
        ("reads_rps", J.Float (float_of_int r.reads_completed /. duration));
        ("read_rejects", J.Int r.read_rejects);
        ("stale_answers", J.Int r.stale_answers);
        ("safety_ok", J.Bool r.safety_ok) ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_008");
        ("source", J.String "bench/main.exe bench008");
        ("quick", J.Bool quick);
        ("n", J.Int 5);
        ("cores", J.Int 8);
        ("n_clients", J.Int n_clients);
        ("lease_duration_s", J.Float 0.5);
        ("clock_skew_s", J.Float 0.002);
        ("points", J.List (List.map point rows));
        ("stale_speedup_95_g1", J.Float stale_speedup) ]
  in
  let oc = open_out !bench008_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench008_out

(* ------------------------------------------------------------------ *)
(* bench009: early scheduling + optimistic speculative execution
   (DESIGN.md section 16). Sweep of the simulated cluster (n=3, 8
   cores, 4 executors, work-stealing) over

     speculation   off (ordered execution after decide — the PR 7
                       baseline) and on (pre-dispatch at ingress +
                       optimistic execution against predicted order)
     skew          0.0 (uniform keys) and 0.9 (hot-key convoy)
     groups        1 and 4

   The headline is the commit->execute gap: with speculation on, the
   optimistic result is already staged when the decide arrives, so the
   decide->reply latency collapses to a confirm. Gate:
   ce_off / ce_on >= 2 at skew 0.9, groups=1.

   A chaos-reorder soak then makes rollback falsifiable: the leader
   crashes mid-speculation (plus a forced-mispredict floor pattern),
   every open frame must abort, the linearizability verdict must hold,
   and a rerun must be bit-identical. *)

let bench009_out = ref "bench/BENCH_009.json"

let bench009 () =
  heading "bench009"
    (Printf.sprintf
       "Speculative execution: commit->execute gap -> %s%s" !bench009_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let module F = Msmr_sim.Sfault in
  let quick = !bench_quick in
  let warmup, duration, n_clients =
    if quick then (0.05, 0.2, 200) else (0.2, 0.8, 400)
  in
  let run ~spec ~skew ~groups =
    let p = Params.default ~n:3 ~cores:8 () in
    Jp.run
      { p with
        groups;
        n_clients;
        warmup;
        duration;
        exec_threads = 4;
        steal = true;
        skew;
        speculate = spec }
  in
  Printf.printf
    "speculative execution (n=3, 8 cores, 4 executors, %d clients):\n"
    n_clients;
  Printf.printf "%5s %7s %5s %12s %10s %9s %9s %8s %6s\n" "skew" "groups"
    "spec" "total req/s" "ce lat" "dispatch" "confirm" "abort" "safe";
  let rows =
    List.concat_map
      (fun skew ->
         List.concat_map
           (fun groups ->
              List.map
                (fun spec ->
                   let r = run ~spec ~skew ~groups in
                   Printf.printf
                     "%5.2f %7d %5s %12.1f %9.1fus %9d %9d %8d %6b\n%!"
                     skew groups
                     (if spec then "on" else "off")
                     (k r.Jp.throughput)
                     (1e6 *. r.Jp.commit_exec_latency)
                     r.Jp.spec_dispatched r.Jp.spec_confirmed
                     r.Jp.spec_aborted r.Jp.safety_ok;
                   (skew, groups, spec, r))
                [ false; true ])
           [ 1; 4 ])
      [ 0.0; 0.9 ]
  in
  let ce skew groups spec =
    let _, _, _, r =
      List.find
        (fun (s, g, sp, _) -> s = skew && g = groups && sp = spec)
        rows
    in
    r.Jp.commit_exec_latency
  in
  let ce_speedup =
    let off = ce 0.9 1 false and on = ce 0.9 1 true in
    if on > 0. then off /. on else 0.
  in
  Printf.printf
    "commit->execute speedup spec-on vs off at skew 0.9, groups=1: %.2fx \
     (gate >= 2)\n%!"
    ce_speedup;
  (* --- chaos-reorder soak: leader crash mid-speculation + forced
     mispredicts; every open frame aborts, safety holds, reruns are
     bit-identical --- *)
  let crash_at, restart_at, chaos_duration =
    if quick then (0.4, 0.7, 1.0) else (0.8, 1.4, 2.0)
  in
  let chaos_p =
    let p = Params.default ~n:3 ~cores:8 () in
    { p with
      n_clients = 100;
      warmup = 0.2;
      duration = chaos_duration;
      exec_threads = 4;
      steal = true;
      skew = 0.5;
      speculate = true;
      mispredict_ratio = 0.1;
      faults = [ F.Crash { node = 0; at = crash_at; restart_at = Some restart_at } ];
      chaos_seed = 7;
      chaos_client_timeout = 0.25 }
  in
  let c1 = Jp.run chaos_p in
  let c2 = Jp.run chaos_p in
  let fp (r : Jp.result) =
    ( r.completed, r.spec_dispatched, r.spec_confirmed, r.spec_aborted,
      r.view_changes, r.executed_min, r.executed_max, r.events )
  in
  let chaos_deterministic = fp c1 = fp c2 in
  Printf.printf
    "chaos soak (leader crash %.1fs, restart %.1fs, mispredict 0.10): \
     dispatched %d | confirmed %d | aborted %d | views %d | safe %b | \
     deterministic %b\n%!"
    crash_at restart_at c1.Jp.spec_dispatched c1.Jp.spec_confirmed
    c1.Jp.spec_aborted c1.Jp.view_changes c1.Jp.safety_ok chaos_deterministic;
  let point (skew, groups, spec, (r : Jp.result)) =
    J.Obj
      [ ("skew", J.Float skew);
        ("groups", J.Int groups);
        ("speculate", J.Bool spec);
        ("throughput_rps", J.Float r.throughput);
        ("commit_exec_latency_s", J.Float r.commit_exec_latency);
        ("spec_dispatched", J.Int r.spec_dispatched);
        ("spec_confirmed", J.Int r.spec_confirmed);
        ("spec_aborted", J.Int r.spec_aborted);
        ("safety_ok", J.Bool r.safety_ok) ]
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_009");
        ("source", J.String "bench/main.exe bench009");
        ("quick", J.Bool quick);
        ("n", J.Int 3);
        ("cores", J.Int 8);
        ("exec_threads", J.Int 4);
        ("n_clients", J.Int n_clients);
        ("points", J.List (List.map point rows));
        ("ce_speedup_skew09_g1", J.Float ce_speedup);
        ( "chaos",
          J.Obj
            [ ("crash_at_s", J.Float crash_at);
              ("restart_at_s", J.Float restart_at);
              ("mispredict_ratio", J.Float 0.1);
              ("chaos_seed", J.Int 7);
              ("spec_dispatched", J.Int c1.Jp.spec_dispatched);
              ("spec_confirmed", J.Int c1.Jp.spec_confirmed);
              ("spec_aborted", J.Int c1.Jp.spec_aborted);
              ("view_changes", J.Int c1.Jp.view_changes);
              ("safety_ok", J.Bool c1.Jp.safety_ok);
              ("deterministic", J.Bool chaos_deterministic) ] ) ]
  in
  let oc = open_out !bench009_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench009_out

(* bench010: online membership change under load (DESIGN.md section
   17). Simulated arms on the capacity-5 cluster (members0 = {0,1,2}):

     static     3 voters for the whole run (baseline; a no-op link rule
                keeps the chaos machinery engaged so both arms pay the
                same bookkeeping)
     reconfig   grow 3->5 mid-run (add-learner + promote per joiner),
                then shrink 5->3 -- six consensus-ordered epochs, all
                under the same closed-loop load
     crash      grow 3->4 with the joiner crashing mid state transfer
                and restarting; the schedule must still complete

   Gates: the reconfig arm stays linearizable, completes the full
   schedule (epoch 6), and keeps >= 0.9x the static arm's throughput;
   both chaos arms rerun bit-identically. A live arm then drives the
   real runtime through the same 3->5->3 walk: spares join via
   snapshot-based state transfer while closed-loop clients keep
   calling, removed nodes fence themselves, and an exactly-once sum
   check audits the whole run. *)

let bench010_out = ref "bench/BENCH_010.json"

let bench010 () =
  heading "bench010"
    (Printf.sprintf
       "Online reconfiguration: grow/shrink under load -> %s%s"
       !bench010_out
       (if !bench_quick then " (--quick)" else ""));
  let module J = Msmr_obs.Json in
  let module F = Msmr_sim.Sfault in
  let quick = !bench_quick in
  let warmup, duration, n_clients =
    if quick then (0.05, 0.8, 60) else (0.2, 2.4, 200)
  in
  let grow_at, shrink_at = if quick then (0.2, 0.5) else (0.5, 1.5) in
  (* Active-never link rule: flips the model onto the chaos path (FD,
     drifted clocks, client timeouts) without perturbing any message,
     so the static baseline pays the same machinery as the reconfig
     arms. *)
  let noop_fault =
    F.Link
      { l_src = -1; l_dst = -1; drop = 0.; dup = 0.; delay_s = 0.;
        jitter_s = 0.; from_t = 0.; until_t = 0. }
  in
  let base () =
    let p = Params.default ~n:5 ~cores:4 () in
    { p with
      n_clients;
      warmup;
      duration;
      members0 = [ 0; 1; 2 ];
      faults = [ noop_fault ];
      chaos_seed = 7 }
  in
  let p_static = base () in
  let p_reconfig =
    { (base ()) with
      reconfig_at =
        [ (grow_at, [ 0; 1; 2; 3; 4 ]); (shrink_at, [ 0; 1; 2 ]) ] }
  in
  let fp (r : Jp.result) =
    ( r.completed, r.reconfigs_applied, r.final_epoch, r.view_changes,
      r.executed_min, r.executed_max, r.events )
  in
  let r_static = Jp.run p_static in
  let r1 = Jp.run p_reconfig in
  let r2 = Jp.run p_reconfig in
  let runs_identical = fp r1 = fp r2 in
  let tput_ratio =
    if r_static.Jp.throughput > 0. then
      r1.Jp.throughput /. r_static.Jp.throughput
    else 0.
  in
  Printf.printf
    "sim (capacity 5, members {0,1,2}, %d clients, %.1fs):\n" n_clients
    duration;
  Printf.printf "%-10s %12s %8s %7s %7s %6s\n" "arm" "total req/s"
    "epochs" "applied" "views" "safe";
  let row name (r : Jp.result) =
    Printf.printf "%-10s %12.1f %8d %7d %7d %6b\n%!" name
      (k r.Jp.throughput) r.Jp.final_epoch r.Jp.reconfigs_applied
      r.Jp.view_changes r.Jp.safety_ok
  in
  row "static" r_static;
  row "reconfig" r1;
  Printf.printf
    "reconfig/static throughput ratio %.3f (gate >= 0.9) | \
     bit-identical rerun %b\n%!"
    tput_ratio runs_identical;
  (* --- joiner crashes mid state transfer --- *)
  let p_crash =
    { (base ()) with
      reconfig_at = [ (grow_at, [ 0; 1; 2; 3 ]) ];
      faults =
        [ F.Crash
            { node = 3;
              at = grow_at +. 0.05;
              restart_at = Some (grow_at +. 0.2) } ] }
  in
  let c1 = Jp.run p_crash in
  let c2 = Jp.run p_crash in
  let crash_identical = fp c1 = fp c2 in
  row "crash" c1;
  Printf.printf
    "joiner crash mid-transfer: schedule completed %b | safe %b | \
     bit-identical rerun %b\n%!"
    (c1.Jp.final_epoch >= 2) c1.Jp.safety_ok crash_identical;
  (* --- live arm: the real runtime walks 3 -> 5 -> 3 under load --- *)
  let module R = Msmr_runtime in
  let live_clients = if quick then 2 else 4 in
  let steady_s = if quick then 0.2 else 0.6 in
  let cfg =
    { (Msmr_consensus.Config.default ~n:5) with
      members0 = [ 0; 1; 2 ];
      max_batch_delay_s = 0.002;
      snapshot_every = 32;
      log_retain = 8 }
  in
  let cluster =
    R.Replica.Cluster.create ~cfg
      ~service:(fun () -> R.Service.accumulator ())
      ()
  in
  Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
  @@ fun () ->
  ignore (R.Replica.Cluster.await_leader cluster);
  let replicas = R.Replica.Cluster.replicas cluster in
  let stop = Atomic.make false in
  let completed = Atomic.make 0 in
  let loaders =
    List.init live_clients (fun i ->
        Thread.create
          (fun () ->
             let client =
               R.Client.create ~cluster ~client_id:(1 + i) ()
             in
             let one = Bytes.of_string "1" in
             while not (Atomic.get stop) do
               ignore (R.Client.call client one);
               ignore (Atomic.fetch_and_add completed 1)
             done)
          ())
  in
  let t0 = Unix.gettimeofday () in
  let live_result =
    Fun.protect
      ~finally:(fun () ->
          Atomic.set stop true;
          List.iter Thread.join loaders)
    @@ fun () ->
    Msmr_platform.Mclock.sleep_s steady_s;  (* build a log worth transferring *)
    let t_grow0 = Unix.gettimeofday () in
    R.Replica.Cluster.join cluster 3;
    R.Replica.Cluster.join cluster 4;
    let grow_s = Unix.gettimeofday () -. t_grow0 in
    Msmr_platform.Mclock.sleep_s steady_s;  (* steady at five voters *)
    let t_shrink0 = Unix.gettimeofday () in
    R.Replica.Cluster.decommission cluster 4;
    R.Replica.Cluster.decommission cluster 3;
    let shrink_s = Unix.gettimeofday () -. t_shrink0 in
    Msmr_platform.Mclock.sleep_s steady_s;
    (grow_s, shrink_s)
  in
  let grow_s, shrink_s = live_result in
  let elapsed = Unix.gettimeofday () -. t0 in
  let done_calls = Atomic.get completed in
  let live_tput = float_of_int done_calls /. elapsed in
  (* Exactly-once audit: every completed "1" executed exactly once. *)
  let verifier = R.Client.create ~cluster ~client_id:97 () in
  let final_sum =
    int_of_string (Bytes.to_string (R.Client.call verifier (Bytes.of_string "0")))
  in
  let exactly_once = final_sum = done_calls in
  let leader = R.Replica.Cluster.leader cluster in
  let m_final = R.Replica.membership leader in
  let final_voters = Msmr_consensus.Membership.n_voters m_final in
  let joiner_snapshots = R.Replica.snapshot_installs_count replicas.(3) in
  let leader_reconfigs = R.Replica.reconfigs_applied_count leader in
  let fenced =
    (not (R.Replica.is_member replicas.(3)))
    && not (R.Replica.is_member replicas.(4))
  in
  Printf.printf
    "live (capacity 5, %d clients): %.0f req/s | %d calls | grow %.2fs | \
     shrink %.2fs | joiner snapshot installs %d | epochs applied %d | \
     final voters %d | removed fenced %b | exactly-once %b\n%!"
    live_clients live_tput done_calls grow_s shrink_s joiner_snapshots
    leader_reconfigs final_voters fenced exactly_once;
  let sim_point name (r : Jp.result) =
    ( name,
      J.Obj
        [ ("throughput_rps", J.Float r.throughput);
          ("completed", J.Int r.completed);
          ("final_epoch", J.Int r.final_epoch);
          ("reconfigs_applied", J.Int r.reconfigs_applied);
          ("view_changes", J.Int r.view_changes);
          ("safety_ok", J.Bool r.safety_ok) ] )
  in
  let json =
    J.Obj
      [ ("bench", J.String "BENCH_010");
        ("source", J.String "bench/main.exe bench010");
        ("quick", J.Bool quick);
        ("capacity", J.Int 5);
        ("members0", J.List (List.map (fun i -> J.Int i) [ 0; 1; 2 ]));
        ("n_clients", J.Int n_clients);
        ( "sim",
          J.Obj
            [ sim_point "static" r_static;
              sim_point "reconfig" r1;
              sim_point "crash_join" c1;
              ("throughput_ratio", J.Float tput_ratio);
              ("runs_identical", J.Bool runs_identical);
              ("crash_runs_identical", J.Bool crash_identical) ] );
        ( "live",
          J.Obj
            [ ("n_clients", J.Int live_clients);
              ("throughput_rps", J.Float live_tput);
              ("completed", J.Int done_calls);
              ("grow_s", J.Float grow_s);
              ("shrink_s", J.Float shrink_s);
              ("joiner_snapshot_installs", J.Int joiner_snapshots);
              ("reconfigs_applied", J.Int leader_reconfigs);
              ("final_voters", J.Int final_voters);
              ("removed_fenced", J.Bool fenced);
              ("exactly_once_ok", J.Bool exactly_once) ] ) ]
  in
  let oc = open_out !bench010_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !bench010_out

(* ------------------------------------------------------------------ *)
(* Observability: --trace FILE runs a short traced simulation and writes
   a Chrome trace_event file; --metrics FILE dumps the metrics registry.
   See docs/OBSERVABILITY.md. *)

let trace_run ~trace_file () =
  heading "trace" "Traced simulator run (Chrome trace_event export)";
  let p = Params.default ~profile:Params.parapluie ~n:3 ~cores:24 () in
  let p = { p with warmup = 0.3; duration = 0.3 } in
  let r = Jp.run ~trace:true p in
  let tr = Option.get r.trace in
  Msmr_obs.Trace_export.write_file tr trace_file;
  Printf.printf
    "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n"
    trace_file;
  let dropped = Msmr_obs.Trace_export.total_dropped tr in
  if dropped > 0 then
    Printf.printf "warning: %d events dropped to ring wrap-around\n" dropped;
  (* Cross-check: per-thread span totals in the trace must reproduce the
     simulator's exact Sstats integrals (the spans *are* the
     accounting, so any divergence is a bug or ring overflow). *)
  let span = Msmr_obs.Trace_export.span_totals tr in
  let span_s pid tname state =
    match List.assoc_opt (pid, tname, state) span with
    | Some ns -> Int64.to_float ns /. 1e9
    | None -> 0.
  in
  let worst = ref 0. in
  Array.iteri
    (fun pid (rep : Jp.replica_report) ->
       List.iter
         (fun (tname, (tot : Sstats.totals)) ->
            List.iter
              (fun (state, v) ->
                 let dev = Float.abs (span_s pid tname state -. v) in
                 if dev > !worst then worst := dev)
              [ ("busy", tot.busy); ("blocked", tot.blocked);
                ("waiting", tot.waiting); ("other", tot.other) ])
         rep.threads)
    r.replicas;
  let worst_pct = 100. *. !worst /. p.duration in
  Printf.printf
    "span totals vs Sstats integrals: worst deviation %.3f%% of the run%s\n"
    worst_pct
    (if worst_pct <= 1.0 then " (ok, within 1%)" else " (MISMATCH)");
  (* The trace must cover the module taxonomy, not just one stage. *)
  let cats = Hashtbl.create 8 in
  List.iter
    (fun trk ->
       List.iter
         (fun (e : Msmr_obs.Trace.event) ->
            match e.ph with
            | Msmr_obs.Trace.Span _ -> Hashtbl.replace cats e.cat ()
            | _ -> ())
         (Msmr_obs.Trace.events trk))
    (Msmr_obs.Trace.tracks tr);
  let have = Hashtbl.fold (fun c () acc -> c :: acc) cats [] in
  Printf.printf "span modules present: %s\n%!"
    (String.concat ", " (List.sort compare have))

let experiments =
  [ ("fig1", fig1); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6);
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9); ("tab1", tab1);
    ("fig10", fig10); ("tab2", tab2); ("fig11", fig11); ("tab3", tab3);
    ("fig12", fig12); ("fig13", fig13); ("fig14", fig14); ("ext", ext);
    ("live", live); ("live-mono", live_mono); ("ablation", ablation);
    ("micro", micro); ("bench002", bench002); ("bench003", bench003);
    ("bench004", bench004); ("bench005", bench005); ("bench006", bench006);
    ("bench007", bench007); ("bench008", bench008);
    ("bench009", bench009); ("bench010", bench010) ]

let () =
  let rec parse ids trace metrics = function
    | [] -> (List.rev ids, trace, metrics)
    | "--trace" :: file :: rest -> parse ids (Some file) metrics rest
    | "--metrics" :: file :: rest -> parse ids trace (Some file) rest
    | "--bench-out" :: file :: rest ->
      bench_out := file;
      parse ids trace metrics rest
    | "--bench003-out" :: file :: rest ->
      bench003_out := file;
      parse ids trace metrics rest
    | "--bench004-out" :: file :: rest ->
      bench004_out := file;
      parse ids trace metrics rest
    | "--bench005-out" :: file :: rest ->
      bench005_out := file;
      parse ids trace metrics rest
    | "--bench006-out" :: file :: rest ->
      bench006_out := file;
      parse ids trace metrics rest
    | "--bench007-out" :: file :: rest ->
      bench007_out := file;
      parse ids trace metrics rest
    | "--bench008-out" :: file :: rest ->
      bench008_out := file;
      parse ids trace metrics rest
    | "--bench009-out" :: file :: rest ->
      bench009_out := file;
      parse ids trace metrics rest
    | "--bench010-out" :: file :: rest ->
      bench010_out := file;
      parse ids trace metrics rest
    | "--quick" :: rest ->
      bench_quick := true;
      parse ids trace metrics rest
    | ("--trace" | "--metrics" | "--bench-out" | "--bench003-out"
      | "--bench004-out" | "--bench005-out" | "--bench006-out"
      | "--bench007-out" | "--bench008-out" | "--bench009-out"
      | "--bench010-out") :: [] ->
      Printf.eprintf
        "usage: main [EXPERIMENT..] [--trace FILE] [--metrics FILE]\n\
        \       [--quick] [--bench-out FILE] [--bench003-out FILE]\n\
        \       [--bench004-out FILE] [--bench005-out FILE]\n\
        \       [--bench006-out FILE] [--bench007-out FILE]\n\
        \       [--bench008-out FILE] [--bench009-out FILE]\n\
        \       [--bench010-out FILE]\n";
      exit 2
    | id :: rest -> parse (id :: ids) trace metrics rest
  in
  let ids, trace, metrics =
    parse [] None None (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match ids with
    | [] when trace <> None || metrics <> None -> []
    | [] -> List.map fst experiments
    | ids -> ids
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
       match List.assoc_opt id experiments with
       | Some f -> f ()
       | None ->
         Printf.eprintf "unknown experiment %S; known: %s\n" id
           (String.concat " " (List.map fst experiments));
         exit 1)
    requested;
  (match trace with
   | Some file -> trace_run ~trace_file:file ()
   | None -> ());
  (match metrics with
   | Some file ->
     Msmr_obs.Metrics.write_file file;
     Printf.printf "wrote metrics snapshot to %s\n%!" file
   | None -> ());
  Printf.printf "\n(total bench wall time: %.0fs)\n%!"
    (Unix.gettimeofday () -. t0)
