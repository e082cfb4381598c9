(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI). Run all experiments with

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- fig4 tab1 micro

   The multi-core scalability experiments run on the deterministic
   discrete-event simulator (see DESIGN.md for the substitution argument
   and calibration); `live` exercises the real threading architecture on
   this machine; `micro` runs bechamel micro-benchmarks of the
   substrate. `bench002`..`bench010` write bench/BENCH_NNN.json (or
   `--out FILE`; `--quick` runs need one), and

     dune exec bench/main.exe -- check [--committed] FILE..

   recomputes the named gates of each such file. *)

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
    "leader queues at end: request=%d dispatcher=%d window=%d\n"
    stats.request_queue stats.dispatcher_queue stats.window_in_use;
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
                 Msmr_platform.Channel.create ~name:"bench_reply"
                   ~kind:Msmr_platform.Channel.Spsc ~capacity:1
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

(* One cross-thread hand-off: a value ping-pongs between two threads
   over two channels, both sides waiting with [take] or with
   [take_timeout] (a deadline that never passes). Returns wall and
   process CPU µs per round trip. *)
let handoff ~timed ~rounds =
  let module C = Msmr_platform.Channel in
  let ping = C.create ~name:"handoff" ~kind:C.Spsc ~capacity:1
  and pong = C.create ~name:"handoff" ~kind:C.Spsc ~capacity:1 in
  let take c =
    if timed then Option.get (C.take_timeout c ~timeout_s:10.0) else C.take c
  in
  let echo =
    Thread.create (fun () -> for _ = 1 to rounds do C.put pong (take ping) done) ()
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () and t0 = Msmr_platform.Mclock.now_ns () in
  for i = 1 to rounds do
    C.put ping i;
    ignore (take pong)
  done;
  let wall = Msmr_platform.Mclock.(s_of_ns (Int64.sub (now_ns ()) t0)) in
  let cpu = cpu () -. c0 in
  Thread.join echo;
  let per x = x *. 1e6 /. float_of_int rounds in
  (per wall, per cpu)

(* The two hand-offs, alternated over [runs] runs; min–max of each. *)
let handoff_rows ~runs ~rounds =
  let results =
    List.init runs (fun _ ->
        (handoff ~timed:false ~rounds, handoff ~timed:true ~rounds))
  in
  let row name pick =
    let range f =
      let xs = List.map (fun r -> f (pick r)) results in
      (List.fold_left min infinity xs, List.fold_left max 0. xs)
    in
    let wlo, whi = range fst and clo, chi = range snd in
    Printf.printf
      "%-40s wall %5.1f-%5.1f us, cpu %5.1f-%5.1f us per round trip\n"
      name wlo whi clo chi
  in
  row "channel hand-off (take)" fst;
  row "channel hand-off (take_timeout)" snd

let micro () =
  heading "micro" "Substrate micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let ch =
    Msmr_platform.Channel.create ~name:"bench"
      ~kind:Msmr_platform.Channel.Mpmc ~capacity:1024
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
  let rtx = Msmr_consensus.Retransmit.create ~interval_s:0.1 in
  let rtx_key = Msmr_consensus.Paxos.Rtx_accept (0, 1) in
  let bench_rtx =
    Test.make ~name:"retransmit schedule+cancel"
      (Staged.stage (fun () ->
           Msmr_consensus.Retransmit.schedule rtx ~now_ns:0L rtx_key
             ~dest:[ 1; 2 ] accept;
           ignore (Msmr_consensus.Retransmit.cancel rtx rtx_key);
           ignore (Msmr_consensus.Retransmit.next_due_ns rtx)))
  in
  let test =
    Test.make_grouped ~name:"substrate"
      [ bench_ch; bench_mpsc; bench_cmap; bench_cache; bench_req_codec;
        bench_msg_codec; bench_batcher; bench_rtx ]
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
  handoff_rows ~runs:5 ~rounds:20_000;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* BENCH_NNN results. Each [benchNNN ~quick] runs its sweep and returns
   the body fields of bench/BENCH_NNN.json; [write_bench] prints the
   heading, prepends the bench/source/quick header and writes the file.
   Each bench also lists its named gates ([benchNNN_gates]) next to it:
   `main.exe check FILE` recomputes them from the file's data. *)

module J = Msmr_obs.Json

(* A gate reads the file through dotted paths ("crash.recovery_s"); a
   missing, null or mistyped field raises [Bad_field], which fails the
   gate. A [full_only] gate is skipped on a --quick file. *)
type gate = { name : string; full_only : bool; ok : J.t -> bool }

exception Bad_field of string

let field path j =
  List.fold_left
    (fun j key ->
       match J.member key j with
       | None | Some J.Null -> raise (Bad_field path)
       | Some v -> v)
    j
    (String.split_on_char '.' path)

let as_num path = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> raise (Bad_field path)

let num path j = as_num path (field path j)

let flag path j =
  match field path j with J.Bool b -> b | _ -> raise (Bad_field path)

let all_flags paths j = List.for_all (fun path -> flag path j) paths

let str path j =
  match field path j with J.String s -> s | _ -> raise (Bad_field path)

let items path j =
  match field path j with J.List l -> l | _ -> raise (Bad_field path)

let has keys j =
  List.for_all
    (fun key -> match field key j with _ -> true | exception Bad_field _ -> false)
    keys

let gate name ok = { name; full_only = false; ok }
let full_gate name ok = { name; full_only = true; ok }
let point_count path n =
  gate "point_count" (fun j -> List.length (items path j) = n)

(* Every point under [path] reports each of [keys] > 0. *)
let positive_throughput ?(path = "points") keys =
  gate "positive_throughput" (fun j ->
      List.for_all
        (fun pt -> List.for_all (fun key -> num key pt > 0.) keys)
        (items path j))

let schema ?(path = "points") keys =
  full_gate "schema" (fun j -> List.for_all (has keys) (items path j))

(* bench002: machine-readable snapshot of the headline results. Two
   sweeps:
     - core scaling:     jp, n=3, cores in {1, 8, 24}  (fig4 anchor points)
     - executor scaling: exec_threads in {1, 2, 4, 8} on an
       execution-bound workload (the parallel-ServiceManager figure; the
       workload keeps the leader far below the NIC ceiling so executor
       scaling is visible rather than masked by the packet budget). *)

let bench002 ~quick =
  let warmup, duration = if quick then (0.05, 0.1) else (0.3, 1.0) in
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
        warmup = (if quick then 0.05 else 0.2);
        duration = (if quick then 0.1 else 0.5);
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
  [ ( "core_scaling",
      J.Obj
        [ ("n", J.Int 3);
          ("profile", J.String "parapluie");
          ( "points",
            J.List (List.map (fun r -> row_obj "cores" r base_cores) cores_rows)
          ) ] );
    ( "executor_scaling",
      J.Obj
        [ ("n", J.Int 3);
          ("cores", J.Int 16);
          ("exec_per_req_us", J.Float 50.0);
          ( "points",
            J.List
              (List.map (fun r -> row_obj "exec_threads" r base_exec) exec_rows)
          ) ] ) ]

let bench002_gates =
  [ gate "core_points" (fun j -> List.length (items "core_scaling.points" j) = 3);
    gate "executor_points" (fun j ->
        List.length (items "executor_scaling.points" j) = 4);
    gate "positive_throughput" (fun j ->
        List.for_all
          (fun pt -> num "throughput_rps" pt > 0.)
          (items "core_scaling.points" j @ items "executor_scaling.points" j)) ]

(* ------------------------------------------------------------------ *)
(* bench003: durable-mode sweep. The paper disables stable storage
   because a synchronous log "would introduce an additional bottleneck";
   this experiment quantifies that bottleneck and the group-commit
   remedy on the simulator: Sync_serial makes the Protocol thread block
   on one device fsync (5 ms) per persisted event, Sync_group runs the
   StableStorage pipeline — the log queue absorbs bursts, one fsync
   covers the whole burst, and gated sends are released when their LSN
   is durable. *)

let bench003 ~quick =
  (* Both policies are device-bound (5 ms/fsync), so client RTTs run to
     hundreds of ms under Sync_serial; the population and windows are
     sized so even the serial sweep reaches closed-loop steady state
     well inside the warm-up. *)
  let n_clients, warmup, duration =
    if quick then (100, 0.4, 0.8) else (400, 1.0, 2.0)
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
  [ ("n", J.Int 3);
    ("profile", J.String "parapluie");
    ("fsync_latency_s", J.Float (Params.default ~n:3 ~cores:1 ()).fsync_latency);
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

(* The headline claim: group commit >= 3x serial fsync on every swept
   core count >= 8. *)
let bench003_gates =
  [ point_count "points" 3;
    positive_throughput [ "serial_rps"; "group_rps" ];
    gate "group_commit_3x" (fun j ->
        List.for_all
          (fun pt ->
             num "cores" pt < 8.
             || num "group_rps" pt >= 3. *. num "serial_rps" pt)
          (items "points" j)) ]

(* ------------------------------------------------------------------ *)
(* bench004: static vs adaptive BSZ/WND. The paper hand-picks its two
   headline knobs per deployment; the Autotune controller (DESIGN.md
   §11) tunes them online from queue/batch/latency signals. This sweep
   compares, for each (request size, cores) point:
     - static-default: the paper's WND=10 / BSZ=1300, untouched;
     - static-best:    the best point of a small static grid — the
                       hand-tuning the controller is meant to replace;
     - adaptive:       auto_tune from the default starting point.
   Gates adaptive_wins and adaptive_near_best require adaptive to beat
   the static default by >= 1.2x somewhere and to stay within 10% of
   static-best everywhere. *)

let bench004 ~quick =
  (* The adaptive runs start from the static default and must converge
     inside the warm-up; a finer controller epoch compensates for the
     shorter quick windows. *)
  let warmup, duration, epoch =
    if quick then (0.4, 0.4, 0.004) else (0.8, 1.0, 0.01)
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
  [ ("n", J.Int 3);
    ("profile", J.String "parapluie");
    ("start_wnd", J.Int 10);
    ("start_bsz", J.Int 1300);
    ( "static_grid",
      J.List
        (List.map
           (fun (w, b) -> J.Obj [ ("wnd", J.Int w); ("bsz", J.Int b) ])
           static_grid) );
    ("points", J.List points) ]

let bench004_gates =
  let points j = items "points" j in
  [ gate "points_present" (fun j -> points j <> []);
    positive_throughput
      [ "static_default_rps"; "static_best_rps"; "adaptive_rps" ];
    full_gate "full_sweep" (fun j -> List.length (points j) >= 9);
    schema
      [ "adaptive_vs_default"; "adaptive_vs_best"; "tuned_wnd_final";
        "tuned_bsz_final" ];
    full_gate "adaptive_wins" (fun j ->
        List.exists (fun pt -> num "adaptive_vs_default" pt >= 1.2) (points j));
    full_gate "adaptive_near_best" (fun j ->
        List.for_all (fun pt -> num "adaptive_vs_best" pt >= 0.9) (points j)) ]

(* ------------------------------------------------------------------ *)
(* bench005: fault injection and recovery. Three sections:
     - crash: deterministic sim run with the leader crashed mid-
       measurement and restarted; reports the throughput trajectory
       through the fault, the recovery time, and the post-recovery /
       pre-crash throughput ratio (gate recovery_ratio: >= 0.9);
     - soak: a seeded randomized fault schedule (crash + partition +
       lossy links) run twice, checking the linearizability verdict,
       replica convergence, and bit-identical reproducibility;
     - live: the real runtime — kills the leader of a
       Durable in-process cluster, restarts it through WAL recovery, and
       reports the replica fault counters and per-client retry/redirect
       counts. The leader stays down longer than [fd_timeout_s] even on a
       quick run, so a survivor's failure detector must suspect it (gate
       live_suspects); the sim sections carry the other gates. *)

let bench005 ~quick =
  let module F = Msmr_sim.Sfault in
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
    let victim = R.Replica.me (R.Replica.Cluster.leader cluster) in
    R.Replica.Cluster.kill cluster victim;
    (* Down for twice the detection timeout on a quick run (0.5 s of its
       1 s), 0.4 s on a full one. *)
    Msmr_platform.Mclock.sleep_s
      (if quick then 2. *. cfg.fd_timeout_s else 0.2 *. live_dur);
    ignore (R.Replica.Cluster.restart cluster victim);
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
      [ (* The one kill and restart above. *)
        ("kills", J.Int 1);
        ("restarts", J.Int 1);
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
  [ ( "crash",
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
                    (fun (t, c) -> J.Obj [ ("t", J.Float t); ("completed", J.Int c) ])
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

(* Even a quick run must leave a safe, converged, reproducible cluster,
   and a live survivor must have suspected the killed leader;
   the crash must actually have happened (a recovery was measured,
   views moved), recovery must be bounded and post-recovery throughput
   must reach >= 90% of pre-crash on the full run. *)
let bench005_gates =
  [ gate "chaos_safe"
      (all_flags
         [ "crash.safety_ok"; "soak.safety_ok"; "soak.converged";
           "soak.runs_identical" ]);
    full_gate "sections" (has [ "crash"; "soak"; "live" ]);
    full_gate "crash_fields" (fun j ->
        has [ "pre_rps"; "post_rps"; "post_over_pre"; "recovery_s"; "view_changes" ]
          (field "crash" j));
    full_gate "recovery_ratio" (fun j -> num "crash.post_over_pre" j >= 0.9);
    full_gate "recovery_bounded" (fun j ->
        let s = num "crash.recovery_s" j in
        s > 0. && s <= 2.);
    full_gate "view_change" (fun j -> num "crash.view_changes" j >= 1.);
    gate "live_suspects" (fun j -> num "live.suspects" j >= 1.) ]

(* ------------------------------------------------------------------ *)
(* bench006: compartmentalized multi-group Paxos. A single group is
   NIC-bound at its leader (~150K pps through one kernel stack), so the
   classic deployment flattens near ~115K req/s regardless of cores.
   Group g is led by node g mod n: every extra group adds another
   leader NIC to the aggregate budget. This sweep measures throughput
   for groups in {1, 2, 4} at 8 and 24 cores (n=3, parapluie), records
   the per-group split, and exercises the cross-group Global barrier on
   a mixed workload (conflict_ratio > 0 forces quiescence barriers
   through group 0). Gate scale_4g: on the full run, groups=4 at 24
   cores must reach >= 2x the single-group throughput. *)

let bench006 ~quick =
  let warmup, duration = if quick then (0.1, 0.3) else (0.3, 1.0) in
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
  [ ("n", J.Int 3);
    ("profile", J.String "parapluie");
    ("points", J.List (List.map point rows));
    ( "barrier",
      J.Obj
        [ ("groups", J.Int 4);
          ("cores", J.Int 24);
          ("conflict_ratio", J.Float cr);
          ("throughput_rps", J.Float b.throughput);
          ("globals_executed", J.Int b.globals_executed) ] ) ]

(* Per-group throughputs must sum to the total (the router loses
   nothing), and the barrier run must actually execute Global commands. *)
let bench006_gates =
  [ point_count "points" 6;
    positive_throughput [ "throughput_rps" ];
    gate "group_split" (fun j ->
        List.for_all
          (fun pt ->
             let total = num "throughput_rps" pt in
             let split =
               List.fold_left
                 (fun acc g -> acc +. as_num "group_throughputs_rps" g)
                 0. (items "group_throughputs_rps" pt)
             in
             Float.abs (split -. total) <= 0.01 *. total)
          (items "points" j));
    gate "globals" (fun j -> num "barrier.globals_executed" j > 0.);
    schema
      [ "groups"; "cores"; "throughput_rps"; "speedup_vs_g1";
        "group_throughputs_rps" ];
    full_gate "scale_4g" (fun j ->
        List.exists
          (fun pt ->
             num "groups" pt = 4. && num "cores" pt = 24.
             && num "speedup_vs_g1" pt >= 2.)
          (items "points" j)) ]

(* ------------------------------------------------------------------ *)
(* bench007: work-stealing executors (simulator). The execution-bound
   workload of bench002 at 4 executors, swept over client skew (fraction
   of "hot" clients whose conflict keys all home on executor 0) with the
   work-stealing pool on and off. Fixed routing convoys the hot lanes on
   one executor; stealing spreads their tokens over the pool. Gate
   steal_speedup: steal_speedup_hot >= 1.5 at skew 0.9. *)

let bench007 ~quick =
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
  [ ( "sim",
      J.Obj
        [ ("n", J.Int 3);
          ("cores", J.Int 16);
          ("exec_threads", J.Int 4);
          ("n_clients", J.Int 150);
          ("exec_per_req_us", J.Float 50.0);
          ("points", J.List (List.map sim_point rows));
          ("steal_speedup_hot", J.Float hot_speedup) ] ) ]

let bench007_gates =
  [ point_count "sim.points" 3;
    positive_throughput ~path:"sim.points" [ "nosteal_rps"; "steal_rps" ];
    gate "steal_speedup" (fun j -> num "sim.steal_speedup_hot" j >= 1.5);
    schema ~path:"sim.points"
      [ "skew"; "nosteal_rps"; "steal_rps"; "speedup"; "steals" ];
    full_gate "skewed_steals" (fun j ->
        List.exists
          (fun pt -> num "skew" pt >= 0.5 && num "steals" pt > 0.)
          (items "sim.points" j)) ]

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
   cluster. Gate stale_speedup: stale/ordered >= 5 at 95/5, groups=1. *)

let bench008 ~quick =
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
  [ ("n", J.Int 5);
    ("cores", J.Int 8);
    ("n_clients", J.Int n_clients);
    ("lease_duration_s", J.Float 0.5);
    ("clock_skew_s", J.Float 0.002);
    ("points", J.List (List.map point rows));
    ("stale_speedup_95_g1", J.Float stale_speedup) ]

(* Read safety must hold on every swept point and the fast path must
   beat the ordered-read baseline even on the quick run. Golden pin:
   lease = false is the all-write path whatever the read ratio, so the
   ordered baselines of each group count report identical throughput. *)
let bench008_gates =
  let points j = items "points" j in
  [ point_count "points" 12;
    positive_throughput [ "throughput_rps" ];
    gate "read_safety" (fun j -> List.for_all (flag "safety_ok") (points j));
    gate "no_stale_answers" (fun j ->
        List.for_all (fun pt -> num "stale_answers" pt = 0.) (points j));
    gate "stale_speedup" (fun j -> num "stale_speedup_95_g1" j >= 5.);
    schema
      [ "read_ratio"; "groups"; "mode"; "throughput_rps"; "reads_rps";
        "read_rejects"; "stale_answers"; "safety_ok" ];
    full_gate "golden_pin" (fun j ->
        let ordered = List.filter (fun pt -> str "mode" pt = "ordered") (points j) in
        List.for_all
          (fun a ->
             List.for_all
               (fun b ->
                  num "groups" a <> num "groups" b
                  || num "throughput_rps" a = num "throughput_rps" b)
               ordered)
          ordered);
    full_gate "lease_reads" (fun j ->
        List.for_all
          (fun pt -> str "mode" pt <> "lease" || num "reads_rps" pt > 0.)
          (points j)) ]

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
   decide->reply latency collapses to a confirm. Gate ce_speedup:
   ce_off / ce_on >= 2 at skew 0.9, groups=1.

   A chaos-reorder soak then makes rollback falsifiable: the leader
   crashes mid-speculation (plus a forced-mispredict floor pattern),
   every open frame must abort, the linearizability verdict must hold,
   and a rerun must be bit-identical. *)

let bench009 ~quick =
  let module F = Msmr_sim.Sfault in
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
  [ ("n", J.Int 3);
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

(* Golden pin: spec-off arms run zero speculation machinery. The chaos
   soak must abort frames, stay safe and rerun bit-identically. *)
let bench009_gates =
  let points j = items "points" j in
  [ point_count "points" 8;
    positive_throughput [ "throughput_rps" ];
    gate "safety" (fun j -> List.for_all (flag "safety_ok") (points j));
    gate "spec_off_clean" (fun j ->
        List.for_all
          (fun pt ->
             flag "speculate" pt
             || num "spec_dispatched" pt +. num "spec_confirmed" pt
                +. num "spec_aborted" pt = 0.)
          (points j));
    gate "ce_speedup" (fun j -> num "ce_speedup_skew09_g1" j >= 2.);
    gate "chaos" (fun j ->
        num "chaos.spec_aborted" j > 0. && flag "chaos.safety_ok" j
        && flag "chaos.deterministic" j);
    schema
      [ "skew"; "groups"; "speculate"; "throughput_rps"; "commit_exec_latency_s";
        "spec_dispatched"; "spec_confirmed"; "spec_aborted"; "safety_ok" ];
    full_gate "spec_on_confirms" (fun j ->
        List.for_all
          (fun pt -> (not (flag "speculate" pt)) || num "spec_confirmed" pt > 0.)
          (points j)) ]

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

   Gates (bench010_gates): the reconfig arm stays linearizable,
   completes the full schedule (epoch 6), and keeps >= 0.9x the static
   arm's throughput; both chaos arms rerun bit-identically. A live arm then drives the
   real runtime through the same 3->5->3 walk: spares join via
   snapshot-based state transfer while closed-loop clients keep
   calling, removed nodes fence themselves, and an exactly-once sum
   check audits the whole run. *)

let bench010 ~quick =
  let module F = Msmr_sim.Sfault in
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
  [ ("capacity", J.Int 5);
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

(* The >= 0.9x throughput ratio applies to the full run only: a
   sub-second quick run is mostly reconfiguration window. *)
let bench010_gates =
  let arms = [ "sim.static"; "sim.reconfig"; "sim.crash_join" ] in
  [ gate "sim_ok"
      (all_flags
         (List.map (fun arm -> arm ^ ".safety_ok") arms
          @ [ "sim.runs_identical"; "sim.crash_runs_identical" ]));
    gate "sched_ok" (fun j ->
        num "sim.reconfig.final_epoch" j = 6.
        && num "sim.crash_join.final_epoch" j >= 2.);
    gate "live_walk" (fun j ->
        num "live.final_voters" j = 3.
        && num "live.joiner_snapshot_installs" j >= 1.
        && flag "live.removed_fenced" j && flag "live.exactly_once_ok" j);
    gate "live_completed" (fun j -> num "live.completed" j > 0.);
    full_gate "schema" (fun j ->
        List.for_all
          (fun arm ->
             has
               [ "throughput_rps"; "completed"; "final_epoch"; "reconfigs_applied";
                 "view_changes"; "safety_ok" ]
               (field arm j))
          arms);
    full_gate "throughput_ratio" (fun j -> num "sim.throughput_ratio" j >= 0.9);
    full_gate "live_reconfigs" (fun j -> num "live.reconfigs_applied" j >= 6.) ]

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
    ("micro", micro) ]

type bench = {
  id : string;  (* "bench002"; writes BENCH_002 *)
  title : string;
  run : quick:bool -> (string * J.t) list;
  gates : gate list;
}

let benches =
  let b id title run gates = { id; title; run; gates } in
  [ b "bench002" "Machine-readable snapshot" bench002 bench002_gates;
    b "bench003" "Durable-mode sweep (serial fsync vs group commit)" bench003
      bench003_gates;
    b "bench004" "Static vs adaptive BSZ/WND sweep" bench004 bench004_gates;
    b "bench005" "Fault injection: crash recovery + seeded chaos soak" bench005
      bench005_gates;
    b "bench006" "Multi-group Paxos scaling" bench006 bench006_gates;
    b "bench007" "Work-stealing executors" bench007 bench007_gates;
    b "bench008" "Read-heavy fast path (leases)" bench008 bench008_gates;
    b "bench009" "Speculative execution: commit->execute gap" bench009
      bench009_gates;
    b "bench010" "Online reconfiguration: grow/shrink under load" bench010
      bench010_gates ]

let bench_name b = "BENCH_" ^ String.sub b.id 5 3

let write_bench b ~quick ~out =
  heading b.id
    (Printf.sprintf "%s -> %s%s" b.title out (if quick then " (--quick)" else ""));
  let header =
    [ ("bench", J.String (bench_name b));
      ("source", J.String ("bench/main.exe " ^ b.id));
      ("quick", J.Bool quick) ]
  in
  let json = J.Obj (header @ b.run ~quick) in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" out

(* `check [--committed] FILE..`: one ok/FAIL line per gate of each
   file's bench; full-run-only gates are skipped on a --quick file, and
   --committed also requires the file to be a full run. *)
let check_files ~committed files =
  let failed = ref false in
  let report ok line =
    Printf.printf "%-4s %s\n" (if ok then "ok" else "FAIL") line;
    if not ok then failed := true
  in
  let full_run = gate "full_run" (fun j -> not (flag "quick" j)) in
  let check_gate file j b g =
    let line = Printf.sprintf "%s %s (%s)" (bench_name b) g.name file in
    if g.full_only && J.member "quick" j = Some (J.Bool true) then
      Printf.printf "skip %s: full run only\n" line
    else
      match g.ok j with
      | ok -> report ok line
      | exception Bad_field path -> report false (line ^ ": bad or missing " ^ path)
  in
  List.iter
    (fun file ->
       match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
       | exception (Sys_error msg | J.Parse_error msg) ->
         report false (Printf.sprintf "%s: %s" file msg)
       | j -> (
         let is_bench b = J.member "bench" j = Some (J.String (bench_name b)) in
         match List.find_opt is_bench benches with
         | None -> report false (file ^ ": unknown bench id")
         | Some b ->
           List.iter (check_gate file j b)
             ((if committed then [ full_run ] else []) @ b.gates)))
    files;
  not !failed

let usage () =
  prerr_string
    "usage: main [EXPERIMENT..] [--quick] [--out FILE] [--trace FILE]\n\
    \            [--metrics FILE]\n\
    \       main check [--committed] FILE..\n";
  exit 2

let usage_error msg =
  Printf.eprintf "%s\n" msg;
  exit 2

(* Every output path is opened before any experiment runs, so a bad path
   fails at once instead of after a long sweep. *)
let check_writable path =
  try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
  with Sys_error msg -> usage_error ("cannot write output: " ^ msg)

let run_experiments args =
  let ids = ref [] and trace = ref None and metrics = ref None in
  let out = ref None and quick = ref false in
  let rec parse = function
    | [] -> ()
    | "--trace" :: file :: rest -> trace := Some file; parse rest
    | "--metrics" :: file :: rest -> metrics := Some file; parse rest
    | "--out" :: file :: rest -> out := Some file; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | ("--trace" | "--metrics" | "--out") :: [] -> usage ()
    | id :: rest -> ids := id :: !ids; parse rest
  in
  parse args;
  let known = List.map fst experiments @ List.map (fun b -> b.id) benches in
  let requested =
    match List.rev !ids with
    | [] when !trace <> None || !metrics <> None -> []
    | [] -> known
    | ids -> ids
  in
  List.iter
    (fun id ->
       if not (List.mem id known) then begin
         Printf.eprintf "unknown experiment %S; known: %s\n" id
           (String.concat " " known);
         exit 1
       end)
    requested;
  let to_write = List.filter (fun b -> List.mem b.id requested) benches in
  (match (!out, to_write) with
   | None, _ :: _ when !quick ->
     usage_error
       "--quick needs --out FILE (a quick run must not replace \
        bench/BENCH_NNN.json)"
   | Some _, ([] | _ :: _ :: _) -> usage_error "--out needs exactly one bench id"
   | _ -> ());
  let out_file b = Option.value !out ~default:("bench/" ^ bench_name b ^ ".json") in
  List.iter check_writable
    (List.map out_file to_write @ Option.to_list !trace @ Option.to_list !metrics);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
       match List.assoc_opt id experiments with
       | Some f -> f ()
       | None ->
         let b = List.find (fun b -> b.id = id) benches in
         write_bench b ~quick:!quick ~out:(out_file b))
    requested;
  Option.iter (fun file -> trace_run ~trace_file:file ()) !trace;
  Option.iter
    (fun file ->
       Msmr_obs.Metrics.write_file file;
       Printf.printf "wrote metrics snapshot to %s\n%!" file)
    !metrics;
  Printf.printf "\n(total bench wall time: %.0fs)\n%!"
    (Unix.gettimeofday () -. t0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "check" :: args ->
    let committed, files =
      match args with
      | "--committed" :: files -> (true, files)
      | files -> (false, files)
    in
    if files = [] then usage ();
    exit (if check_files ~committed files then 0 else 1)
  | args -> run_experiments args
