(* Live-runtime benchmark: one workload per process.

     perf.exe --workload <null-hub|kv-zipf-rw> --seed N
              --seconds S --trace <0|1> --work-dir DIR

   A run is a series of trials. Each trial brings up a fresh 3-replica
   in-process cluster ([Replica.Cluster] over [Transport.Hub]), times
   its set-up, warms it up untimed, then runs two timed phases from one
   seeded single-thread generator: [light], open loop at the workload's
   fixed rate (latency), and [sat], closed loop with 256 sessions
   (throughput and CPU per op). Each end-to-end metric is the median
   over the trials. Correctness checks run on every trial; the last
   stdout line is the JSON result, and the exit code is non-zero when a
   check failed. With [--trace 1] every second trial is traced; those
   trials and a single-thread replay through each layer give the
   per-layer metrics, and a Chrome trace is written to DIR. *)

module P = Msmr_platform
module C = Msmr_consensus
module R = Msmr_runtime
module Obs = Msmr_obs
module W = Workload

(* The default configuration with leases on, a 2 ms batch delay and no
   snapshots. A kv snapshot costs milliseconds, and whether one or two
   fell into a timed phase split kv throughput into two levels. Without
   snapshots each replica keeps its whole log, but a trial's cluster
   lives a few seconds, which bounds it. *)
let cfg =
  { (C.Config.default ~n:3) with
    max_batch_delay_s = 0.002;
    snapshot_every = 0;
    lease_enabled = true }

(* One generator thread submits every op, so one ClientIO thread per
   replica serves it; more would only poll. *)
let client_io_threads = 1

(* Closed-loop sessions in [sat]. The process computes on one CPU and
   reaches it with far fewer: throughput still rises with more sessions,
   from deeper batching, but it also varied more between trials
   (see NOTES.md). *)
let sat_sessions = 64

(* Measured seconds per trial, split between [light] and [sat]. *)
let trial_s = 3.0
let light_share = 0.6

(* Untimed closed-loop warm-up of each trial, after the kv fill. *)
let warmup_s = 0.5

external maxrss_kb : unit -> int = "perfbench_maxrss_kb"

let log fmt = Printf.ksprintf prerr_endline fmt

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let now = P.Mclock.now_ns
let since_s t0 = P.Mclock.s_of_ns (Int64.sub (now ()) t0)

let await ~timeout_s f =
  let t0 = now () in
  let rec go () =
    if f () then true
    else if since_s t0 > timeout_s then false
    else (Thread.delay 0.001; go ())
  in
  go ()

(* Failed correctness checks; any makes the run exit non-zero. *)
let failed_checks = ref []

let check ok msg =
  if not ok then begin
    log "CHECK FAILED: %s" msg;
    failed_checks := msg :: !failed_checks
  end

let make_cluster w =
  let service () =
    if W.is_kv w then Msmr_kv.Kv_service.make () else R.Service.null ()
  in
  R.Replica.Cluster.create ~client_io_threads
    ~executor_threads:w.executors ~cfg ~service ()

(* Set-up: [Cluster.create] until the first write is answered and the
   leader holds its lease (every workload issues lease reads). *)
let setup_once w inputs =
  let t0 = now () in
  let c = make_cluster w in
  let leader = R.Replica.Cluster.await_leader ~timeout_s:10. c in
  let g = Gen.create w inputs ~leader ~sessions:1 in
  let ok =
    Gen.one_write g
    && await ~timeout_s:10. (fun () -> R.Replica.lease_held leader)
  in
  let dt = since_s t0 in
  Gen.stop g;
  check ok "set-up: first write answered and lease held";
  (c, leader, dt)

(* --- per-layer accounting ------------------------------------------ *)

module Ts = P.Thread_state

let zero = { Ts.busy_ns = 0L; blocked_ns = 0L; waiting_ns = 0L; other_ns = 0L }

(* Sum of per-thread state deltas over the threads whose name satisfies
   [pick]. *)
let ts_group before after pick =
  List.fold_left
    (fun (acc : Ts.totals) (name, (t1 : Ts.totals)) ->
       if not (pick name) then acc
       else
         let t0 = Option.value (List.assoc_opt name before) ~default:zero in
         let d a b = Int64.sub a b in
         { busy_ns = Int64.add acc.busy_ns (d t1.busy_ns t0.busy_ns);
           blocked_ns = Int64.add acc.blocked_ns (d t1.blocked_ns t0.blocked_ns);
           waiting_ns = Int64.add acc.waiting_ns (d t1.waiting_ns t0.waiting_ns);
           other_ns = Int64.add acc.other_ns (d t1.other_ns t0.other_ns) })
    zero after

let frac (t : Ts.totals) part =
  let total =
    Int64.(to_float (add (add t.busy_ns t.blocked_ns) (add t.waiting_ns t.other_ns)))
  in
  if total <= 0. then 0. else Int64.to_float part /. total

let metric_value samples ~name ~labels =
  List.find_map
    (fun (s : Obs.Metrics.sample) ->
       if s.name = name && List.for_all (fun l -> List.mem l s.labels) labels
       then
         match s.value with
         | Counter_v i -> Some (float_of_int i, 0.)
         | Gauge_v f -> Some (f, 0.)
         | Histogram_v { count; mean; _ } ->
           Some (float_of_int count, mean *. float_of_int count)
       else None)
    samples
  |> Option.value ~default:(0., 0.)

(* Counters read at the start and end of a phase. *)
type probe = {
  threads : (string * Ts.totals) list;
  metrics : Obs.Metrics.sample list;
  executed : int;
  decided : int;
  frames : int;
  served : int;
  rejected : int;
  spins : int;
  parks : int;
}

let probe c leader =
  { threads = Ts.snapshot_all ();
    metrics = Obs.Metrics.snapshot ();
    executed = R.Replica.executed_count leader;
    decided = R.Replica.decided_count leader;
    frames = R.Transport.Hub.frames_sent (R.Replica.Cluster.hub c);
    served = R.Replica.reads_served_count leader;
    rejected = R.Replica.reads_rejected_count leader;
    spins = P.Waitstats.spin_total ();
    parks = P.Waitstats.park_total () }

(* Samples the leader's window occupancy in the background. *)
let window_sampler leader =
  let running = ref true and sum = ref 0 and n = ref 0 in
  let th =
    Thread.create
      (fun () ->
         while !running do
           sum := !sum + (R.Replica.queue_stats leader).window_in_use;
           incr n;
           Thread.delay 0.005
         done)
      ()
  in
  fun () ->
    running := false;
    Thread.join th;
    if !n = 0 then 0. else float_of_int !sum /. float_of_int !n

let per_op x ops = if ops <= 0 then 0. else float_of_int x /. float_of_int ops

(* Layer metrics from counter deltas: thread fractions and counts over
   [sat], channel waits and lease reads over [light]. *)
let layer_counters w ~leader ~light:(l0, l1, light_ops)
    ~sat:(s0, s1, sat_ops) ~window_in_use =
  let me = R.Replica.me leader in
  let pre = Printf.sprintf "r%d/" me in
  let g pick = ts_group s0.threads s1.threads pick in
  let starts s name = String.starts_with ~prefix:(pre ^ s) name in
  let cio = g (starts "ClientIO-") in
  let batcher = g (starts "Batcher") in
  let protocol = g (starts "Protocol") in
  let rio = g (starts "ReplicaIO") in
  (* The ServiceManager: the Replica thread and its executors. *)
  let sm = g (fun n -> n = pre ^ "Replica" || starts "Executor-" n) in
  let leader_m name = metric_value ~name ~labels:[ ("replica", string_of_int me) ] in
  let delta m0 m1 f = fst (f m1.metrics) -. fst (f m0.metrics) in
  let steals = delta s0 s1 (leader_m "msmr_executor_steal_total") in
  let dispatched = delta s0 s1 (leader_m "msmr_replica_executor_dispatched") in
  let served = l1.served - l0.served and rejected = l1.rejected - l0.rejected in
  let ratio a b = if b <= 0. then 0. else a /. b in
  [ ("client_io.busy_frac", frac cio cio.busy_ns);
    ("client_io.wait_frac", frac cio cio.waiting_ns);
    ("batcher.busy_frac", frac batcher batcher.busy_ns);
    ("batcher.ops_per_batch",
     ratio (float_of_int (s1.executed - s0.executed))
       (float_of_int (s1.decided - s0.decided)));
    ("paxos.busy_frac", frac protocol protocol.busy_ns);
    ("paxos.blocked_frac", frac protocol protocol.blocked_ns);
    ("paxos.window_in_use", window_in_use);
    ("replica_io.busy_frac", frac rio rio.busy_ns);
    ("transport.frames_per_op", per_op (s1.frames - s0.frames) sat_ops);
    ("service_manager.busy_frac", frac sm sm.busy_ns);
    ("exec_pool.steal_ratio", if w.W.executors > 1 then ratio steals dispatched else 0.);
    ("lease.read_served_ratio",
     ratio (float_of_int served) (float_of_int (served + rejected)));
    ("channel.spins_per_op", per_op (l1.spins - l0.spins) light_ops);
    ("channel.parks_per_op", per_op (l1.parks - l0.parks) light_ops) ]


(* --- correctness checks after a trial ------------------------------ *)

let check_converged c =
  let rs = R.Replica.Cluster.replicas c in
  let counts () = Array.map R.Replica.executed_count rs in
  let same () =
    let a = counts () in
    Array.for_all (fun x -> x = a.(0)) a
  in
  let ok = await ~timeout_s:10. same in
  check ok
    (Printf.sprintf "replicas did not converge: executed %s"
       (String.concat "/" (Array.to_list (Array.map string_of_int (counts ())))))

(* --- one trial: a fresh cluster, warm-up, [light] and [sat] --------- *)

(* Each cluster settles into a throughput that differs by about 10%
   from one cluster to the next and holds for seconds, so a run measures
   several fresh clusters and reports the median over them. *)
let trials seconds = max 2 (int_of_float (seconds /. trial_s))

let pctl buf q = Gen.percentile (Gen.Fbuf.sorted buf) q

type trial = {
  setup_s : float;
  light : Gen.phase_result;
  light_rec : Gen.recorder;
  late : Gen.Fbuf.t;  (* generator lateness in [light], ms *)
  sat : Gen.phase_result;
  layers : (string * float) list;  (* traced trials only *)
}

(* Failure accounting over the generators of every trial. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable rejected_reads : int;
  mutable wrong : int;
  mutable errors : string list;
}

let add_to tally (g : Gen.t) =
  tally.attempted <- tally.attempted + g.attempted;
  tally.failed <- tally.failed + g.failed;
  tally.timeouts <- tally.timeouts + g.timeouts;
  tally.rejected_reads <- tally.rejected_reads + g.rejected_reads;
  tally.wrong <- tally.wrong + g.wrong;
  tally.errors <- tally.errors @ List.rev g.errors

let run_trial w inputs ~k ~tracer ~tally =
  let c, leader, setup_s = setup_once w inputs in
  let g = Gen.create ~first_cid:1000 w inputs ~leader ~sessions:sat_sessions in
  let stopped = ref false in
  let stop_all () =
    if not !stopped then begin
      stopped := true;
      Gen.stop g;
      R.Replica.Cluster.stop c
    end
  in
  let t =
    Fun.protect ~finally:stop_all @@ fun () ->
    (* Untimed warm-up: write every kv key once, so that the store does
       not grow through the timed phases, then fill caches and the GC
       heap. *)
    let filled = Gen.fill g inputs.fill ~sessions:sat_sessions ~seconds:60. in
    check (filled = Array.length inputs.fill) "kv key space filled";
    ignore
      (Gen.closed_loop g ~into:(Gen.recorder ()) ~sessions:sat_sessions
         ~seconds:warmup_s ~allow_read:(W.is_kv w));
    ignore
      (Gen.open_loop g ~into:(Gen.recorder ()) ~late:(Gen.Fbuf.create ())
         ~rate:w.light_rate ~seconds:0.2 ~allow_read:true);
    g.tracer <- tracer;
    let traced = Option.is_some tracer in
    let gc0 = Gc.quick_stat () in
    let p0 = if traced then Some (probe c leader) else None in
    let light_rec = Gen.recorder () and late = Gen.Fbuf.create () in
    let light =
      Gen.open_loop g ~into:light_rec ~late ~rate:w.light_rate
        ~seconds:(light_share *. trial_s) ~allow_read:true
    in
    let p1 = if traced then Some (probe c leader) else None in
    let stop_sampler = if traced then Some (window_sampler leader) else None in
    let sat =
      Gen.closed_loop g ~into:(Gen.recorder ()) ~sessions:sat_sessions
        ~seconds:((1. -. light_share) *. trial_s) ~allow_read:(W.is_kv w)
    in
    let layers =
      match p0, p1, stop_sampler with
      | Some p0, Some p1, Some stop ->
        let window_in_use = stop () in
        let p2 = probe c leader in
        let gc1 = Gc.quick_stat () in
        let ops = light.ops + sat.ops in
        layer_counters w ~leader ~light:(p0, p1, light.ops)
          ~sat:(p1, p2, sat.ops) ~window_in_use
        @ [ ("gc.minor_words_per_op",
             (gc1.minor_words -. gc0.minor_words) /. float_of_int (max 1 ops));
            ("gc.major_per_kop",
             1000. *. per_op (gc1.major_collections - gc0.major_collections) ops);
            ("process.light_cores", light.cpu_s /. light.wall_s) ]
      | _ -> []
    in
    g.tracer <- None;
    log "trial %d%s: set-up %.4f s; light p50 %.3f p90 %.3f ms, %.2f cores; \
         sat %.0f ops/s, %.1f us/op"
      k (if traced then " (traced)" else "") setup_s
      (pctl light_rec.write_ms 0.5) (pctl light_rec.write_ms 0.9)
      (light.cpu_s /. light.wall_s)
      (float_of_int sat.ops /. sat.wall_s)
      (sat.cpu_s *. 1e6 /. float_of_int (max 1 sat.ops));
    check_converged c;
    { setup_s; light; light_rec; late; sat; layers }
  in
  add_to tally g;
  t

let median_over trials f = Gen.median (List.map f trials)

(* Every sample of the trials, for the tail percentiles. *)
let pooled trials field =
  let all = Gen.Fbuf.create () in
  List.iter
    (fun t ->
       let b : Gen.Fbuf.t = field t in
       for i = 0 to b.n - 1 do Gen.Fbuf.add all b.a.(i) done)
    trials;
  Gen.Fbuf.sorted all

let e2e trials =
  let m = median_over trials in
  [ ("write_p50_ms", m (fun t -> pctl t.light_rec.write_ms 0.5), "ms");
    ("read_p50_ms", m (fun t -> pctl t.light_rec.read_ms 0.5), "ms");
    ("setup_s", m (fun t -> t.setup_s), "s") ]

(* Throughput, CPU and memory: measured on every run, but reported with
   the per-layer metrics, because they vary more between runs of the
   same code than an end-to-end bound can carry (see NOTES.md). *)
let capacity trials ~rss_mb =
  let m = median_over trials in
  [ ("closed_loop.sat_rps",
     m (fun t -> float_of_int t.sat.ops /. t.sat.wall_s), "1/s");
    ("closed_loop.cpu_us_per_op",
     m (fun t -> t.sat.cpu_s *. 1e6 /. float_of_int (max 1 t.sat.ops)), "us");
    ("process.rss_mb", rss_mb, "MB") ]

let check_light w trials =
  let issued = List.fold_left (fun n t -> n + t.light.issued_in_time) 0 trials in
  let achieved =
    float_of_int issued
    /. (light_share *. trial_s *. float_of_int (List.length trials))
  in
  let late = pooled trials (fun t -> t.late) in
  log "light: offered %.0f/s achieved %.0f/s; generator lateness p50 %.3f \
       p99 %.3f max %.3f ms"
    w.W.light_rate achieved (Gen.percentile late 0.5)
    (Gen.percentile late 0.99)
    (if Array.length late = 0 then 0. else late.(Array.length late - 1));
  check (achieved >= 0.95 *. w.W.light_rate)
    (Printf.sprintf "light rate %.0f/s below the offered %.0f/s" achieved
       w.W.light_rate)
(* --- output -------------------------------------------------------- *)

let json_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, v, unit) ->
       Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
         (if i = 0 then "" else ", ") name v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let usage () =
  prerr_endline
    "usage: perf.exe --workload <null-hub|kv-zipf-rw> --seed N \
     --seconds S --trace <0|1> --work-dir DIR";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref false and work_dir = ref "" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--work-dir" :: v :: rest -> work_dir := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match W.find !workload with
  | Some w when !work_dir <> "" && !seconds > 0. ->
    (w, !seed, !seconds, !trace, !work_dir)
  | _ -> usage ()


let main () =
  let w, seed, seconds, traced, work_dir = parse_args () in
  let inputs = W.make_inputs w ~seed in
  let base = Filename.concat work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf base;
  Unix.mkdir base 0o755;
  Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
  let tally =
    { attempted = 0; failed = 0; timeouts = 0; rejected_reads = 0; wrong = 0;
      errors = [] }
  in
  (* A traced run traces every second trial and compares them with the
     others for the tracing overhead. *)
  let tracer =
    if traced then Some (Obs.Trace.create_live ~ring_capacity:512 ()) else None
  in
  let all =
    List.init (trials seconds) (fun k ->
        let tracer = if k mod 2 = 1 then tracer else None in
        (Option.is_some tracer, run_trial w inputs ~k ~tracer ~tally))
  in
  let plain = List.filter_map (fun (tr, t) -> if tr then None else Some t) all in
  let traced_trials = List.filter_map (fun (tr, t) -> if tr then Some t else None) all in
  let rss_mb = float_of_int (maxrss_kb ()) /. 1024. in
  check_light w plain;
  if tally.wrong > 0 then
    check false
      (Printf.sprintf "%d wrong replies (%s)" tally.wrong
         (String.concat "; " tally.errors));
  log "ops: attempted %d failed %d (timeouts %d, rejected reads %d, wrong %d)"
    tally.attempted tally.failed tally.timeouts tally.rejected_reads tally.wrong;
  log "%s seed %d:" w.name seed;
  let untraced = e2e plain @ capacity plain ~rss_mb in
  List.iter (fun (n, v, u) -> log "  %-26s %12.4f %s" n v u) untraced;
  let metrics =
    match tracer with
    | None -> e2e plain
    | Some tracer ->
      let track = Obs.Trace.track tracer ~pid:101 ~pname:"replay" ~name:"layers" () in
      let replay = Layers.run ~track cfg w inputs ~dir:base in
      let path =
        Filename.concat work_dir
          (Printf.sprintf "%s-seed%d.trace.json" w.name seed)
      in
      Obs.Trace_export.write_file tracer path;
      let traced_e2e = e2e traced_trials @ capacity traced_trials ~rss_mb in
      let value name l = let _, v, _ = List.find (fun (n, _, _) -> n = name) l in v in
      let overhead name =
        let u = value name untraced and t = value name traced_e2e in
        if u = 0. then 0. else 100. *. (t -. u) /. u
      in
      let layers =
        match traced_trials with
        | [] -> []
        | first :: _ ->
          List.map
            (fun (name, _) ->
               (name, median_over traced_trials (fun t -> List.assoc name t.layers)))
            first.layers
      in
      let wr = pooled traced_trials (fun t -> t.light_rec.write_ms) in
      let rd = pooled traced_trials (fun t -> t.light_rec.read_ms) in
      let late = pooled traced_trials (fun t -> t.late) in
      log "trace: %s (%d events dropped by ring wrap)" path
        (Obs.Trace_export.total_dropped tracer);
      let unit_of name =
        if String.ends_with ~suffix:"_us" name then "us"
        else if String.ends_with ~suffix:"_ms" name then "ms"
        else if String.ends_with ~suffix:"_pct" name then "%"
        else if String.ends_with ~suffix:"_cores" name then "cores"
        else if String.ends_with ~suffix:"_frac" name
             || String.ends_with ~suffix:"_ratio" name then "frac"
        else "count"
      in
      capacity plain ~rss_mb
      @ List.map (fun (n, v) -> (n, v, unit_of n)) (layers @ replay)
      @ [ ("latency.write_p90_ms",
           median_over traced_trials (fun t -> pctl t.light_rec.write_ms 0.9),
           "ms");
          ("latency.write_p99_ms", Gen.percentile wr 0.99, "ms");
          ("latency.write_p999_ms", Gen.percentile wr 0.999, "ms");
          ("latency.write_samples", float_of_int (Array.length wr), "count");
          ("latency.read_p99_ms", Gen.percentile rd 0.99, "ms");
          ("latency.read_samples", float_of_int (Array.length rd), "count");
          ("generator.lateness_p99_ms", Gen.percentile late 0.99, "ms");
          ("trace.sat_rps_overhead_pct", overhead "closed_loop.sat_rps", "%");
          ("trace.write_p50_overhead_pct", overhead "write_p50_ms", "%");
          ("trace.dropped_events",
           float_of_int (Obs.Trace_export.total_dropped tracer), "count") ]
  in
  List.iter
    (fun (n, v, _) ->
       check (Float.is_finite v) (Printf.sprintf "metric %s is not finite" n))
    metrics;
  let metrics = List.filter (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = !failed_checks = [] in
  print_endline
    (json_result ~correct ~attempted:tally.attempted ~failed:tally.failed
       metrics);
  correct

(* Exit only after [main] has unwound, so its clean-up has run. *)
let () = if not (main ()) then exit 1
