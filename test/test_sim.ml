(* Tests for msmr_sim: the DES engine, CPU/lock/queue/NIC substrate, and
   the JPaxos architecture model. *)

open Msmr_sim

let test_engine_delay_ordering () =
  let eng = Engine.create () in
  let trace = ref [] in
  Engine.spawn eng (fun () ->
      Engine.delay eng 0.3;
      trace := ("a", Engine.now eng) :: !trace);
  Engine.spawn eng (fun () ->
      Engine.delay eng 0.1;
      trace := ("b", Engine.now eng) :: !trace;
      Engine.delay eng 0.1;
      trace := ("c", Engine.now eng) :: !trace);
  Engine.run eng ~until:1.0;
  Alcotest.(check (list string)) "order" [ "b"; "c"; "a" ]
    (List.rev_map fst !trace);
  Alcotest.(check bool) "times" true
    (List.for_all2
       (fun (_, t) t' -> abs_float (t -. t') < 1e-9)
       (List.rev !trace) [ 0.1; 0.2; 0.3 ])

let test_engine_same_time_fifo () =
  let eng = Engine.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at eng 0.5 (fun () -> trace := i :: !trace)
  done;
  Engine.run eng ~until:1.0;
  Alcotest.(check (list int)) "schedule order" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

let test_engine_suspend_resume () =
  let eng = Engine.create () in
  let resumer = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend eng (fun r -> resumer := Some r) in
      got := v);
  Engine.schedule_at eng 0.2 (fun () -> (Option.get !resumer) 42);
  Engine.run eng ~until:1.0;
  Alcotest.(check int) "resumed with value" 42 !got

let test_engine_suspend_timeout () =
  let eng = Engine.create () in
  let r1 = ref (Engine.Value 0) and r2 = ref (Engine.Value 0) in
  Engine.spawn eng (fun () ->
      (* Never resumed: times out. *)
      r1 := Engine.suspend_timeout eng ~timeout:0.1 (fun _ -> ()));
  Engine.spawn eng (fun () ->
      r2 :=
        Engine.suspend_timeout eng ~timeout:1.0 (fun resume ->
            Engine.schedule_at eng 0.05 (fun () -> resume 7)));
  Engine.run eng ~until:2.0;
  Alcotest.(check bool) "timed out" true (!r1 = Engine.Timed_out);
  Alcotest.(check bool) "value wins" true (!r2 = Engine.Value 7)

let test_engine_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule_at eng 5.0 (fun () -> fired := true);
  Engine.run eng ~until:1.0;
  Alcotest.(check bool) "future event pending" false !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 1.0 (Engine.now eng);
  Engine.run eng ~until:10.0;
  Alcotest.(check bool) "fires later" true !fired

let test_cpu_serializes_on_one_core () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:1 ~switch_cost:0. () in
  let done_at = Array.make 2 0. in
  for i = 0 to 1 do
    Engine.spawn eng (fun () ->
        let st = Sstats.make_thread eng ~name:(Printf.sprintf "t%d" i) in
        Cpu.work cpu st 0.1;
        done_at.(i) <- Engine.now eng)
  done;
  Engine.run eng ~until:1.0;
  (* 2 x 0.1s of work on one core takes 0.2s of simulated time. *)
  Alcotest.(check (float 1e-6)) "second finishes at 0.2" 0.2
    (Float.max done_at.(0) done_at.(1));
  Alcotest.(check (float 1e-6)) "consumed" 0.2 (Cpu.consumed cpu)

let test_cpu_parallel_on_two_cores () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 ~switch_cost:0. () in
  let done_at = Array.make 2 0. in
  for i = 0 to 1 do
    Engine.spawn eng (fun () ->
        let st = Sstats.make_thread eng ~name:(Printf.sprintf "t%d" i) in
        Cpu.work cpu st 0.1;
        done_at.(i) <- Engine.now eng)
  done;
  Engine.run eng ~until:1.0;
  Alcotest.(check (float 1e-6)) "parallel" 0.1
    (Float.max done_at.(0) done_at.(1))

let test_cpu_switch_cost_charged () =
  let eng = Engine.create () in
  (* Large quantum: no preemption, so exactly one context switch is
     charged (to the thread that had to wait for the core). *)
  let cpu = Cpu.create eng ~cores:1 ~quantum:1.0 ~switch_cost:0.01 () in
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"first" in
      Cpu.work cpu st 0.1);
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"second" in
      (* Queued behind the first: pays the context-switch cost. *)
      Cpu.work cpu st 0.1);
  Engine.run eng ~until:1.0;
  Alcotest.(check (float 1e-6)) "0.1 + (0.1 + switch)" 0.21 (Cpu.consumed cpu)

let test_slock_mutual_exclusion () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:4 ~switch_cost:0. () in
  let lock = Slock.create eng () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 3 do
    Engine.spawn eng (fun () ->
        let st = Sstats.make_thread eng ~name:(Printf.sprintf "w%d" i) in
        Slock.acquire lock st;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Cpu.work cpu st 0.05;
        decr inside;
        Slock.release lock)
  done;
  Engine.run eng ~until:1.0;
  Alcotest.(check int) "one holder at a time" 1 !max_inside;
  Alcotest.(check int) "acquisitions" 4 (Slock.acquisitions lock);
  Alcotest.(check int) "contended" 3 (Slock.contended_acquisitions lock)

let test_slock_blocked_accounting () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 ~switch_cost:0. () in
  let lock = Slock.create eng () in
  let st2_ref = ref None in
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"holder" in
      Slock.acquire lock st;
      Cpu.work cpu st 0.2;
      Slock.release lock);
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"waiter" in
      st2_ref := Some st;
      Slock.acquire lock st;
      Slock.release lock);
  Engine.run eng ~until:1.0;
  let totals = Sstats.totals (Option.get !st2_ref) in
  Alcotest.(check bool) "blocked ~0.2s" true
    (abs_float (totals.Sstats.blocked -. 0.2) < 0.01)

let test_squeue_fifo_and_capacity () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 ~switch_cost:0. () in
  let q = Squeue.create eng ~cpu ~capacity:2 ~name:"q" () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"producer" in
      for i = 1 to 4 do
        Squeue.put q st i
      done);
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"consumer" in
      Engine.delay eng 0.1;
      for _ = 1 to 4 do
        got := Squeue.take q st :: !got
      done);
  Engine.run eng ~until:1.0;
  Alcotest.(check (list int)) "fifo through bounded queue" [ 1; 2; 3; 4 ]
    (List.rev !got)

let test_squeue_take_timeout () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:1 ~switch_cost:0. () in
  let q : int Squeue.t = Squeue.create eng ~cpu ~capacity:4 ~name:"q" () in
  let first = ref (Some 99) and second = ref None in
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"taker" in
      first := Squeue.take_timeout q st ~timeout:0.05;
      second := Squeue.take_timeout q st ~timeout:1.0);
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"putter" in
      Engine.delay eng 0.2;
      Squeue.put q st 5);
  Engine.run eng ~until:2.0;
  Alcotest.(check bool) "first timed out" true (!first = None);
  Alcotest.(check bool) "second arrived" true (!second = Some 5)

let test_mailbox () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      let st = Sstats.make_thread eng ~name:"consumer" in
      for _ = 1 to 3 do
        got := Mailbox.take mb st :: !got
      done);
  Engine.schedule_at eng 0.1 (fun () -> Mailbox.push mb "x");
  Engine.schedule_at eng 0.2 (fun () ->
      Mailbox.push mb "y";
      Mailbox.push mb "z");
  Engine.run eng ~until:1.0;
  Alcotest.(check (list string)) "delivered in order" [ "x"; "y"; "z" ]
    (List.rev !got)

let test_nic_packet_rate () =
  let eng = Engine.create () in
  (* 1000 pkts/s, tiny packets: 100 sends take ~0.1 s of TX service. *)
  let a = Nic.create eng ~pkt_rate:1000. ~bandwidth:1e9 ~propagation:0. ~name:"a" () in
  let b = Nic.create eng ~pkt_rate:1e9 ~bandwidth:1e9 ~propagation:0. ~name:"b" () in
  let last_arrival = ref 0. in
  for _ = 1 to 100 do
    Nic.send a ~dst:b ~size:64 (fun () -> last_arrival := Engine.now eng)
  done;
  Engine.run eng ~until:10.;
  Alcotest.(check bool) "rate limited (~0.1s)" true
    (!last_arrival >= 0.099 && !last_arrival < 0.12);
  Alcotest.(check int) "tx packets" 100 (Nic.tx_packets a);
  Alcotest.(check int) "rx packets" 100 (Nic.rx_packets b)

let test_nic_mtu_split () =
  let eng = Engine.create () in
  let a = Nic.create eng ~mtu:1500 ~name:"a" () in
  let b = Nic.create eng ~name:"b" () in
  Nic.send a ~dst:b ~size:4000 (fun () -> ());
  Engine.run eng ~until:1.;
  Alcotest.(check int) "3 packets for 4000B" 3 (Nic.tx_packets a)

let test_nic_idle_rtt () =
  let eng = Engine.create () in
  let a = Nic.create eng ~name:"a" () in
  let b = Nic.create eng ~name:"b" () in
  let rtt = ref 0. in
  Nic.rtt_probe a ~dst:b (fun r -> rtt := r);
  Engine.run eng ~until:1.;
  (* Paper: ~0.06 ms idle. *)
  Alcotest.(check bool) "idle rtt ~0.06ms" true (!rtt > 40e-6 && !rtt < 80e-6)

(* ------------------------------------------------------------------ *)
(* JPaxos model *)

let small_params ?(cores = 2) () =
  let p = Params.default ~n:3 ~cores () in
  { p with n_clients = 60; warmup = 0.1; duration = 0.3 }

let test_jpaxos_model_runs () =
  let r = Jpaxos_model.run (small_params ()) in
  Alcotest.(check bool) "some throughput" true (r.throughput > 1000.);
  Alcotest.(check bool) "latency positive" true (r.client_latency > 0.);
  Alcotest.(check int) "three replicas" 3 (Array.length r.replicas);
  Alcotest.(check bool) "leader busiest" true
    (r.replicas.(0).cpu_util_pct > r.replicas.(1).cpu_util_pct);
  Alcotest.(check bool) "batches formed" true (r.avg_batch_reqs >= 1.);
  let threads = List.map fst r.replicas.(0).threads in
  Alcotest.(check bool) "paper thread names" true
    (List.mem "Batcher" threads && List.mem "Protocol" threads
     && List.mem "Replica" threads && List.mem "ClientIO-0" threads
     && List.mem "ReplicaIOSnd-1" threads)

let test_jpaxos_model_deterministic () =
  let r1 = Jpaxos_model.run (small_params ()) in
  let r2 = Jpaxos_model.run (small_params ()) in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same event count" r1.events r2.events

(* Autotune in the model. *)

let test_jpaxos_autotune_off_path_identical () =
  (* auto_tune = false must be byte-for-byte the static path: varying a
     tuning-only parameter must not perturb the event stream, and the
     reported tuned finals are just the static knobs. *)
  let p = small_params () in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run { p with tune_epoch = 0.123 } in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same events" r1.events r2.events;
  Alcotest.(check int) "static bsz reported" p.bsz r1.tuned_bsz_final;
  Alcotest.(check int) "static wnd reported" p.wnd r1.tuned_wnd_final

let autotune_params () =
  let p = Params.default ~n:3 ~cores:4 () in
  { p with n_clients = 400; warmup = 0.1; duration = 0.4;
    auto_tune = true; tune_epoch = 0.005 }

let test_jpaxos_autotune_deterministic () =
  let r1 = Jpaxos_model.run (autotune_params ()) in
  let r2 = Jpaxos_model.run (autotune_params ()) in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same events" r1.events r2.events;
  Alcotest.(check int) "same tuned bsz" r1.tuned_bsz_final r2.tuned_bsz_final;
  Alcotest.(check int) "same tuned wnd" r1.tuned_wnd_final r2.tuned_wnd_final

let test_jpaxos_autotune_adapts () =
  let p = autotune_params () in
  let r = Jpaxos_model.run p in
  Alcotest.(check bool) "controller moved a knob" true
    (r.tuned_bsz_final <> p.bsz || r.tuned_wnd_final <> p.wnd);
  Alcotest.(check bool) "bsz within bounds" true
    (r.tuned_bsz_final >= 256 && r.tuned_bsz_final <= 65536);
  Alcotest.(check bool) "wnd within bounds" true
    (r.tuned_wnd_final >= 1 && r.tuned_wnd_final <= 64);
  (* adapting from the static default must not cost throughput *)
  let rs = Jpaxos_model.run { p with auto_tune = false } in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.0f >= 0.9x static %.0f" r.throughput
       rs.throughput)
    true
    (r.throughput >= 0.9 *. rs.throughput)

let test_jpaxos_model_scales () =
  let r1 = Jpaxos_model.run (small_params ~cores:1 ()) in
  let r2 = Jpaxos_model.run (small_params ~cores:2 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "2 cores (%.0f) beat 1 core (%.0f)" r2.throughput
       r1.throughput)
    true
    (r2.throughput > r1.throughput *. 1.3)

let test_jpaxos_nic_binds_at_many_cores () =
  let p = Params.default ~n:3 ~cores:24 () in
  let p = { p with n_clients = 600; warmup = 0.2; duration = 0.5 } in
  let r = Jpaxos_model.run p in
  (* The leader's packet rate must sit at the kernel limit. *)
  Alcotest.(check bool)
    (Printf.sprintf "tx %.0f pps ~ 150K" r.leader_tx_pps)
    true
    (r.leader_tx_pps > 140_000. && r.leader_tx_pps <= 151_000.);
  Alcotest.(check bool) "blocked time small" true
    (r.replicas.(0).blocked_pct < 20.)

let test_jpaxos_window_respected () =
  let p = { (small_params ~cores:24 ()) with wnd = 3; n_clients = 300 } in
  let r = Jpaxos_model.run p in
  Alcotest.(check bool)
    (Printf.sprintf "avg window %.2f <= 3" r.avg_window)
    true (r.avg_window <= 3.01)

let test_jpaxos_rtt_leader_inflated () =
  let p = Params.default ~n:3 ~cores:24 () in
  let p = { p with warmup = 0.2; duration = 0.5; wnd = 35 } in
  let r = Jpaxos_model.run p in
  Alcotest.(check bool) "idle rtt small" true (r.rtt_idle < 0.1e-3);
  Alcotest.(check bool)
    (Printf.sprintf "leader rtt %.3fms >> idle" (r.rtt_leader *. 1e3))
    true
    (r.rtt_leader > 5. *. r.rtt_idle)

(* Parallel ServiceManager (executor pool) in the model. *)

(* Golden pre-executor numbers for [small_params ()]: exec_threads = 1
   must take the exact serial ServiceManager path, so throughput stays
   within tolerance of the value measured before the executor pool was
   introduced (33_500 req/s). *)
let test_jpaxos_exec1_matches_serial_baseline () =
  let p = { (small_params ()) with exec_threads = 1 } in
  let r = Jpaxos_model.run p in
  let lo = 33_500. *. 0.95 and hi = 33_500. *. 1.05 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f within 5%% of 33500" r.throughput)
    true
    (r.throughput >= lo && r.throughput <= hi)

let exec_heavy exec_threads =
  (* Execution-bound workload: 50 us/request keeps the leader far below
     the NIC packet ceiling, so executor scaling is visible. *)
  let p = Params.default ~n:3 ~cores:16 () in
  { p with
    n_clients = 600; warmup = 0.2; duration = 0.5;
    costs = { p.costs with exec_per_req = 50e-6 };
    exec_threads }

let test_jpaxos_executors_scale () =
  let r1 = Jpaxos_model.run (exec_heavy 1) in
  let r4 = Jpaxos_model.run (exec_heavy 4) in
  Alcotest.(check bool)
    (Printf.sprintf "4 executors (%.0f) >= 2x serial (%.0f)" r4.throughput
       r1.throughput)
    true
    (r4.throughput >= 2. *. r1.throughput);
  let threads = List.map fst r4.replicas.(0).threads in
  Alcotest.(check bool) "executor threads reported" true
    (List.mem "Executor-0" threads && List.mem "Executor-3" threads)

let test_jpaxos_executors_conflicts_serialise () =
  (* conflict_ratio 1.0: every request quiesces the pool and runs on the
     scheduler — the pool buys nothing over serial execution. *)
  let r1 = Jpaxos_model.run (exec_heavy 1) in
  let rc = Jpaxos_model.run { (exec_heavy 4) with conflict_ratio = 1.0 } in
  Alcotest.(check bool)
    (Printf.sprintf "all-conflicting (%.0f) ~ serial (%.0f)" rc.throughput
       r1.throughput)
    true
    (rc.throughput <= r1.throughput *. 1.1)

let test_jpaxos_executors_deterministic () =
  let p = { (small_params ()) with exec_threads = 4; conflict_ratio = 0.05 } in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same event count" r1.events r2.events

(* Work-stealing executor pool in the model. *)

let steal_params ~steal ~skew =
  (* Execution-bound, with a client population small enough that the
     cold clients cannot saturate executors 1..3 on their own — the
     fixed-route convoy on executor 0 then shows up as lost throughput
     (see bench007 for the same setup swept over skews). *)
  let p = Params.default ~n:3 ~cores:16 () in
  { p with
    n_clients = 150; warmup = 0.1; duration = 0.3;
    costs = { p.costs with exec_per_req = 50e-6 };
    exec_threads = 4; steal; skew }

let test_jpaxos_steal_deterministic () =
  let p = steal_params ~steal:true ~skew:0.9 in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same event count" r1.events r2.events;
  Alcotest.(check int) "same steal count" r1.steals r2.steals

let test_jpaxos_steal_recovers_convoy () =
  let fixed = Jpaxos_model.run (steal_params ~steal:false ~skew:0.9) in
  let stolen = Jpaxos_model.run (steal_params ~steal:true ~skew:0.9) in
  Alcotest.(check int) "fixed route never steals" 0 fixed.steals;
  Alcotest.(check bool)
    (Printf.sprintf "steals happened (%d)" stolen.steals)
    true (stolen.steals > 0);
  Alcotest.(check bool)
    (Printf.sprintf "stealing (%.0f) >= 1.3x fixed (%.0f) at skew 0.9"
       stolen.throughput fixed.throughput)
    true
    (stolen.throughput >= 1.3 *. fixed.throughput)

let test_jpaxos_steal_uniform_parity () =
  (* Uniform load saturates all executors either way: the lane/token
     pool must not cost throughput when there is nothing to steal. *)
  let fixed = Jpaxos_model.run (steal_params ~steal:false ~skew:0.0) in
  let stolen = Jpaxos_model.run (steal_params ~steal:true ~skew:0.0) in
  Alcotest.(check bool)
    (Printf.sprintf "lanes (%.0f) within 10%% of fixed (%.0f)"
       stolen.throughput fixed.throughput)
    true
    (stolen.throughput >= 0.9 *. fixed.throughput
    && stolen.throughput <= 1.1 *. fixed.throughput)

(* Durable-mode model: Sdisk device + StableStorage process. *)

let test_sdisk_groups_and_serializes () =
  let eng = Engine.create () in
  let d = Sdisk.create eng ~fsync_latency:5e-3 in
  let t1 = ref 0. and t2 = ref 0. in
  Sdisk.append d 3;
  Sdisk.fsync d (fun () -> t1 := Engine.now eng);
  Alcotest.(check bool) "buffer drained at issue" false (Sdisk.has_pending d);
  Sdisk.append d 4;
  Sdisk.fsync d (fun () -> t2 := Engine.now eng);
  Engine.run eng ~until:1.0;
  Alcotest.(check (float 1e-9)) "first sync completes" 5e-3 !t1;
  (* The second fsync was issued while the first was in flight: it
     queues behind the device. *)
  Alcotest.(check (float 1e-9)) "second serializes" 10e-3 !t2;
  Alcotest.(check int) "syncs" 2 (Sdisk.syncs d);
  Alcotest.(check int) "records" 7 (Sdisk.records_synced d);
  Alcotest.(check (float 1e-9)) "group avg" 3.5 (Sdisk.avg_group d)

let durable_params pol =
  let p = Params.default ~n:3 ~cores:8 () in
  { p with n_clients = 100; warmup = 0.4; duration = 0.8; sync_policy = pol }

let test_jpaxos_durable_group_beats_serial () =
  let none = Jpaxos_model.run (durable_params Params.Sync_none) in
  let ser = Jpaxos_model.run (durable_params Params.Sync_serial) in
  let grp = Jpaxos_model.run (durable_params Params.Sync_group) in
  Alcotest.(check int) "no device without stable storage" 0 none.wal_syncs;
  Alcotest.(check bool) "serial pays one sync per record" true
    (ser.wal_syncs > 0 && ser.wal_group_avg <= 1.001);
  Alcotest.(check bool)
    (Printf.sprintf "group commit batches (%.1f records/sync)"
       grp.wal_group_avg)
    true (grp.wal_group_avg >= 2.);
  (* The acceptance bar of the durability pipeline. *)
  Alcotest.(check bool)
    (Printf.sprintf "group (%.0f) >= 3x serial (%.0f)" grp.throughput
       ser.throughput)
    true
    (grp.throughput >= 3. *. ser.throughput);
  Alcotest.(check bool) "durability still costs something" true
    (none.throughput > grp.throughput)

let test_jpaxos_durable_deterministic () =
  let p = { (small_params ()) with sync_policy = Params.Sync_group } in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same event count" r1.events r2.events;
  Alcotest.(check int) "same sync count" r1.wal_syncs r2.wal_syncs

(* Fault injection (Sfault) in the model. *)

let chaos_params ?(duration = 0.6) faults =
  let p = Params.default ~n:3 ~cores:2 () in
  { p with n_clients = 60; warmup = 0.1; duration; faults; chaos_seed = 7 }

let test_chaos_faultfree_fields_inert () =
  (* faults = [] must leave every chaos-only result field at its inert
     value — the fault-free path reports nothing it did not measure. *)
  let r = Jpaxos_model.run (small_params ()) in
  Alcotest.(check int) "no view changes" 0 r.view_changes;
  Alcotest.(check (float 0.)) "no unavailability" 0. r.unavailable_s;
  Alcotest.(check (float 0.)) "no recovery" 0. r.recovery_s;
  Alcotest.(check bool) "safety trivially ok" true r.safety_ok;
  Alcotest.(check int) "no timeline" 0 (Array.length r.timeline)

let test_chaos_leader_crash_recovers () =
  let r =
    Jpaxos_model.run
      (chaos_params ~duration:1.0
         [ Sfault.Crash { node = 0; at = 0.4; restart_at = Some 0.7 } ])
  in
  Alcotest.(check bool) "view moved" true (r.view_changes >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "recovery measured (%.3fs)" r.recovery_s)
    true
    (r.recovery_s > 0. && r.recovery_s < 1.0);
  Alcotest.(check bool) "outage visible" true (r.unavailable_s > 0.05);
  Alcotest.(check bool) "linearizable" true r.safety_ok;
  Alcotest.(check bool) "clients completed requests" true (r.completed > 1000);
  (* The trajectory must show the outage and the recovery: a zero bucket
     during the fault window and full-rate buckets at the tail. *)
  let bucket_at t =
    let found = ref (-1) in
    Array.iter
      (fun (t0, c) -> if Float.abs (t0 -. t) < 1e-9 then found := c)
      r.timeline;
    !found
  in
  Alcotest.(check int) "dead during outage" 0 (bucket_at 0.45);
  Alcotest.(check bool) "recovered at tail" true (bucket_at 1.0 > 1000)

let test_chaos_crash_deterministic () =
  (* The acceptance golden: two invocations of the same seeded chaos run
     are bit-identical, down to the engine event count. *)
  let p =
    chaos_params ~duration:1.0
      [ Sfault.Crash { node = 0; at = 0.4; restart_at = Some 0.7 } ]
  in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "same completed" r1.completed r2.completed;
  Alcotest.(check int) "same view changes" r1.view_changes r2.view_changes;
  Alcotest.(check (float 0.)) "same recovery" r1.recovery_s r2.recovery_s;
  Alcotest.(check (float 0.)) "same unavailability" r1.unavailable_s
    r2.unavailable_s;
  Alcotest.(check int) "same client retries" r1.client_retries
    r2.client_retries;
  Alcotest.(check int) "same event count" r1.events r2.events

let test_chaos_partition_heals () =
  (* Isolate the leader; the majority side elects a new one, then the
     partition heals and the old leader rejoins. *)
  let r =
    Jpaxos_model.run
      (chaos_params ~duration:0.8
         [ Sfault.Partition
             { group_a = [ 0 ]; group_b = [ 1; 2 ]; at = 0.3; heal_at = 0.55;
               symmetric = true } ])
  in
  Alcotest.(check bool) "majority elected a new leader" true
    (r.view_changes >= 1);
  Alcotest.(check bool) "outage bounded by failover" true
    (r.unavailable_s > 0.02);
  Alcotest.(check bool) "linearizable across the partition" true r.safety_ok;
  Alcotest.(check bool) "progress resumed" true (r.completed > 1000)

let test_chaos_catchup_under_loss () =
  (* Starve follower 2 of most leader traffic (Accept/Decide loss) for a
     window; after it lifts, retransmission + catchup must reconverge the
     executed logs. This is the sim-side catchup-under-loss golden. *)
  let p =
    chaos_params ~duration:0.8
      [ Sfault.Link
          { l_src = 0; l_dst = 2; drop = 0.9; dup = 0.; delay_s = 0.;
            jitter_s = 0.; from_t = 0.2; until_t = 0.4 } ]
  in
  let r = Jpaxos_model.run p in
  Alcotest.(check bool) "linearizable under loss" true r.safety_ok;
  Alcotest.(check bool) "cluster kept committing" true (r.completed > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "follower reconverged (executed [%d, %d])" r.executed_min
       r.executed_max)
    true
    (r.executed_min > 0 && r.executed_max - r.executed_min <= 2000);
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "deterministic under loss" r.events r2.events;
  Alcotest.(check int) "same convergence" r.executed_min r2.executed_min

let test_chaos_random_soak () =
  let p =
    { (chaos_params ~duration:1.0
         (Sfault.random_schedule ~seed:42 ~n:3 ~t0:0.2 ~t1:1.0))
      with chaos_seed = 42 }
  in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check bool) "soak linearizable" true r1.safety_ok;
  Alcotest.(check bool) "soak made progress" true (r1.completed > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "soak converged (executed [%d, %d])" r1.executed_min
       r1.executed_max)
    true
    (r1.executed_max - r1.executed_min <= 2000);
  Alcotest.(check int) "soak bit-identical: completed" r1.completed
    r2.completed;
  Alcotest.(check int) "soak bit-identical: views" r1.view_changes
    r2.view_changes;
  Alcotest.(check (float 0.)) "soak bit-identical: recovery" r1.recovery_s
    r2.recovery_s;
  Alcotest.(check int) "soak bit-identical: events" r1.events r2.events

let test_chaos_fsync_stall_durable () =
  (* A stalled device on the leader under Sync_group: throughput dips
     but durability-gated progress resumes once the stall lifts, and the
     run stays deterministic. *)
  let p =
    { (chaos_params ~duration:0.8
         [ Sfault.Fsync_stall { node = 0; at = 0.3; until_t = 0.5 } ])
      with sync_policy = Params.Sync_group; n_clients = 60 }
  in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check bool) "still linearizable" true r1.safety_ok;
  Alcotest.(check bool) "progress despite the stall" true (r1.completed > 500);
  Alcotest.(check int) "deterministic" r1.events r2.events

(* Online reconfiguration in the model. *)

let test_reconfig_fields_inert () =
  (* Static membership (the default) must leave the reconfig result
     fields at their inert values -- the golden-pinned fault-free path
     reports nothing it did not do. *)
  let r = Jpaxos_model.run (small_params ()) in
  Alcotest.(check int) "no reconfigs applied" 0 r.reconfigs_applied;
  Alcotest.(check int) "epoch never moved" 0 r.final_epoch

let reconfig_params ?(duration = 1.2) ?(faults = []) reconfig_at =
  let p = Params.default ~n:5 ~cores:2 () in
  { p with
    n_clients = 60;
    warmup = 0.1;
    duration;
    chaos_seed = 7;
    members0 = [ 0; 1; 2 ];
    reconfig_at;
    faults }

let test_reconfig_model_grow_shrink () =
  (* 3 -> 5 -> 3 under load: the grow leg needs add-learner + promote
     per joiner (4 epochs), the shrink leg removes the two surplus
     members (2 more), so a completed schedule lands on epoch 6. *)
  let r =
    Jpaxos_model.run
      (reconfig_params
         [ (0.3, [ 0; 1; 2; 3; 4 ]); (0.7, [ 0; 1; 2 ]) ])
  in
  Alcotest.(check bool) "linearizable across reconfig" true r.safety_ok;
  Alcotest.(check int) "schedule completed (epoch 6)" 6 r.final_epoch;
  Alcotest.(check bool) "members adopted the epochs" true
    (r.reconfigs_applied >= 6);
  Alcotest.(check bool) "cluster kept committing" true (r.completed > 1000)

let test_reconfig_chaos_golden () =
  (* Crash the joiner mid state transfer, restart it, and let the
     schedule finish; the acceptance golden is that two invocations of
     the same seeded run are bit-identical. *)
  let p =
    reconfig_params ~duration:1.4
      ~faults:[ Sfault.Crash { node = 3; at = 0.4; restart_at = Some 0.6 } ]
      [ (0.3, [ 0; 1; 2; 3 ]) ]
  in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check bool) "safe across crash-during-transfer" true
    r1.safety_ok;
  Alcotest.(check bool) "membership change completed" true
    (r1.final_epoch >= 2);
  Alcotest.(check int) "golden: same completed" r1.completed r2.completed;
  Alcotest.(check int) "golden: same reconfigs" r1.reconfigs_applied
    r2.reconfigs_applied;
  Alcotest.(check int) "golden: same final epoch" r1.final_epoch
    r2.final_epoch;
  Alcotest.(check int) "golden: same events" r1.events r2.events

(* Compartmentalized multi-group Paxos in the model. *)

let test_multigroup_single_group_unchanged () =
  (* groups = 1 is the single-group model: the serial-baseline golden
     still holds, the per-group split degenerates to the total, and no
     Global barrier ever runs. *)
  let r = Jpaxos_model.run { (small_params ()) with groups = 1 } in
  let lo = 33_500. *. 0.95 and hi = 33_500. *. 1.05 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f within 5%% of 33500" r.throughput)
    true
    (r.throughput >= lo && r.throughput <= hi);
  Alcotest.(check int) "one group reported" 1
    (Array.length r.group_throughputs);
  Alcotest.(check (float 0.)) "split equals total" r.throughput
    r.group_throughputs.(0);
  Alcotest.(check int) "no globals on the single-group path" 0
    r.globals_executed

let test_multigroup_deterministic () =
  let p = { (small_params ()) with groups = 4 } in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same completed" r1.completed r2.completed;
  Alcotest.(check int) "same event count" r1.events r2.events;
  Array.iteri
    (fun g t ->
       Alcotest.(check (float 0.))
         (Printf.sprintf "group %d split identical" g)
         t r2.group_throughputs.(g))
    r1.group_throughputs

let test_multigroup_scales_past_single_leader () =
  (* The tentpole: one group is NIC-bound at its single leader; four
     groups spread the leader role over the nodes' NICs. The committed
     bench (bench/BENCH_006.json) gates the full-length ratio. *)
  let mg groups =
    let p = Params.default ~n:3 ~cores:24 () in
    Jpaxos_model.run { p with groups; warmup = 0.1; duration = 0.3 }
  in
  let r1 = mg 1 and r4 = mg 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 groups (%.0f) >= 2x one group (%.0f)" r4.throughput
       r1.throughput)
    true
    (r4.throughput >= 2. *. r1.throughput);
  Alcotest.(check int) "four splits" 4 (Array.length r4.group_throughputs);
  let sum = Array.fold_left ( +. ) 0. r4.group_throughputs in
  Alcotest.(check bool) "splits sum to the total" true
    (Float.abs (sum -. r4.throughput) <= 0.01 *. r4.throughput);
  Alcotest.(check bool) "every group made progress" true
    (Array.for_all (fun t -> t > 1000.) r4.group_throughputs)

let test_multigroup_global_barrier () =
  (* A Global slice must actually cross the barrier (quiesce every
     group, execute through group 0) without hurting safety. *)
  let p = { (small_params ()) with groups = 4; conflict_ratio = 0.05 } in
  let r = Jpaxos_model.run p in
  Alcotest.(check bool)
    (Printf.sprintf "globals executed (%d)" r.globals_executed)
    true (r.globals_executed > 0);
  Alcotest.(check bool) "linearizable with barriers" true r.safety_ok;
  Alcotest.(check bool) "throughput survives the barrier" true
    (r.throughput > 1000.);
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "barrier path deterministic" r.events r2.events;
  Alcotest.(check int) "same globals" r.globals_executed r2.globals_executed

let test_multigroup_chaos_one_group_crash_isolated () =
  (* Crash node 0 — the leader of group 0 (g mod n = 0) but a follower
     of group 1 (led by node 1). Group 1 must keep its leader and carry
     most of the run's throughput while group 0 fails over. *)
  let p =
    { (chaos_params ~duration:1.0
         [ Sfault.Crash { node = 0; at = 0.4; restart_at = Some 0.7 } ])
      with groups = 2 }
  in
  let r = Jpaxos_model.run p in
  Alcotest.(check bool) "group 0 failed over" true (r.view_changes >= 1);
  Alcotest.(check bool) "linearizable in every group" true r.safety_ok;
  Alcotest.(check bool)
    (Printf.sprintf "unaffected group carried on (g0 %.0f, g1 %.0f)"
       r.group_throughputs.(0) r.group_throughputs.(1))
    true
    (r.group_throughputs.(1) > 1.5 *. r.group_throughputs.(0));
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "chaos multi-group deterministic" r.events r2.events

let test_multigroup_rejects_reconfig () =
  (* The model does not coordinate epoch walks across groups, so it
     refuses the combination instead of ignoring the schedule. *)
  let p =
    { (reconfig_params [ (0.3, [ 0; 1; 2; 3; 4 ]) ]) with groups = 2 }
  in
  (match Jpaxos_model.run p with
   | _ -> Alcotest.fail "groups > 1 with reconfig_at must be rejected"
   | exception Invalid_argument _ -> ());
  (* A Reconfig takes effect [wnd] instances after its decision, but the
     controller can open more instances than that. *)
  let p =
    { (reconfig_params [ (0.3, [ 0; 1; 2; 3; 4 ]) ]) with auto_tune = true }
  in
  match Jpaxos_model.run p with
  | _ -> Alcotest.fail "auto_tune with reconfig_at must be rejected"
  | exception Invalid_argument _ -> ()

let test_multigroup_rejects_homeless_members0 () =
  (* Group 1 bootstraps in view 1, led by its home node 1 mod 3 = 1; a
     boot membership without node 1 could never activate it. *)
  let p = { (small_params ()) with groups = 2; members0 = [ 0; 2 ] } in
  match Jpaxos_model.run p with
  | _ -> Alcotest.fail "members0 without group 1's home must be rejected"
  | exception Invalid_argument _ -> ()

let test_multigroup_composed_chaos () =
  (* Every single-group feature at groups = 2, under a partition and a
     crash: per-group heartbeat failure detectors, autotune, two
     Batchers and a two-executor stealing pool per group, zipfian
     skew. *)
  let p =
    { (chaos_params ~duration:1.0
         [ Sfault.Partition
             { group_a = [ 1 ]; group_b = [ 0; 2 ]; at = 0.2; heal_at = 0.45;
               symmetric = true };
           Sfault.Crash { node = 0; at = 0.55; restart_at = Some 0.8 } ])
      with
      groups = 2; cores = 8; auto_tune = true; n_batchers = 2;
      exec_threads = 2; steal = true; skew = 0.9 }
  in
  let r1 = Jpaxos_model.run p in
  Alcotest.(check bool) "linearizable in every group" true r1.safety_ok;
  Alcotest.(check bool)
    (Printf.sprintf "views moved (%d)" r1.view_changes)
    true (r1.view_changes >= 1);
  Alcotest.(check bool) "clients completed requests" true (r1.completed > 1000);
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "golden: same events" r1.events r2.events;
  Alcotest.(check int) "golden: same completed" r1.completed r2.completed

(* Read-heavy fast path: leases + local reads in the model. *)

let read_params ?(stale = false) ratio =
  { (small_params ()) with
    read_ratio = ratio; lease = true; stale_reads = stale;
    clock_skew = 0.002; lease_duration = 0.5 }

let test_reads_lease_off_identity () =
  (* lease = false must leave the event stream byte-for-byte the
     lease-free one even with read_ratio > 0: reads take the ordered
     path like any write (the ordered-read baseline), no lease process
     runs, and no read-only counters move. *)
  let base = Jpaxos_model.run (small_params ()) in
  let r = Jpaxos_model.run { (small_params ()) with read_ratio = 0.95 } in
  Alcotest.(check (float 0.)) "same throughput" base.throughput r.throughput;
  Alcotest.(check int) "same event count" base.events r.events;
  Alcotest.(check int) "no fast-path reads" 0 r.reads_completed;
  Alcotest.(check int) "no rejects" 0 r.read_rejects;
  Alcotest.(check int) "no stale answers" 0 r.stale_answers

let test_reads_lease_off_identity_multigroup () =
  let mg p = Jpaxos_model.run { p with groups = 2 } in
  let base = mg (small_params ()) in
  let r = mg { (small_params ()) with read_ratio = 0.95 } in
  Alcotest.(check (float 0.)) "same throughput" base.throughput r.throughput;
  Alcotest.(check int) "same event count" base.events r.events;
  Alcotest.(check int) "no fast-path reads" 0 r.reads_completed

let test_reads_deterministic () =
  let p = read_params ~stale:true 0.5 in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check (float 0.)) "same throughput" r1.throughput r2.throughput;
  Alcotest.(check int) "same event count" r1.events r2.events;
  Alcotest.(check int) "same reads" r1.reads_completed r2.reads_completed;
  Alcotest.(check int) "same rejects" r1.read_rejects r2.read_rejects

let test_reads_linearizable_at_leaseholder () =
  (* With stale_reads off every read goes to the leaseholder, which
     serves it from local executed state once the lease is held. *)
  let r = Jpaxos_model.run (read_params 0.5) in
  Alcotest.(check bool)
    (Printf.sprintf "fast-path reads served (%d)" r.reads_completed)
    true (r.reads_completed > 1000);
  Alcotest.(check bool) "read safety holds" true r.safety_ok;
  Alcotest.(check int) "no stale answers" 0 r.stale_answers

let test_reads_stale_speedup () =
  (* Bounded-staleness reads spread over all three NICs; at 95/5 the
     fast path must clearly beat the ordered-read baseline (the full
     sweep and the 5x gate live in bench008). *)
  let base = Jpaxos_model.run { (small_params ()) with read_ratio = 0.95 } in
  let r = Jpaxos_model.run (read_params ~stale:true 0.95) in
  Alcotest.(check bool)
    (Printf.sprintf "stale reads (%.0f) >= 2x ordered baseline (%.0f)"
       r.throughput base.throughput)
    true
    (r.throughput >= 2. *. base.throughput);
  Alcotest.(check bool) "read safety holds" true r.safety_ok;
  Alcotest.(check int) "no stale answers" 0 r.stale_answers

let test_reads_multigroup () =
  (* Per-group leases: ClientIO routes reads to their group's
     decision queue and are served against that group's lease. *)
  let p = { (read_params ~stale:true 0.5) with groups = 2 } in
  let r1 = Jpaxos_model.run p in
  Alcotest.(check bool)
    (Printf.sprintf "multi-group reads served (%d)" r1.reads_completed)
    true (r1.reads_completed > 1000);
  Alcotest.(check bool) "read safety holds" true r1.safety_ok;
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "deterministic" r1.events r2.events;
  Alcotest.(check int) "same reads" r1.reads_completed r2.reads_completed

let test_chaos_reads_partition_golden () =
  (* The lease-safety chaos golden: partition the leaseholder (node 0)
     away from the majority while stale reads keep arriving at every
     node. Once its lease expires the old leaseholder must refuse
     reads rather than answer from a stale frontier — zero stale
     answers, nonzero rejects — and the majority side elects a new
     leader. Two seeded runs must be bit-identical. *)
  let p =
    { (chaos_params ~duration:1.5
         [ Sfault.Partition
             { group_a = [ 0 ]; group_b = [ 1; 2 ]; at = 0.3; heal_at = 1.2;
               symmetric = true } ])
      with
      read_ratio = 0.5; lease = true; stale_reads = true;
      clock_skew = 0.002; lease_duration = 0.5 }
  in
  let r1 = Jpaxos_model.run p in
  Alcotest.(check bool) "read safety across the partition" true r1.safety_ok;
  Alcotest.(check int) "zero stale answers" 0 r1.stale_answers;
  Alcotest.(check bool)
    (Printf.sprintf "expired/unfresh replicas refused reads (%d)"
       r1.read_rejects)
    true (r1.read_rejects > 0);
  Alcotest.(check bool) "majority elected a new leader" true
    (r1.view_changes >= 1);
  Alcotest.(check bool) "reads still completed" true (r1.reads_completed > 0);
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "golden: same events" r1.events r2.events;
  Alcotest.(check int) "golden: same completed" r1.completed r2.completed;
  Alcotest.(check int) "golden: same reads" r1.reads_completed
    r2.reads_completed;
  Alcotest.(check int) "golden: same rejects" r1.read_rejects r2.read_rejects

(* Early scheduling + optimistic speculative execution in the model. *)

let spec_params ?(threads = 4) ?(mis = 0.0) ?(groups = 1) () =
  { (small_params ~cores:8 ()) with
    exec_threads = threads; steal = true; groups;
    speculate = true; mispredict_ratio = mis }

let test_spec_off_counters_inert () =
  (* speculate = false must leave the event stream byte-for-byte the
     ordered one — even with a mispredict ratio configured — and report
     no speculation activity. (The full off-path identity against the
     seed is pinned by the throughput goldens above.) *)
  let base = { (spec_params ()) with speculate = false } in
  let r0 = Jpaxos_model.run base in
  let r = Jpaxos_model.run { base with mispredict_ratio = 0.5 } in
  Alcotest.(check (float 0.)) "same throughput" r0.throughput r.throughput;
  Alcotest.(check int) "same event count" r0.events r.events;
  Alcotest.(check int) "nothing dispatched" 0 r.spec_dispatched;
  Alcotest.(check int) "nothing confirmed" 0 r.spec_confirmed;
  Alcotest.(check int) "nothing aborted" 0 r.spec_aborted

let test_spec_collapses_commit_exec_gap () =
  (* The tentpole: with speculation on, the optimistic result is already
     staged when the decide arrives, so decide->reply collapses to a
     confirm. (The full sweep and the 2x gate live in bench009.) *)
  let off = Jpaxos_model.run { (spec_params ()) with speculate = false } in
  let on = Jpaxos_model.run (spec_params ()) in
  Alcotest.(check bool)
    (Printf.sprintf "speculations dispatched (%d)" on.spec_dispatched)
    true (on.spec_dispatched > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "speculations confirmed (%d)" on.spec_confirmed)
    true (on.spec_confirmed > 1000);
  Alcotest.(check int) "happy path never aborts" 0 on.spec_aborted;
  Alcotest.(check bool)
    (Printf.sprintf "commit->execute gap shrank (%.1fus -> %.1fus)"
       (1e6 *. off.commit_exec_latency)
       (1e6 *. on.commit_exec_latency))
    true
    (on.commit_exec_latency < off.commit_exec_latency
     && off.commit_exec_latency > 0.);
  Alcotest.(check bool) "throughput not hurt" true
    (on.throughput >= 0.95 *. off.throughput);
  Alcotest.(check bool) "safety holds" true on.safety_ok

let test_spec_deterministic () =
  let p = spec_params ~mis:0.1 () in
  let r1 = Jpaxos_model.run p in
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "same event count" r1.events r2.events;
  Alcotest.(check int) "same completed" r1.completed r2.completed;
  Alcotest.(check int) "same dispatched" r1.spec_dispatched r2.spec_dispatched;
  Alcotest.(check int) "same confirmed" r1.spec_confirmed r2.spec_confirmed;
  Alcotest.(check int) "same aborted" r1.spec_aborted r2.spec_aborted;
  Alcotest.(check (float 0.)) "same commit->execute latency"
    r1.commit_exec_latency r2.commit_exec_latency

let test_spec_forced_mispredict_rolls_back () =
  (* The deterministic mispredict pattern exercises the rollback path on
     an otherwise happy run: frames abort and re-execute ordered, and
     the linearizability verdict still holds. *)
  let r = Jpaxos_model.run (spec_params ~mis:0.2 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks happened (%d)" r.spec_aborted)
    true (r.spec_aborted > 100);
  Alcotest.(check bool) "confirms still dominate" true
    (r.spec_confirmed > r.spec_aborted);
  Alcotest.(check bool) "safety holds through rollbacks" true r.safety_ok;
  Alcotest.(check bool) "clients kept completing" true (r.completed > 1000)

let test_spec_multigroup () =
  (* Per-group speculation on the multi-group path: each group's leader
     speculates on its own decide stream. *)
  let p = spec_params ~groups:2 () in
  let r1 = Jpaxos_model.run p in
  Alcotest.(check bool)
    (Printf.sprintf "multi-group speculations confirmed (%d)"
       r1.spec_confirmed)
    true (r1.spec_confirmed > 1000);
  Alcotest.(check bool) "safety holds" true r1.safety_ok;
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "deterministic" r1.events r2.events;
  Alcotest.(check int) "same confirmed" r1.spec_confirmed r2.spec_confirmed

let test_chaos_spec_crash_golden () =
  (* The rollback chaos golden: crash the leader mid-speculation (with a
     forced-mispredict pattern on top). Every open frame must abort —
     never surviving into the new view — the linearizability verdict
     must hold, and two seeded runs must be bit-identical. *)
  let p =
    { (chaos_params ~duration:1.0
         [ Sfault.Crash { node = 0; at = 0.4; restart_at = Some 0.7 } ])
      with
      cores = 8; exec_threads = 4; steal = true; speculate = true;
      mispredict_ratio = 0.1 }
  in
  let r1 = Jpaxos_model.run p in
  Alcotest.(check bool)
    (Printf.sprintf "frames aborted through the crash (%d)" r1.spec_aborted)
    true (r1.spec_aborted > 0);
  Alcotest.(check bool) "view moved" true (r1.view_changes >= 1);
  Alcotest.(check bool) "linearizable through speculation + crash" true
    r1.safety_ok;
  Alcotest.(check bool) "clients completed requests" true (r1.completed > 1000);
  let r2 = Jpaxos_model.run p in
  Alcotest.(check int) "golden: same events" r1.events r2.events;
  Alcotest.(check int) "golden: same completed" r1.completed r2.completed;
  Alcotest.(check int) "golden: same dispatched" r1.spec_dispatched
    r2.spec_dispatched;
  Alcotest.(check int) "golden: same confirmed" r1.spec_confirmed
    r2.spec_confirmed;
  Alcotest.(check int) "golden: same aborted" r1.spec_aborted r2.spec_aborted

(* groups = 1 fingerprints: seven single-group runs pinned to the values
   the model produced before the single- and multi-group paths were
   merged into one model. Any drift in the groups = 1 event stream
   (process spawn order, costs, queue wiring) moves [events] first. *)

type fingerprint = {
  fp_events : int;
  fp_completed : int;
  fp_throughput : float;
  fp_view_changes : int;
  fp_steals : int;
  fp_spec_confirmed : int;
  fp_reconfigs_applied : int;
  fp_final_epoch : int;
}

let fingerprint_of (r : Jpaxos_model.result) =
  { fp_events = r.events;
    fp_completed = r.completed;
    fp_throughput = r.throughput;
    fp_view_changes = r.view_changes;
    fp_steals = r.steals;
    fp_spec_confirmed = r.spec_confirmed;
    fp_reconfigs_applied = r.reconfigs_applied;
    fp_final_epoch = r.final_epoch }

let fingerprint_runs () =
  [ ("small", small_params ());
    ( "crash+partition",
      chaos_params ~duration:0.8
        [ Sfault.Crash { node = 0; at = 0.3; restart_at = Some 0.5 };
          Sfault.Partition
            { group_a = [ 2 ]; group_b = [ 0; 1 ]; at = 0.55; heal_at = 0.7;
              symmetric = true } ] );
    ("auto_tune", autotune_params ());
    ( "exec4+steal+skew",
      { (small_params ~cores:8 ()) with
        exec_threads = 4; steal = true; skew = 0.9 } );
    ("lease+stale", read_params ~stale:true 0.5);
    ( "spec+global+group-commit",
      { (small_params ~cores:8 ()) with
        exec_threads = 4; speculate = true; mispredict_ratio = 0.1;
        conflict_ratio = 0.05; sync_policy = Params.Sync_group } );
    ( "reconfig walk",
      reconfig_params ~duration:0.8 [ (0.3, [ 0; 1; 2; 3; 4 ]) ] ) ]

(* Captured from the pre-merge model; throughput as an exact hex float. *)
let pinned_fingerprints =
  [
    ( "small",
      { fp_events = 639518; fp_completed = 10050;
        fp_throughput = 0x1.05b8p+15; fp_view_changes = 0; fp_steals = 0;
        fp_spec_confirmed = 0; fp_reconfigs_applied = 0;
        fp_final_epoch = 0 } );
    ( "crash+partition",
      { fp_events = 758040; fp_completed = 12264;
        fp_throughput = 0x1.df1p+13; fp_view_changes = 4; fp_steals = 0;
        fp_spec_confirmed = 0; fp_reconfigs_applied = 0;
        fp_final_epoch = 0 } );
    ( "auto_tune",
      { fp_events = 1165952; fp_completed = 33436;
        fp_throughput = 0x1.4686p+16; fp_view_changes = 0; fp_steals = 0;
        fp_spec_confirmed = 0; fp_reconfigs_applied = 0;
        fp_final_epoch = 0 } );
    ( "exec4+steal+skew",
      { fp_events = 2248139; fp_completed = 32486;
        fp_throughput = 0x1.a6feaaaaaaaabp+16; fp_view_changes = 0;
        fp_steals = 47143;
        fp_spec_confirmed = 0; fp_reconfigs_applied = 0;
        fp_final_epoch = 0 } );
    ( "lease+stale",
      { fp_events = 749161; fp_completed = 16751;
        fp_throughput = 0x1.b439555555556p+15; fp_view_changes = 0;
        fp_steals = 0;
        fp_spec_confirmed = 0; fp_reconfigs_applied = 0;
        fp_final_epoch = 0 } );
    ( "spec+global+group-commit",
      { fp_events = 78817; fp_completed = 900;
        fp_throughput = 0x1.77p+11; fp_view_changes = 0; fp_steals = 0;
        fp_spec_confirmed = 163; fp_reconfigs_applied = 0;
        fp_final_epoch = 0 } );
    ( "reconfig walk",
      { fp_events = 1787032; fp_completed = 24460;
        fp_throughput = 0x1.ddbcp+14; fp_view_changes = 0; fp_steals = 0;
        fp_spec_confirmed = 0; fp_reconfigs_applied = 20;
        fp_final_epoch = 4 } ) ]

let test_single_group_fingerprints () =
  List.iter2
    (fun (name, p) (pinned_name, want) ->
       assert (name = pinned_name);
       let got = fingerprint_of (Jpaxos_model.run p) in
       let check_int what a b =
         Alcotest.(check int) (Printf.sprintf "%s: %s" name what) a b
       in
       check_int "events" want.fp_events got.fp_events;
       check_int "completed" want.fp_completed got.fp_completed;
       Alcotest.(check (float 0.))
         (Printf.sprintf "%s: throughput" name)
         want.fp_throughput got.fp_throughput;
       check_int "view_changes" want.fp_view_changes got.fp_view_changes;
       check_int "steals" want.fp_steals got.fp_steals;
       check_int "spec_confirmed" want.fp_spec_confirmed got.fp_spec_confirmed;
       check_int "reconfigs_applied" want.fp_reconfigs_applied
         got.fp_reconfigs_applied;
       check_int "final_epoch" want.fp_final_epoch got.fp_final_epoch)
    (fingerprint_runs ()) pinned_fingerprints

let suite =
  [
    Alcotest.test_case "engine: delay ordering" `Quick test_engine_delay_ordering;
    Alcotest.test_case "engine: same-time FIFO" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "engine: suspend/resume" `Quick test_engine_suspend_resume;
    Alcotest.test_case "engine: suspend timeout" `Quick test_engine_suspend_timeout;
    Alcotest.test_case "engine: run until" `Quick test_engine_run_until;
    Alcotest.test_case "cpu: one core serializes" `Quick test_cpu_serializes_on_one_core;
    Alcotest.test_case "cpu: two cores parallel" `Quick test_cpu_parallel_on_two_cores;
    Alcotest.test_case "cpu: switch cost" `Quick test_cpu_switch_cost_charged;
    Alcotest.test_case "slock: mutual exclusion" `Quick test_slock_mutual_exclusion;
    Alcotest.test_case "slock: blocked accounting" `Quick test_slock_blocked_accounting;
    Alcotest.test_case "squeue: fifo/capacity" `Quick test_squeue_fifo_and_capacity;
    Alcotest.test_case "squeue: take_timeout" `Quick test_squeue_take_timeout;
    Alcotest.test_case "mailbox: basics" `Quick test_mailbox;
    Alcotest.test_case "nic: packet rate" `Quick test_nic_packet_rate;
    Alcotest.test_case "nic: mtu split" `Quick test_nic_mtu_split;
    Alcotest.test_case "nic: idle rtt" `Quick test_nic_idle_rtt;
    Alcotest.test_case "jpaxos model: runs" `Quick test_jpaxos_model_runs;
    Alcotest.test_case "jpaxos model: deterministic" `Quick test_jpaxos_model_deterministic;
    Alcotest.test_case "jpaxos model: autotune off-path identical" `Quick
      test_jpaxos_autotune_off_path_identical;
    Alcotest.test_case "jpaxos model: autotune deterministic" `Quick
      test_jpaxos_autotune_deterministic;
    Alcotest.test_case "jpaxos model: autotune adapts" `Quick
      test_jpaxos_autotune_adapts;
    Alcotest.test_case "jpaxos model: scales with cores" `Quick test_jpaxos_model_scales;
    Alcotest.test_case "jpaxos model: NIC binds at many cores" `Slow
      test_jpaxos_nic_binds_at_many_cores;
    Alcotest.test_case "jpaxos model: window respected" `Quick test_jpaxos_window_respected;
    Alcotest.test_case "jpaxos model: leader RTT inflated" `Slow
      test_jpaxos_rtt_leader_inflated;
    Alcotest.test_case "jpaxos model: exec_threads=1 matches serial baseline"
      `Quick test_jpaxos_exec1_matches_serial_baseline;
    Alcotest.test_case "jpaxos model: executors scale low-conflict workload"
      `Slow test_jpaxos_executors_scale;
    Alcotest.test_case "jpaxos model: all-conflicting degenerates to serial"
      `Slow test_jpaxos_executors_conflicts_serialise;
    Alcotest.test_case "jpaxos model: steal path deterministic" `Quick
      test_jpaxos_steal_deterministic;
    Alcotest.test_case "jpaxos model: stealing recovers the zipfian convoy"
      `Quick test_jpaxos_steal_recovers_convoy;
    Alcotest.test_case "jpaxos model: stealing neutral on uniform load" `Quick
      test_jpaxos_steal_uniform_parity;
    Alcotest.test_case "jpaxos model: deterministic with executors" `Quick
      test_jpaxos_executors_deterministic;
    Alcotest.test_case "sdisk: group accounting and serialization" `Quick
      test_sdisk_groups_and_serializes;
    Alcotest.test_case "jpaxos model: group commit beats serial fsync" `Quick
      test_jpaxos_durable_group_beats_serial;
    Alcotest.test_case "jpaxos model: deterministic durable mode" `Quick
      test_jpaxos_durable_deterministic;
    Alcotest.test_case "chaos: fault-free fields inert" `Quick
      test_chaos_faultfree_fields_inert;
    Alcotest.test_case "chaos: leader crash recovers" `Slow
      test_chaos_leader_crash_recovers;
    Alcotest.test_case "chaos: crash run bit-identical" `Slow
      test_chaos_crash_deterministic;
    Alcotest.test_case "chaos: partition heals" `Slow test_chaos_partition_heals;
    Alcotest.test_case "chaos: catchup under loss" `Slow
      test_chaos_catchup_under_loss;
    Alcotest.test_case "chaos: seeded random soak" `Slow test_chaos_random_soak;
    Alcotest.test_case "chaos: fsync stall (durable)" `Quick
      test_chaos_fsync_stall_durable;
    Alcotest.test_case "jpaxos model: groups=1 fingerprints pinned" `Slow
      test_single_group_fingerprints;
    Alcotest.test_case "multigroup: groups=1 path unchanged" `Quick
      test_multigroup_single_group_unchanged;
    Alcotest.test_case "multigroup: deterministic" `Quick
      test_multigroup_deterministic;
    Alcotest.test_case "multigroup: scales past the single leader" `Slow
      test_multigroup_scales_past_single_leader;
    Alcotest.test_case "multigroup: cross-group Global barrier" `Quick
      test_multigroup_global_barrier;
    Alcotest.test_case "multigroup: crash in one group isolated" `Slow
      test_multigroup_chaos_one_group_crash_isolated;
    Alcotest.test_case "multigroup: reconfig_at rejected" `Quick
      test_multigroup_rejects_reconfig;
    Alcotest.test_case "multigroup: composed features under chaos" `Slow
      test_multigroup_composed_chaos;
    Alcotest.test_case "reads: lease-off path identical" `Quick
      test_reads_lease_off_identity;
    Alcotest.test_case "reads: lease-off multi-group path identical" `Quick
      test_reads_lease_off_identity_multigroup;
    Alcotest.test_case "reads: deterministic" `Quick test_reads_deterministic;
    Alcotest.test_case "reads: linearizable at the leaseholder" `Quick
      test_reads_linearizable_at_leaseholder;
    Alcotest.test_case "reads: stale reads beat the ordered baseline" `Quick
      test_reads_stale_speedup;
    Alcotest.test_case "reads: multi-group per-group leases" `Quick
      test_reads_multigroup;
    Alcotest.test_case "chaos: partitioned leaseholder refuses reads" `Slow
      test_chaos_reads_partition_golden;
    Alcotest.test_case "speculation: off-path counters inert" `Quick
      test_spec_off_counters_inert;
    Alcotest.test_case "speculation: collapses the commit->execute gap" `Quick
      test_spec_collapses_commit_exec_gap;
    Alcotest.test_case "speculation: deterministic" `Quick
      test_spec_deterministic;
    Alcotest.test_case "speculation: forced mispredicts roll back" `Quick
      test_spec_forced_mispredict_rolls_back;
    Alcotest.test_case "speculation: multi-group per-group frames" `Quick
      test_spec_multigroup;
    Alcotest.test_case "chaos: leader crash mid-speculation golden" `Slow
      test_chaos_spec_crash_golden;
    Alcotest.test_case "reconfig: fields inert on the static path" `Quick
      test_reconfig_fields_inert;
    Alcotest.test_case "reconfig: grow/shrink under load" `Slow
      test_reconfig_model_grow_shrink;
    Alcotest.test_case "reconfig: crash-during-transfer golden" `Slow
      test_reconfig_chaos_golden;
    Alcotest.test_case "multigroup: members0 without a group's home rejected"
      `Quick test_multigroup_rejects_homeless_members0;
  ]
