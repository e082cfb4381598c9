(* Tests for msmr_platform: heap, MPSC queue, concurrent map, delay queue,
   thread-state accounting. *)

open Msmr_platform

let test_heap_ordering () =
  let h = Binary_heap.create ~cmp:compare () in
  List.iter (Binary_heap.add h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check int) "length" 7 (Binary_heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Binary_heap.min_elt h);
  let rec drain acc =
    match Binary_heap.pop_min h with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain []);
  Alcotest.(check bool) "empty" true (Binary_heap.is_empty h)

let test_heap_duplicates () =
  let h = Binary_heap.create ~cmp:compare () in
  List.iter (Binary_heap.add h) [ 2; 2; 1; 1; 3 ];
  let rec drain acc =
    match Binary_heap.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2; 3 ] (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
       let h = Binary_heap.create ~cmp:compare () in
       List.iter (Binary_heap.add h) xs;
       let rec drain acc =
         match Binary_heap.pop_min h with
         | None -> List.rev acc
         | Some x -> drain (x :: acc)
       in
       drain [] = List.sort compare xs)

let test_mpsc_fifo () =
  let q = Mpsc_queue.create () in
  Alcotest.(check bool) "empty" true (Mpsc_queue.is_empty q);
  List.iter (Mpsc_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "drain" [ 1; 2; 3 ] (Mpsc_queue.drain q);
  Alcotest.(check (option int)) "then empty" None (Mpsc_queue.pop q)

let test_mpsc_concurrent () =
  let q = Mpsc_queue.create () in
  let per = 2000 and nprod = 4 in
  let producers =
    List.init nprod (fun p ->
        Worker.spawn ~name:(Printf.sprintf "mpsc-prod-%d" p) (fun _ ->
            for i = 0 to per - 1 do
              Mpsc_queue.push q ((p, i))
            done))
  in
  (* Single consumer: per-producer order must be preserved. *)
  let last = Array.make nprod (-1) in
  let count = ref 0 in
  let ok = ref true in
  while !count < per * nprod do
    match Mpsc_queue.pop q with
    | None -> Thread.yield ()
    | Some (p, i) ->
      if i <> last.(p) + 1 then ok := false;
      last.(p) <- i;
      incr count
  done;
  Worker.join_all producers;
  Alcotest.(check bool) "per-producer FIFO" true !ok;
  Alcotest.(check int) "all received" (per * nprod) !count

let test_cmap_basic () =
  let m = Concurrent_map.create () in
  Alcotest.(check (option string)) "miss" None (Concurrent_map.find_opt m 1);
  Concurrent_map.set m 1 "one";
  Concurrent_map.set m 2 "two";
  Alcotest.(check (option string)) "hit" (Some "one") (Concurrent_map.find_opt m 1);
  Alcotest.(check int) "len" 2 (Concurrent_map.length m);
  Concurrent_map.set m 1 "uno";
  Alcotest.(check (option string)) "replace" (Some "uno") (Concurrent_map.find_opt m 1);
  Alcotest.(check int) "len stable" 2 (Concurrent_map.length m);
  Concurrent_map.remove m 1;
  Alcotest.(check bool) "removed" false (Concurrent_map.mem m 1);
  Concurrent_map.clear m;
  Alcotest.(check int) "cleared" 0 (Concurrent_map.length m)

let test_cmap_update () =
  let m = Concurrent_map.create ~shards:4 () in
  Concurrent_map.update m "k" (function None -> Some 1 | Some v -> Some (v + 1));
  Concurrent_map.update m "k" (function None -> Some 1 | Some v -> Some (v + 1));
  Alcotest.(check (option int)) "counted" (Some 2) (Concurrent_map.find_opt m "k");
  Concurrent_map.update m "k" (fun _ -> None);
  Alcotest.(check bool) "deleted" false (Concurrent_map.mem m "k")

let test_cmap_concurrent_counters () =
  let m = Concurrent_map.create ~shards:8 () in
  let nthreads = 4 and iters = 1000 in
  let keys = [ "a"; "b"; "c" ] in
  let ws =
    List.init nthreads (fun i ->
        Worker.spawn ~name:(Printf.sprintf "cmap-%d" i) (fun _ ->
            for _ = 1 to iters do
              List.iter
                (fun k ->
                   Concurrent_map.update m k (function
                     | None -> Some 1
                     | Some v -> Some (v + 1)))
                keys
            done))
  in
  Worker.join_all ws;
  List.iter
    (fun k ->
       Alcotest.(check (option int))
         (Printf.sprintf "key %s" k)
         (Some (nthreads * iters))
         (Concurrent_map.find_opt m k))
    keys

let prop_cmap_models_hashtbl =
  (* A sequence of set/remove operations applied to the concurrent map
     agrees with a plain Hashtbl. *)
  QCheck.Test.make ~name:"concurrent map models hashtbl (sequential)"
    ~count:100
    QCheck.(list (pair (int_bound 50) (option (int_bound 1000))))
    (fun ops ->
       let m = Concurrent_map.create ~shards:4 () in
       let h = Hashtbl.create 16 in
       List.iter
         (fun (k, v) ->
            match v with
            | Some v -> Concurrent_map.set m k v; Hashtbl.replace h k v
            | None -> Concurrent_map.remove m k; Hashtbl.remove h k)
         ops;
       Hashtbl.fold
         (fun k v acc -> acc && Concurrent_map.find_opt m k = Some v)
         h
         (Concurrent_map.length m = Hashtbl.length h))

let test_delay_queue_order () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 300L) "c");
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 100L) "a");
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 200L) "b");
  let later = Int64.add now 1_000L in
  Alcotest.(check (option string)) "a" (Some "a") (Delay_queue.pop_due dq ~now_ns:later);
  Alcotest.(check (option string)) "b" (Some "b") (Delay_queue.pop_due dq ~now_ns:later);
  Alcotest.(check (option string)) "c" (Some "c") (Delay_queue.pop_due dq ~now_ns:later);
  Alcotest.(check (option string)) "done" None (Delay_queue.pop_due dq ~now_ns:later)

let test_delay_queue_not_due () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 1_000_000_000L) "later");
  Alcotest.(check (option string)) "not yet" None (Delay_queue.pop_due dq ~now_ns:now);
  Alcotest.(check int) "pending" 1 (Delay_queue.pending dq)

let test_delay_queue_cancel () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  let h1 = Delay_queue.schedule dq ~at_ns:(Int64.add now 10L) "cancelled" in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 20L) "kept");
  Delay_queue.cancel h1;
  Alcotest.(check bool) "flag" true (Delay_queue.is_cancelled h1);
  Alcotest.(check (option string)) "skips cancelled" (Some "kept")
    (Delay_queue.pop_due dq ~now_ns:(Int64.add now 100L));
  Alcotest.(check (option string)) "empty" None
    (Delay_queue.pop_due dq ~now_ns:(Int64.add now 100L))

let test_delay_queue_take_blocks_until_due () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now (Mclock.ns_of_s 0.03)) "x");
  let t0 = Mclock.now_ns () in
  Alcotest.(check string) "value" "x" (Delay_queue.take dq);
  let dt = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool) "waited" true (dt >= 0.02)

(* A consumer parked until a far head's deadline wakes for an entry
   scheduled earlier, and takes it at that entry's own deadline. *)
let test_delay_queue_earlier_entry () =
  let dq = Delay_queue.create () in
  let t0 = Mclock.now_ns () in
  let at s = Int64.add t0 (Mclock.ns_of_s s) in
  ignore (Delay_queue.schedule dq ~at_ns:(at 1.0) "late");
  let got = ref ("", 0.) in
  let w =
    Worker.spawn ~name:"dq-consumer" (fun _ ->
        let v = Delay_queue.take dq in
        got := (v, Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0)))
  in
  Mclock.sleep_s 0.02;
  ignore (Delay_queue.schedule dq ~at_ns:(at 0.06) "early");
  Worker.join w;
  let v, dt = !got in
  Alcotest.(check string) "earlier entry first" "early" v;
  Alcotest.(check bool) "not before its deadline" true (dt >= 0.06);
  Alcotest.(check bool) "long before the parked head's" true (dt < 0.5);
  Delay_queue.close dq

let test_thread_state_accounting () =
  let st = Thread_state.create ~name:"probe" in
  Thread_state.enter st Thread_state.Waiting (fun () -> Mclock.sleep_s 0.03);
  Mclock.sleep_s 0.01;
  let tot = Thread_state.totals st in
  Thread_state.unregister st;
  Alcotest.(check bool) "waiting >= 25ms" true
    (Mclock.s_of_ns tot.Thread_state.waiting_ns >= 0.025);
  Alcotest.(check bool) "busy >= 8ms" true
    (Mclock.s_of_ns tot.Thread_state.busy_ns >= 0.008)

let test_thread_state_registry () =
  let before = List.length (Thread_state.snapshot_all ()) in
  let st = Thread_state.create ~name:"reg-probe" in
  let during = List.length (Thread_state.snapshot_all ()) in
  Thread_state.unregister st;
  let after = List.length (Thread_state.snapshot_all ()) in
  Alcotest.(check int) "added" (before + 1) during;
  Alcotest.(check int) "removed" before after

let test_counter_and_mean () =
  let c = Rate_meter.Counter.create () in
  Rate_meter.Counter.incr c;
  Rate_meter.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Rate_meter.Counter.get c);
  let m = Rate_meter.Mean.create () in
  List.iter (Rate_meter.Mean.add m) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Rate_meter.Mean.mean m);
  Alcotest.(check bool) "stddev ~2.14" true
    (abs_float (Rate_meter.Mean.stddev m -. 2.13808993) < 1e-6)

let test_worker_failure_capture () =
  let w = Worker.spawn ~name:"dying" (fun _ -> failwith "boom") in
  Worker.join w;
  match Worker.failure w with
  | Some (Failure msg) -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected captured failure"

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_heap_sorts; prop_cmap_models_hashtbl ]

let suite =
  [
    Alcotest.test_case "heap: ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap: duplicates" `Quick test_heap_duplicates;
    Alcotest.test_case "mpsc: fifo" `Quick test_mpsc_fifo;
    Alcotest.test_case "mpsc: concurrent producers" `Quick test_mpsc_concurrent;
    Alcotest.test_case "cmap: basic" `Quick test_cmap_basic;
    Alcotest.test_case "cmap: update" `Quick test_cmap_update;
    Alcotest.test_case "cmap: concurrent counters" `Quick test_cmap_concurrent_counters;
    Alcotest.test_case "delay queue: order" `Quick test_delay_queue_order;
    Alcotest.test_case "delay queue: not due" `Quick test_delay_queue_not_due;
    Alcotest.test_case "delay queue: cancel" `Quick test_delay_queue_cancel;
    Alcotest.test_case "delay queue: take blocks" `Quick test_delay_queue_take_blocks_until_due;
    Alcotest.test_case "delay queue: earlier entry wakes take" `Quick
      test_delay_queue_earlier_entry;
    Alcotest.test_case "thread state: accounting" `Quick test_thread_state_accounting;
    Alcotest.test_case "thread state: registry" `Quick test_thread_state_registry;
    Alcotest.test_case "rate meter: counter/mean" `Quick test_counter_and_mean;
    Alcotest.test_case "worker: failure capture" `Quick test_worker_failure_capture;
  ]
  @ qsuite

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "empty p99" 0. (Histogram.percentile h 0.99);
  List.iter (Histogram.record h) [ 0.001; 0.002; 0.004; 0.100 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check bool) "mean ~26.75ms" true
    (abs_float (Histogram.mean h -. 0.02675) < 0.001);
  (* Buckets have ~4.5% resolution: p50 near 2ms, p100 near 100ms. *)
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 ~2ms" true (p50 > 0.0018 && p50 < 0.0023);
  let p100 = Histogram.percentile h 1.0 in
  Alcotest.(check bool) "p100 ~100ms" true (p100 > 0.09 && p100 < 0.11)

let test_histogram_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 0.01;
  Histogram.record b 0.02;
  Histogram.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "merged" 2 (Histogram.count b);
  Histogram.reset b;
  Alcotest.(check int) "reset" 0 (Histogram.count b)

let test_histogram_concurrent () =
  let h = Histogram.create () in
  let ws =
    List.init 4 (fun i ->
        Worker.spawn ~name:(Printf.sprintf "hist-%d" i) (fun _ ->
            for _ = 1 to 1000 do
              Histogram.record h 0.005
            done))
  in
  Worker.join_all ws;
  Alcotest.(check int) "all recorded" 4000 (Histogram.count h)

let suite =
  suite
  @ [
      Alcotest.test_case "histogram: basics" `Quick test_histogram_basics;
      Alcotest.test_case "histogram: merge/reset" `Quick test_histogram_merge_reset;
      Alcotest.test_case "histogram: concurrent" `Quick test_histogram_concurrent;
    ]
