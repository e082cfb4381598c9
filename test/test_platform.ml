(* Tests for msmr_platform: heap, concurrent map,
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
    Alcotest.test_case "cmap: basic" `Quick test_cmap_basic;
    Alcotest.test_case "cmap: update" `Quick test_cmap_update;
    Alcotest.test_case "cmap: concurrent counters" `Quick test_cmap_concurrent_counters;
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

(* Mclock is CLOCK_MONOTONIC: it counts from an arbitrary origin (boot on
   Linux), not from the epoch, so it reads far below the wall clock. *)
let test_mclock_not_wall_clock () =
  let mono = Int64.to_float (Mclock.now_ns ()) in
  let wall = Unix.gettimeofday () *. 1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "monotonic %.0f < half the wall clock %.0f" mono wall)
    true
    (mono < wall /. 2.)

let test_mclock_never_decreases () =
  let backwards = Atomic.make 0 in
  let ws =
    List.init 2 (fun i ->
        Worker.spawn ~name:(Printf.sprintf "mclock-%d" i) (fun _ ->
            let prev = ref (Mclock.now_ns ()) in
            for _ = 1 to 100_000 do
              let t = Mclock.now_ns () in
              if Int64.compare t !prev < 0 then Atomic.incr backwards;
              prev := t
            done))
  in
  Worker.join_all ws;
  Alcotest.(check int) "reads that went backwards" 0 (Atomic.get backwards)

let suite =
  suite
  @ [ Alcotest.test_case "mclock: not the wall clock" `Quick
        test_mclock_not_wall_clock;
      Alcotest.test_case "mclock: never decreases" `Quick
        test_mclock_never_decreases ]
