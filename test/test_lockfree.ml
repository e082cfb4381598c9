(* Lock-free spine tests: model-checked interleavings of the ring cores
   (via the Interleave DFS checker), unit tests for the Channel facade
   (blocking, timed and batch-drain paths), work-stealing Exec_pool
   tests, and QCheck stress over real threads.

   QCheck iteration counts scale with the MSMR_QCHECK_COUNT environment
   variable (the verify script's stress profile raises it). *)

open Msmr_platform
module Exec_pool = Msmr_runtime.Exec_pool

let stress_count =
  match Sys.getenv_opt "MSMR_QCHECK_COUNT" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 30)
  | None -> 30

(* ------------------------------------------------------------------ *)
(* Model-checked interleavings: the exact shipped ring code, with every
   atomic access a scheduling point. *)

module Spsc = Lf_queue.Spsc_core (Interleave.Traced_atomic)
module Mpmc = Lf_queue.Mpmc_core (Interleave.Traced_atomic)

let show_ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let rec drain_spsc q acc =
  match Spsc.try_pop q with
  | Some v -> drain_spsc q (v :: acc)
  | None -> List.rev acc

let rec drain_mpmc q acc =
  match Mpmc.try_pop q with
  | Some v -> drain_mpmc q (v :: acc)
  | None -> List.rev acc

(* A concurrent SPSC producer/consumer never loses, duplicates or
   reorders: consumer pops + final drain = accepted pushes, in order. *)
let test_mc_spsc_fifo () =
  let runs, complete =
    Interleave.explore (fun () ->
        let q = Spsc.create ~capacity:2 in
        let accepted = ref [] in
        let popped = ref [] in
        let producer () =
          List.iter
            (fun v -> if Spsc.try_push q v then accepted := v :: !accepted)
            [ 1; 2; 3 ]
        in
        let consumer () =
          for _ = 1 to 3 do
            match Spsc.try_pop q with
            | Some v -> popped := v :: !popped
            | None -> ()
          done
        in
        let check () =
          let got = List.rev !popped @ drain_spsc q [] in
          let want = List.rev !accepted in
          if got <> want then
            Alcotest.failf "spsc lost/reordered: accepted %s got %s"
              (show_ints want) (show_ints got)
        in
        ([ producer; consumer ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) "explored schedules" true (runs > 100)

(* Capacity-1 ring under a racing consumer: the bound holds (a push may
   only be accepted after the previous value was popped), order holds. *)
let test_mc_spsc_capacity () =
  let runs, complete =
    Interleave.explore (fun () ->
        let q = Spsc.create ~capacity:1 in
        let accepted = ref 0 in
        let popped = ref [] in
        let producer () =
          List.iter
            (fun v -> if Spsc.try_push q v then incr accepted)
            [ 1; 2; 3 ]
        in
        let consumer () =
          for _ = 1 to 2 do
            match Spsc.try_pop q with
            | Some v -> popped := v :: !popped
            | None -> ()
          done
        in
        let check () =
          let leftover = List.length (drain_spsc q []) in
          (* Never more in flight than the capacity... *)
          if !accepted - List.length !popped - leftover <> 0 then
            Alcotest.fail "spsc lost a value";
          if leftover > 1 then Alcotest.fail "spsc exceeded capacity 1"
        in
        ([ producer; consumer ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) "explored schedules" true (runs > 100)

(* Two producers racing pushes: every accepted value surfaces exactly
   once and each producer's values stay in its program order. *)
let test_mc_mpmc_producers () =
  let subsequence_in_order a b all =
    let idx v =
      let r = ref (-1) in
      List.iteri (fun i x -> if x = v && !r < 0 then r := i) all;
      !r
    in
    idx a < idx b
  in
  let runs, complete =
    (* Scenario sizes are tuned so the full space fits under the
       checker's run budget — CAS-retry branches multiply the base
       interleaving count considerably. *)
    Interleave.explore (fun () ->
        let q = Mpmc.create ~capacity:4 in
        let a_ok = ref 0 and b_ok = ref 0 in
        let producer_a () =
          if Mpmc.try_push q 10 then incr a_ok;
          if Mpmc.try_push q 11 then incr a_ok
        in
        let producer_b () = if Mpmc.try_push q 20 then incr b_ok in
        let check () =
          let all = drain_mpmc q [] in
          if List.length all <> !a_ok + !b_ok then
            Alcotest.failf "mpmc lost values: %s" (show_ints all);
          if List.sort_uniq compare all <> List.sort compare all then
            Alcotest.failf "mpmc duplicated: %s" (show_ints all);
          if !a_ok = 2 && not (subsequence_in_order 10 11 all) then
            Alcotest.failf "producer A reordered: %s" (show_ints all)
        in
        ([ producer_a; producer_b ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) "explored schedules" true (runs > 100)

(* Two consumers racing pops — the shape of the token-ring steal-vs-pop
   race in the executor pool: every value goes to exactly one consumer,
   and each consumer sees its values in queue order. *)
let test_mc_mpmc_consumers_exactly_once () =
  let runs, complete =
    Interleave.explore (fun () ->
        let q = Mpmc.create ~capacity:4 in
        List.iter (fun v -> ignore (Mpmc.try_push q v)) [ 1; 2; 3 ];
        let c1 = ref [] and c2 = ref [] in
        let consumer ~pops acc () =
          for _ = 1 to pops do
            match Mpmc.try_pop q with
            | Some v -> acc := v :: !acc
            | None -> ()
          done
        in
        let check () =
          let l1 = List.rev !c1 and l2 = List.rev !c2 in
          let rec increasing = function
            | a :: (b :: _ as tl) -> a < b && increasing tl
            | _ -> true
          in
          if not (increasing l1 && increasing l2) then
            Alcotest.failf "consumer saw out-of-order: %s / %s" (show_ints l1)
              (show_ints l2);
          let all = List.sort compare (l1 @ l2 @ drain_mpmc q []) in
          if all <> [ 1; 2; 3 ] then
            Alcotest.failf "not exactly-once: %s" (show_ints all)
        in
        ([ consumer ~pops:2 c1; consumer ~pops:1 c2 ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) "explored schedules" true (runs > 100)

(* Full detection under producer races: a capacity-2 ring accepts
   exactly 2 of 4 racing pushes, and the 2 survivors drain intact. *)
let test_mc_mpmc_full () =
  let runs, complete =
    Interleave.explore (fun () ->
        let q = Mpmc.create ~capacity:2 in
        let ok = ref [] in
        let producer v1 v2 () =
          if Mpmc.try_push q v1 then ok := v1 :: !ok;
          if Mpmc.try_push q v2 then ok := v2 :: !ok
        in
        let check () =
          if List.length !ok <> 2 then
            Alcotest.failf "capacity 2 accepted %d" (List.length !ok);
          let got = List.sort compare (drain_mpmc q []) in
          if got <> List.sort compare !ok then
            Alcotest.failf "accepted %s but drained %s"
              (show_ints (List.sort compare !ok))
              (show_ints got)
        in
        ([ producer 10 11; producer 20 21 ], check))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) "explored schedules" true (runs > 100)

(* Push racing pop — covers the pop-of-in-flight-push window: a pop
   either sees a fully published value or None, never a torn slot. *)
let test_mc_mpmc_push_pop_race () =
  let runs, complete =
    Interleave.explore (fun () ->
        let q = Mpmc.create ~capacity:2 in
        let a_ok = ref false in
        let popped = ref [] in
        let check () =
          let accepted = if !a_ok then [ 1 ] else [] in
          let got = List.sort compare (!popped @ drain_mpmc q []) in
          if got <> accepted then
            Alcotest.failf "accepted %s, surfaced %s" (show_ints accepted)
              (show_ints got)
        in
        ( [
            (fun () -> a_ok := Mpmc.try_push q 1);
            (fun () ->
              for _ = 1 to 2 do
                match Mpmc.try_pop q with
                | Some v -> popped := v :: !popped
                | None -> ()
              done);
          ],
          check ))
  in
  Alcotest.(check bool) "state space covered" true complete;
  Alcotest.(check bool) "explored schedules" true (runs > 100)

(* ------------------------------------------------------------------ *)
(* Channel facade: blocking semantics on the ring path. *)

let ch kind capacity = Channel.create ~kind ~capacity

let test_ch_fifo () =
  let q = ch Channel.Mpmc 8 in
  List.iter (Channel.put q) [ 1; 2; 3 ];
  Alcotest.(check int) "len" 3 (Channel.length q);
  Alcotest.(check int) "t1" 1 (Channel.take q);
  Alcotest.(check int) "t2" 2 (Channel.take q);
  Alcotest.(check int) "t3" 3 (Channel.take q);
  Alcotest.(check (option int)) "empty" None (Channel.try_take q)

let test_ch_spsc_exact_capacity () =
  (* SPSC enforces the requested bound even though the ring rounds its
     slot array to a power of two. *)
  let q = ch Channel.Spsc 3 in
  Alcotest.(check int) "capacity" 3 (Channel.capacity q);
  Alcotest.(check bool) "p1" true (Channel.try_put q 1);
  Alcotest.(check bool) "p2" true (Channel.try_put q 2);
  Alcotest.(check bool) "p3" true (Channel.try_put q 3);
  Alcotest.(check bool) "full" false (Channel.try_put q 4);
  Alcotest.(check bool) "is_full" true (Channel.is_full q);
  ignore (Channel.take q);
  Alcotest.(check bool) "p4" true (Channel.try_put q 4)

let test_ch_mpmc_rounded_capacity () =
  let q = ch Channel.Mpmc 3 in
  Alcotest.(check int) "rounded" 4 (Channel.capacity q);
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "p%d" i) true (Channel.try_put q i)
  done;
  Alcotest.(check bool) "full" false (Channel.try_put q 5)

let test_ch_close_drains () =
  let q = ch Channel.Mpmc 8 in
  Channel.put q 1;
  Channel.put q 2;
  Channel.close q;
  Alcotest.(check bool) "closed" true (Channel.is_closed q);
  Alcotest.check_raises "put after close" Channel.Closed (fun () ->
      Channel.put q 3);
  Alcotest.(check int) "drain 1" 1 (Channel.take q);
  Alcotest.(check int) "drain 2" 2 (Channel.take q);
  Alcotest.check_raises "then raises" Channel.Closed (fun () ->
      ignore (Channel.take q))

let test_worker_channel_closed_clean () =
  (* A stage's input channel closing is its normal shutdown path. *)
  let w = Worker.spawn ~name:"closed-body" (fun _ -> raise Channel.Closed) in
  Worker.join w;
  Alcotest.(check bool) "no failure recorded" true (Worker.failure w = None)

let test_ch_close_wakes_consumer () =
  let q : int Channel.t = ch Channel.Mpmc 4 in
  let witnessed = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        match Channel.take q with
        | _ -> ()
        | exception Channel.Closed -> Atomic.set witnessed true)
      ()
  in
  (* Let the consumer park. *)
  Mclock.sleep_s 0.03;
  Channel.close q;
  Thread.join t;
  Alcotest.(check bool) "woken with Closed" true (Atomic.get witnessed)

let test_ch_blocking_put_resumes () =
  let q = ch Channel.Spsc 1 in
  Channel.put q 1;
  let second_done = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        Channel.put q 2;
        Atomic.set second_done true)
      ()
  in
  Mclock.sleep_s 0.03;
  Alcotest.(check bool) "still blocked on full ring" false
    (Atomic.get second_done);
  Alcotest.(check int) "t1" 1 (Channel.take q);
  Thread.join t;
  Alcotest.(check int) "t2" 2 (Channel.take q)

let test_ch_take_batch_into () =
  let q = ch Channel.Mpmc 16 in
  List.iter (Channel.put q) [ 1; 2; 3; 4; 5 ];
  let buf = Array.make 3 None in
  let n = Channel.take_batch_into q ~buf in
  Alcotest.(check int) "burst bounded by buf" 3 n;
  Alcotest.(check (list int)) "prefix" [ 1; 2; 3 ]
    (List.filter_map Fun.id (Array.to_list buf));
  let buf2 = Array.make 8 None in
  let n2 = Channel.take_batch_into q ~buf:buf2 in
  Alcotest.(check int) "rest" 2 n2;
  Alcotest.(check (list int)) "tail reset to None" [ 4; 5 ]
    (List.filter_map Fun.id (Array.to_list buf2));
  Alcotest.(check int) "drained" 0 (Channel.length q);
  Channel.put q 9;
  Channel.close q;
  Alcotest.(check int) "close drains" 1 (Channel.take_batch_into q ~buf:buf2);
  Alcotest.check_raises "then raises" Channel.Closed (fun () ->
      ignore (Channel.take_batch_into q ~buf:buf2))

let test_ch_take_batch () =
  let q = ch Channel.Mpmc 16 in
  List.iter (Channel.put q) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "batch of 3" [ 1; 2; 3 ]
    (Channel.take_batch q ~max:3);
  Alcotest.(check (list int)) "rest" [ 4; 5 ] (Channel.take_batch q ~max:10)

let elapsed_s t0 = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0)

(* The timed park: a deadline that passes, a put that ends the wait
   early, and a close that ends it with [Closed]. *)
let test_ch_take_timeout () =
  let q : int Channel.t = ch Channel.Mpmc 4 in
  let t0 = Mclock.now_ns () in
  Alcotest.(check (option int)) "times out" None
    (Channel.take_timeout q ~timeout_s:0.03);
  Alcotest.(check bool) "not before the deadline" true (elapsed_s t0 >= 0.03);
  let producer =
    Thread.create (fun () -> Mclock.sleep_s 0.01; Channel.put q 7) ()
  in
  let t0 = Mclock.now_ns () in
  Alcotest.(check (option int)) "put wakes it" (Some 7)
    (Channel.take_timeout q ~timeout_s:1.0);
  Alcotest.(check bool) "well before the deadline" true (elapsed_s t0 < 0.5);
  Thread.join producer;
  let closer =
    Thread.create (fun () -> Mclock.sleep_s 0.01; Channel.close q) ()
  in
  let t0 = Mclock.now_ns () in
  Alcotest.check_raises "close raises Closed" Channel.Closed (fun () ->
      ignore (Channel.take_timeout q ~timeout_s:1.0));
  Alcotest.(check bool) "close wakes it" true (elapsed_s t0 < 0.5);
  Thread.join closer

let test_ch_drain_into () =
  let q = ch Channel.Mpmc 16 in
  let buf = Array.make 4 None in
  Alcotest.(check int) "empty drains nothing" 0 (Channel.drain_into q ~buf);
  List.iter (Channel.put q) [ 7; 8 ];
  Alcotest.(check int) "drains available" 2 (Channel.drain_into q ~buf);
  Alcotest.(check (list int)) "values" [ 7; 8 ]
    (List.filter_map Fun.id (Array.to_list buf));
  Channel.close q;
  Alcotest.(check int) "closed drain never raises" 0
    (Channel.drain_into q ~buf)

let test_ch_park_accounting () =
  Waitstats.reset ();
  let q : int Channel.t = ch Channel.Mpmc 4 in
  let t = Thread.create (fun () -> ignore (Channel.take q)) () in
  (* The consumer parks before the value arrives. *)
  Mclock.sleep_s 0.05;
  Channel.put q 42;
  Thread.join t;
  Alcotest.(check bool) "parks counted" true (Waitstats.park_total () > 0);
  Alcotest.(check int) "no spins" 0 (Waitstats.spin_total ())

let test_ch_concurrent_sum () =
  let q = ch Channel.Mpmc 8 in
  let n_producers = 3 and per = 200 in
  let sum = Atomic.make 0 in
  let consumers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            try
              while true do
                ignore (Atomic.fetch_and_add sum (Channel.take q))
              done
            with Channel.Closed -> ())
          ())
  in
  let producers =
    List.init n_producers (fun p ->
        Thread.create
          (fun () ->
            for i = 1 to per do
              Channel.put q ((p * per) + i)
            done)
          ())
  in
  List.iter Thread.join producers;
  Channel.close q;
  List.iter Thread.join consumers;
  let expected = ref 0 in
  for p = 0 to n_producers - 1 do
    for i = 1 to per do
      expected := !expected + (p * per) + i
    done
  done;
  Alcotest.(check int) "sum preserved" !expected (Atomic.get sum)

(* ------------------------------------------------------------------ *)
(* Work-stealing executor pool. *)

let run_pool ?(slow = false) ~n_exec ~sends check =
  let pool = Exec_pool.create ~n_exec () in
  let mu = Mutex.create () in
  let seen : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let exec (key, seq) =
    (* [slow] keeps the executor behind the dispatcher so work piles up
       (the sleep also yields the runtime lock to the other threads). *)
    if slow then Mclock.sleep_s 2e-5;
    Mutex.lock mu;
    (match Hashtbl.find_opt seen key with
    | Some l -> l := seq :: !l
    | None -> Hashtbl.add seen key (ref [ seq ]));
    Mutex.unlock mu
  in
  let threads =
    List.init n_exec (fun i ->
        Thread.create
          (fun () ->
            let st =
              Thread_state.create ~name:(Printf.sprintf "t-exec-%d" i)
            in
            Exec_pool.executor_loop pool ~idx:i ~exec ~st;
            Thread_state.unregister st)
          ())
  in
  sends pool;
  let st = Thread_state.create ~name:"t-sched" in
  Exec_pool.quiesce pool st;
  Thread_state.unregister st;
  check pool seen;
  Exec_pool.close pool;
  List.iter Thread.join threads

let check_per_key_order ?(per_key = 0) _pool seen =
  Hashtbl.iter
    (fun key l ->
      let l = List.rev !l in
      List.iteri
        (fun i s ->
          if i <> s then
            Alcotest.failf "key %d executed out of order (%d at %d)" key s i)
        l;
      if per_key > 0 then
        Alcotest.(check int)
          (Printf.sprintf "key %d complete" key)
          per_key (List.length l))
    seen

let send_keys pool ~n_keys ~per_key =
  for seq = 0 to per_key - 1 do
    for key = 0 to n_keys - 1 do
      let lane = Hashtbl.hash key mod Exec_pool.lanes pool in
      Exec_pool.send pool ~lane (key, seq)
    done
  done

let test_pool_steal_order () =
  run_pool ~n_exec:4
    ~sends:(send_keys ~n_keys:16 ~per_key:100)
    (fun pool seen ->
      Alcotest.(check int) "8 lanes per executor" 32 (Exec_pool.lanes pool);
      check_per_key_order ~per_key:100 pool seen;
      Alcotest.(check int) "all dispatched" 1600 (Exec_pool.dispatched pool))

let test_pool_steal_spreads_hot_shard () =
  (* Every request lands on a lane homed on executor 0 (lane ≡ 0 mod
     n_exec); the only way executors 1..3 ever run anything is by
     stealing tokens. *)
  run_pool ~slow:true ~n_exec:4
    ~sends:(fun pool ->
      let n_exec = Exec_pool.n_exec pool in
      for seq = 0 to 99 do
        for hot = 0 to 7 do
          Exec_pool.send pool ~lane:(hot * n_exec) (hot, seq)
        done
      done)
    (fun pool seen ->
      check_per_key_order ~per_key:100 pool seen;
      Alcotest.(check bool)
        (Printf.sprintf "steals happened (%d)" (Exec_pool.steals pool))
        true
        (Exec_pool.steals pool > 0))

let test_pool_quiesce_single_exec () =
  run_pool ~n_exec:1
    ~sends:(send_keys ~n_keys:2 ~per_key:20)
    (fun pool seen ->
      (* One executor runs the same token/lane path and holds every
         token; with no sibling there is nothing to steal. *)
      Alcotest.(check int) "8 lanes" 8 (Exec_pool.lanes pool);
      Alcotest.(check int) "no steals" 0 (Exec_pool.steals pool);
      check_per_key_order ~per_key:20 pool seen)

(* ------------------------------------------------------------------ *)
(* QCheck stress over real threads. *)

let prop_mpmc_channel_exactly_once =
  QCheck.Test.make ~name:"channel mpmc: exactly-once, per-producer order"
    ~count:stress_count
    QCheck.(
      triple (int_range 1 3) (int_range 0 60) (int_range 1 8))
    (fun (n_producers, per, capacity) ->
      let q = Channel.create ~kind:Channel.Mpmc ~capacity in
      let out = Array.init 2 (fun _ -> ref []) in
      let consumers =
        Array.to_list
          (Array.map
             (fun acc ->
               Thread.create
                 (fun () ->
                   try
                     while true do
                       acc := Channel.take q :: !acc
                     done
                   with Channel.Closed -> ())
                 ())
             out)
      in
      let producers =
        List.init n_producers (fun p ->
            Thread.create
              (fun () ->
                for seq = 0 to per - 1 do
                  Channel.put q (p, seq)
                done)
              ())
      in
      List.iter Thread.join producers;
      Channel.close q;
      List.iter Thread.join consumers;
      let per_consumer_ordered =
        Array.for_all
          (fun acc ->
            let l = List.rev !acc in
            List.for_all
              (fun p ->
                let seqs =
                  List.filter_map
                    (fun (p', s) -> if p' = p then Some s else None)
                    l
                in
                let rec increasing = function
                  | a :: (b :: _ as tl) -> a < b && increasing tl
                  | _ -> true
                in
                increasing seqs)
              (List.init n_producers Fun.id))
          out
      in
      let all =
        List.sort compare (List.concat_map (fun acc -> !acc) (Array.to_list out))
      in
      let expected =
        List.sort compare
          (List.concat_map
             (fun p -> List.init per (fun s -> (p, s)))
             (List.init n_producers Fun.id))
      in
      per_consumer_ordered && all = expected)

let prop_spsc_channel_fifo =
  QCheck.Test.make ~name:"channel spsc: exact fifo across threads"
    ~count:stress_count
    QCheck.(pair (int_range 0 200) (int_range 1 8))
    (fun (n, capacity) ->
      let q = Channel.create ~kind:Channel.Spsc ~capacity in
      let producer =
        Thread.create
          (fun () ->
            for i = 0 to n - 1 do
              Channel.put q i
            done;
            Channel.close q)
          ()
      in
      let got = ref [] in
      (try
         while true do
           got := Channel.take q :: !got
         done
       with Channel.Closed -> ());
      Thread.join producer;
      List.rev !got = List.init n Fun.id)

(* Producer puts after random delays; the consumer waits with random
   timeouts. Every item arrives once and in order, and a [None] never
   comes before its deadline. *)
let prop_channel_take_timeout =
  QCheck.Test.make ~name:"channel: take_timeout delivers exactly once"
    ~count:stress_count
    QCheck.(
      list_of_size Gen.(int_range 1 20)
        (pair (int_range 0 2000) (int_range 0 3000)))
    (fun steps ->
      let steps = Array.of_list steps in
      let n = Array.length steps in
      let q = Channel.create ~kind:Channel.Spsc ~capacity:4 in
      let producer =
        Thread.create
          (fun () ->
            Array.iteri
              (fun i (delay_us, _) ->
                Mclock.sleep_s (float_of_int delay_us *. 1e-6);
                Channel.put q i)
              steps)
          ()
      in
      let got = ref [] and early = ref false and k = ref 0 in
      while List.length !got < n do
        let timeout_s = float_of_int (snd steps.(!k mod n)) *. 1e-6 in
        incr k;
        let t0 = Mclock.now_ns () in
        match Channel.take_timeout q ~timeout_s with
        | Some v -> got := v :: !got
        | None -> if elapsed_s t0 < timeout_s then early := true
      done;
      Thread.join producer;
      Channel.close q;
      (not !early) && List.rev !got = List.init n Fun.id
      && Channel.try_take q = None)

let prop_steal_pool_per_key_order =
  QCheck.Test.make ~name:"exec pool: per-key order under stealing"
    ~count:(max 5 (stress_count / 3))
    QCheck.(
      triple (int_range 2 4) (int_range 1 12) (int_range 1 60))
    (fun (n_exec, n_keys, per_key) ->
      let ok = ref true in
      run_pool ~n_exec
        ~sends:(send_keys ~n_keys ~per_key)
        (fun _pool seen ->
          Hashtbl.iter
            (fun _key l ->
              let l = List.rev !l in
              if l <> List.init (List.length l) Fun.id then ok := false)
            seen;
          let total = Hashtbl.fold (fun _ l a -> a + List.length !l) seen 0 in
          if total <> n_keys * per_key then ok := false);
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mpmc_channel_exactly_once;
      prop_spsc_channel_fifo;
      prop_channel_take_timeout;
      prop_steal_pool_per_key_order;
    ]

let suite =
  [
    Alcotest.test_case "mc: spsc fifo/no-loss" `Quick test_mc_spsc_fifo;
    Alcotest.test_case "mc: spsc capacity 1" `Quick test_mc_spsc_capacity;
    Alcotest.test_case "mc: mpmc producer races" `Quick test_mc_mpmc_producers;
    Alcotest.test_case "mc: mpmc exactly-once (steal-vs-pop)" `Quick
      test_mc_mpmc_consumers_exactly_once;
    Alcotest.test_case "mc: mpmc full detection" `Quick test_mc_mpmc_full;
    Alcotest.test_case "mc: mpmc push/pop race" `Quick
      test_mc_mpmc_push_pop_race;
    Alcotest.test_case "channel: fifo" `Quick test_ch_fifo;
    Alcotest.test_case "channel: spsc exact capacity" `Quick
      test_ch_spsc_exact_capacity;
    Alcotest.test_case "channel: mpmc rounded capacity" `Quick
      test_ch_mpmc_rounded_capacity;
    Alcotest.test_case "channel: close drains then raises" `Quick
      test_ch_close_drains;
    Alcotest.test_case "worker: Channel.Closed is a clean exit" `Quick
      test_worker_channel_closed_clean;
    Alcotest.test_case "channel: close wakes parked consumer" `Quick
      test_ch_close_wakes_consumer;
    Alcotest.test_case "channel: blocking put resumes" `Quick
      test_ch_blocking_put_resumes;
    Alcotest.test_case "channel: take_batch_into" `Quick
      test_ch_take_batch_into;
    Alcotest.test_case "channel: take_batch" `Quick test_ch_take_batch;
    Alcotest.test_case "channel: take_timeout" `Quick test_ch_take_timeout;
    Alcotest.test_case "channel: drain_into" `Quick test_ch_drain_into;
    Alcotest.test_case "channel: park accounting" `Quick
      test_ch_park_accounting;
    Alcotest.test_case "channel: concurrent sum" `Quick test_ch_concurrent_sum;
    Alcotest.test_case "pool: steal per-key order" `Quick
      test_pool_steal_order;
    Alcotest.test_case "pool: steals spread a hot shard" `Quick
      test_pool_steal_spreads_hot_shard;
    Alcotest.test_case "pool: steal with one executor degrades" `Quick
      test_pool_quiesce_single_exec;
  ]
  @ qsuite
