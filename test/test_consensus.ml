(* Tests for msmr_consensus: protocol types, log, batcher, failure
   detector, message codec, and whole-cluster agreement properties driven
   through random lossy message schedules. *)

open Msmr_consensus
module Client_msg = Msmr_wire.Client_msg

let mk_req client_id seq payload =
  { Client_msg.id = { client_id; seq }; payload = Bytes.of_string payload }

let mk_batch src num reqs = { Batch.bid = { src; num }; requests = reqs }

(* ------------------------------------------------------------------ *)
(* Types *)

let test_leader_of_view () =
  Alcotest.(check int) "v0" 0 (Types.leader_of_view ~n:3 0);
  Alcotest.(check int) "v1" 1 (Types.leader_of_view ~n:3 1);
  Alcotest.(check int) "v5" 2 (Types.leader_of_view ~n:3 5)

let test_next_view_led_by () =
  (* n=3: views led by node 1 are 1, 4, 7, ... *)
  Alcotest.(check int) "after 0" 1 (Types.next_view_led_by ~n:3 ~after:0 1);
  Alcotest.(check int) "after 1" 4 (Types.next_view_led_by ~n:3 ~after:1 1);
  Alcotest.(check int) "after 3" 4 (Types.next_view_led_by ~n:3 ~after:3 1);
  Alcotest.(check int) "self-led next" 3 (Types.next_view_led_by ~n:3 ~after:0 0);
  Alcotest.(check int) "n=5" 8 (Types.next_view_led_by ~n:5 ~after:4 3)

let prop_next_view_led_by =
  QCheck.Test.make ~name:"next_view_led_by: minimal and correct" ~count:500
    QCheck.(triple (int_range 1 9) (int_range 0 100) (int_range 0 8))
    (fun (n, after, node) ->
       QCheck.assume (node < n);
       let v = Types.next_view_led_by ~n ~after node in
       v > after
       && Types.leader_of_view ~n v = node
       && (* minimality: no smaller view > after led by node *)
       not
         (List.exists
            (fun u -> u > after && u < v && Types.leader_of_view ~n u = node)
            (List.init (v - after) (fun i -> after + 1 + i))))

let test_majority () =
  Alcotest.(check int) "n=1" 1 (Types.majority ~n:1);
  Alcotest.(check int) "n=3" 2 (Types.majority ~n:3);
  Alcotest.(check int) "n=5" 3 (Types.majority ~n:5);
  Alcotest.(check int) "n=4" 3 (Types.majority ~n:4)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  let ok = Config.default ~n:3 in
  Alcotest.(check bool) "default ok" true (Config.validate ok = Ok ());
  Alcotest.(check bool) "bad n" true
    (Config.validate { ok with n = 0 } |> Result.is_error);
  Alcotest.(check bool) "bad window" true
    (Config.validate { ok with window = 0 } |> Result.is_error);
  Alcotest.(check bool) "fd timeout vs interval" true
    (Config.validate { ok with fd_timeout_s = 0.01 } |> Result.is_error);
  Alcotest.(check int) "f of 5" 2 (Config.f (Config.default ~n:5))

(* ------------------------------------------------------------------ *)
(* Log *)

let b0 = Value.Batch (mk_batch 0 0 [ mk_req 1 1 "a" ])
let b1 = Value.Batch (mk_batch 0 1 [ mk_req 1 2 "b" ])

let test_log_accept_decide () =
  let log = Log.create () in
  Alcotest.(check int) "fu" 0 (Log.first_undecided log);
  Log.accept log 0 0 b0;
  Alcotest.(check bool) "not decided" false (Log.is_decided log 0);
  Alcotest.(check int) "in flight" 1 (Log.in_flight log);
  Alcotest.(check bool) "decide" true (Log.decide log 0 0 b0);
  Alcotest.(check bool) "idempotent" false (Log.decide log 0 0 b0);
  Alcotest.(check int) "fu advanced" 1 (Log.first_undecided log);
  Alcotest.(check int) "in flight 0" 0 (Log.in_flight log)

let test_log_execution_order () =
  let log = Log.create () in
  (* Decide out of order: 1 before 0. *)
  ignore (Log.decide log 1 0 b1);
  Alcotest.(check bool) "no exec yet" true (Log.next_to_execute log = None);
  ignore (Log.decide log 0 0 b0);
  (match Log.next_to_execute log with
   | Some (0, v) ->
     Alcotest.(check bool) "value" true (Value.equal v b0);
     Log.mark_executed log 0
   | _ -> Alcotest.fail "expected instance 0");
  (match Log.next_to_execute log with
   | Some (1, _) -> Log.mark_executed log 1
   | _ -> Alcotest.fail "expected instance 1");
  Alcotest.(check bool) "drained" true (Log.next_to_execute log = None);
  Alcotest.(check int) "first_unexecuted" 2 (Log.first_unexecuted log)

let test_log_mark_executed_guard () =
  let log = Log.create () in
  ignore (Log.decide log 0 0 b0);
  Alcotest.check_raises "out of order"
    (Invalid_argument "Log.mark_executed: 1, expected 0") (fun () ->
        Log.mark_executed log 1)

let test_log_higher_view_wins () =
  let log = Log.create () in
  Log.accept log 0 1 b0;
  Log.accept log 0 0 b1;
  (* lower view: ignored *)
  (match Log.get log 0 with
   | Some e ->
     Alcotest.(check int) "view" 1 e.Log.accepted_view;
     Alcotest.(check bool) "value kept" true
       (match e.Log.value with Some v -> Value.equal v b0 | None -> false)
   | None -> Alcotest.fail "entry missing");
  Log.accept log 0 2 b1;
  (match Log.get log 0 with
   | Some e -> Alcotest.(check int) "higher view" 2 e.Log.accepted_view
   | None -> Alcotest.fail "entry missing")

let test_log_acks_reset_on_new_view () =
  let log = Log.create () in
  Log.accept log 0 0 b0;
  let e = Log.get_or_create log 0 in
  e.Log.acks <- 0b111;
  Log.accept log 0 1 b0;
  Alcotest.(check int) "acks reset" 0 (Log.get_or_create log 0).Log.acks

let test_log_truncate_and_fast_forward () =
  let log = Log.create () in
  for i = 0 to 9 do
    ignore (Log.decide log i 0 b0);
    Log.mark_executed log i
  done;
  Log.truncate_below log 5;
  Alcotest.(check int) "low mark" 5 (Log.low_mark log);
  Alcotest.(check bool) "below is decided" true (Log.is_decided log 2);
  Alcotest.(check bool) "entry gone" true (Log.get log 2 = None);
  Log.fast_forward log 20;
  Alcotest.(check int) "ff cursor" 20 (Log.first_unexecuted log);
  Alcotest.(check int) "ff undecided" 20 (Log.first_undecided log);
  (* fast_forward never moves backwards *)
  Log.fast_forward log 3;
  Alcotest.(check int) "no rewind" 20 (Log.first_unexecuted log)

let test_log_undecided_below () =
  let log = Log.create () in
  ignore (Log.decide log 0 0 b0);
  ignore (Log.decide log 2 0 b0);
  Alcotest.(check (list int)) "gaps" [ 1; 3 ] (Log.undecided_below log 4)

let test_log_decided_range () =
  let log = Log.create () in
  ignore (Log.decide log 0 3 b0);
  Log.accept log 1 3 b1;
  ignore (Log.decide log 2 4 b1);
  let entries = Log.decided_range log ~from_iid:0 ~to_iid:3 in
  Alcotest.(check (list int)) "iids" [ 0; 2 ]
    (List.map (fun e -> e.Msg.e_iid) entries);
  Alcotest.(check (list int)) "views are deciding views" [ 3; 4 ]
    (List.map (fun e -> e.Msg.e_view) entries);
  Alcotest.(check bool) "all decided" true
    (List.for_all (fun e -> e.Msg.e_decided) entries)

(* ------------------------------------------------------------------ *)
(* Batcher *)

let batcher_cfg = { (Config.default ~n:3) with max_batch_bytes = 100 }

let test_batcher_fills_by_size () =
  let b = Batcher.create batcher_cfg ~src:0 in
  (* Each request is 16 + 20 = 36 bytes; two fit in 100, a third spills. *)
  let r i = mk_req 1 i (String.make 20 'x') in
  Alcotest.(check bool) "r1 open" true (Batcher.add b (r 1) ~now_ns:0L = None);
  Alcotest.(check bool) "r2 open" true (Batcher.add b (r 2) ~now_ns:0L = None);
  (match Batcher.add b (r 3) ~now_ns:0L with
   | Some batch ->
     Alcotest.(check int) "sealed has 2" 2 (Batch.request_count batch);
     Alcotest.(check int) "num 0" 0 batch.Batch.bid.num
   | None -> Alcotest.fail "expected sealed batch");
  Alcotest.(check int) "r3 now open" 1 (Batcher.pending_requests b)

let test_batcher_exact_fill_seals () =
  let cfg = { batcher_cfg with max_batch_bytes = 72 } in
  let b = Batcher.create cfg ~src:0 in
  let r i = mk_req 1 i (String.make 20 'x') in
  Alcotest.(check bool) "r1" true (Batcher.add b (r 1) ~now_ns:0L = None);
  (match Batcher.add b (r 2) ~now_ns:0L with
   | Some batch -> Alcotest.(check int) "both" 2 (Batch.request_count batch)
   | None -> Alcotest.fail "exact fill should seal");
  Alcotest.(check int) "empty" 0 (Batcher.pending_requests b)

let test_batcher_oversized_request () =
  let b = Batcher.create batcher_cfg ~src:0 in
  match Batcher.add b (mk_req 1 1 (String.make 500 'y')) ~now_ns:0L with
  | Some batch -> Alcotest.(check int) "own batch" 1 (Batch.request_count batch)
  | None -> Alcotest.fail "oversized request must seal immediately"

let test_batcher_timeout_flush () =
  let cfg = { batcher_cfg with max_batch_delay_s = 0.05 } in
  let b = Batcher.create cfg ~src:2 in
  ignore (Batcher.add b (mk_req 1 1 "small") ~now_ns:1_000L);
  Alcotest.(check bool) "not due yet" true
    (Batcher.flush_due b ~now_ns:2_000L = None);
  let due = Int64.add 1_000L (Int64.of_float (0.05 *. 1e9)) in
  (match Batcher.flush_due b ~now_ns:due with
   | Some batch ->
     Alcotest.(check int) "one request" 1 (Batch.request_count batch);
     Alcotest.(check int) "src" 2 batch.Batch.bid.src
   | None -> Alcotest.fail "expected flush");
  Alcotest.(check bool) "deadline cleared" true (Batcher.deadline_ns b = None)

let test_batcher_force_flush_and_numbering () =
  let b = Batcher.create batcher_cfg ~src:0 in
  ignore (Batcher.add b (mk_req 1 1 "a") ~now_ns:0L);
  let b1 = Option.get (Batcher.force_flush b) in
  ignore (Batcher.add b (mk_req 1 2 "b") ~now_ns:0L);
  let b2 = Option.get (Batcher.force_flush b) in
  Alcotest.(check int) "num 0" 0 b1.Batch.bid.num;
  Alcotest.(check int) "num 1" 1 b2.Batch.bid.num;
  Alcotest.(check bool) "empty flush" true (Batcher.force_flush b = None)

let prop_batcher_no_request_lost =
  QCheck.Test.make ~name:"batcher: partitions the request stream" ~count:200
    QCheck.(list (int_range 0 120))
    (fun sizes ->
       let b = Batcher.create batcher_cfg ~src:0 in
       let sealed = ref [] in
       List.iteri
         (fun i sz ->
            match Batcher.add b (mk_req 7 i (String.make sz 'p')) ~now_ns:0L with
            | Some batch -> sealed := batch :: !sealed
            | None -> ())
         sizes;
       (match Batcher.force_flush b with
        | Some batch -> sealed := batch :: !sealed
        | None -> ());
       let batches = List.rev !sealed in
       let seqs =
         List.concat_map
           (fun (batch : Batch.t) ->
              List.map (fun (r : Client_msg.request) -> r.id.seq) batch.requests)
           batches
       in
       (* Every request appears exactly once, in order. *)
       seqs = List.init (List.length sizes) Fun.id
       && List.for_all
            (fun (batch : Batch.t) ->
               Batch.size_bytes batch <= batcher_cfg.max_batch_bytes
               || Batch.request_count batch = 1)
            batches)

let test_batcher_tuned_bsz () =
  let tuned = Atomic.make 100 in
  let b = Batcher.create ~tuned_bsz:tuned batcher_cfg ~src:0 in
  Alcotest.(check int) "initial limit" 100 (Batcher.bsz_limit b);
  let r i = mk_req 1 i (String.make 20 'x') in
  (* 36 B each *)
  Alcotest.(check bool) "r1 open" true (Batcher.add b (r 1) ~now_ns:0L = None);
  Alcotest.(check bool) "r2 open" true (Batcher.add b (r 2) ~now_ns:0L = None);
  (* Retune mid-batch: the new limit is in force on the very next add. *)
  Atomic.set tuned 200;
  Alcotest.(check int) "limit follows atomic" 200 (Batcher.bsz_limit b);
  Alcotest.(check bool) "r3 open" true (Batcher.add b (r 3) ~now_ns:0L = None);
  Alcotest.(check bool) "r4 open" true (Batcher.add b (r 4) ~now_ns:0L = None);
  Alcotest.(check bool) "r5 open" true (Batcher.add b (r 5) ~now_ns:0L = None);
  match Batcher.add b (r 6) ~now_ns:0L with
  | Some batch ->
    Alcotest.(check int) "five sealed at grown limit" 5
      (Batch.request_count batch)
  | None -> Alcotest.fail "expected seal at grown limit"

let test_batcher_seal_stats () =
  let b = Batcher.create batcher_cfg ~src:0 in
  (* limit 100 *)
  let r i = mk_req 1 i (String.make 20 'x') in
  ignore (Batcher.add b (r 1) ~now_ns:0L);
  ignore (Batcher.add b (r 2) ~now_ns:0L);
  ignore (Batcher.add b (r 3) ~now_ns:0L);
  (* r3 overflowed: the 72 B batch sealed on size *)
  let s1 = Batcher.seal_stats b in
  Alcotest.(check int) "size seals" 1 s1.Batcher.seals_size;
  Alcotest.(check int) "delay seals" 0 s1.Batcher.seals_delay;
  Alcotest.(check int) "sealed bytes" 72 s1.Batcher.sealed_bytes;
  Alcotest.(check int) "limit bytes" 100 s1.Batcher.limit_bytes;
  (* the open 36 B singleton flushes on the delay/forced path *)
  ignore (Batcher.force_flush b);
  let s2 = Batcher.seal_stats b in
  Alcotest.(check int) "delay seal counted" 1 s2.Batcher.seals_delay;
  Alcotest.(check int) "bytes accumulate" 108 s2.Batcher.sealed_bytes;
  Alcotest.(check int) "limits accumulate" 200 s2.Batcher.limit_bytes

let prop_batcher_pending_count_exact =
  QCheck.Test.make ~name:"batcher: O(1) pending count is exact" ~count:200
    QCheck.(list (int_range 0 120))
    (fun sizes ->
       let b = Batcher.create batcher_cfg ~src:0 in
       let expected = ref 0 in
       let ok = ref true in
       List.iteri
         (fun i sz ->
            (match Batcher.add b (mk_req 5 i (String.make sz 'c')) ~now_ns:0L with
             | Some batch ->
               expected := !expected + 1 - Batch.request_count batch
             | None -> incr expected);
            ok := !ok && Batcher.pending_requests b = !expected)
         sizes;
       ignore (Batcher.force_flush b);
       !ok && Batcher.pending_requests b = 0)

let prop_batcher_deadline_flush_agree =
  QCheck.Test.make ~name:"batcher: deadline_ns/flush_due agreement" ~count:200
    QCheck.(list (pair (int_range 0 120) (int_range 0 10_000_000)))
    (fun reqs ->
       let cfg = { batcher_cfg with max_batch_delay_s = 0.005 } in
       let b = Batcher.create cfg ~src:0 in
       let now = ref 0L in
       let ok = ref true in
       List.iteri
         (fun i (sz, gap) ->
            now := Int64.add !now (Int64.of_int gap);
            (* drain anything already due, as the Batcher thread would *)
            ignore (Batcher.flush_due b ~now_ns:!now);
            ignore (Batcher.add b (mk_req 9 i (String.make sz 'q')) ~now_ns:!now);
            match Batcher.deadline_ns b with
            | None -> ok := !ok && Batcher.pending_requests b = 0
            | Some d ->
              ok :=
                !ok
                && Batcher.pending_requests b > 0
                && Batcher.flush_due b ~now_ns:(Int64.pred d) = None)
         reqs;
       (match Batcher.deadline_ns b with
        | Some d ->
          ok :=
            !ok
            && Batcher.flush_due b ~now_ns:d <> None
            && Batcher.deadline_ns b = None
        | None -> ok := !ok && Batcher.pending_requests b = 0);
       !ok)

(* ------------------------------------------------------------------ *)
(* Autotune controller *)

let at_signals ?(win = 0) ?(pq = 0) ?(lq = 0) ?(ssz = 0) ?(sdl = 0)
    ?(fill = 0.) ?(tput = 0.) ?(lat = 0.) () =
  Autotune.
    { s_window_in_use = win; s_proposal_queue = pq; s_log_queue = lq;
      s_seals_size = ssz; s_seals_delay = sdl; s_batch_fill = fill;
      s_throughput = tput; s_commit_latency_s = lat }

let test_autotune_grows_bsz_on_size_seals () =
  let t = Autotune.create ~bsz0:1300 ~wnd0:10 () in
  (* Fill 0.79 is the 1024-B-into-1300 packing case: size seals must
     trigger growth even when the sealed batches look underfull. *)
  Autotune.tick t (at_signals ~ssz:50 ~sdl:1 ~fill:0.79 ~tput:10_000. ());
  Alcotest.(check bool) "bsz grew" true (Autotune.bsz t > 1300);
  Alcotest.(check int) "wnd unchanged" 10 (Autotune.wnd t)

let test_autotune_bsz_converges_to_cap () =
  let t = Autotune.create ~bsz0:1300 ~wnd0:10 () in
  let s = at_signals ~ssz:50 ~tput:10_000. () in
  let last = ref 1300 in
  for _ = 1 to 30 do
    Autotune.tick t s;
    Alcotest.(check bool) "monotone under size pressure" true
      (Autotune.bsz t >= !last);
    last := Autotune.bsz t
  done;
  Alcotest.(check int) "reaches bsz_max" 65536 (Autotune.bsz t)

let test_autotune_backoff_cooldown () =
  let t = Autotune.create ~bsz0:1300 ~wnd0:40 () in
  Autotune.tick t (at_signals ~lat:0.2 ~tput:1_000. ());
  Alcotest.(check int) "backed off" 28 (Autotune.wnd t);
  (* saturation returns immediately, but the dimension is cooling: no
     instant regrow of what congestion just took away *)
  let hot = at_signals ~win:28 ~lat:0.001 ~tput:1_000. () in
  Autotune.tick t hot;
  Autotune.tick t hot;
  Alcotest.(check int) "held during cooldown" 28 (Autotune.wnd t);
  Autotune.tick t hot;
  Alcotest.(check int) "grows after cooldown" 31 (Autotune.wnd t)

let test_autotune_grows_wnd_when_saturated () =
  let t = Autotune.create ~bsz0:1300 ~wnd0:10 () in
  Autotune.tick t (at_signals ~win:10 ~tput:10_000. ());
  Alcotest.(check int) "wnd +3" 13 (Autotune.wnd t);
  Alcotest.(check int) "bsz unchanged" 1300 (Autotune.bsz t)

let test_autotune_wnd_backoff () =
  let t = Autotune.create ~bsz0:1300 ~wnd0:40 () in
  Autotune.tick t (at_signals ~lat:0.2 ~tput:1_000. ());
  Alcotest.(check int) "latency breach backs off 40 -> 28" 28 (Autotune.wnd t);
  let t2 = Autotune.create ~bsz0:1300 ~wnd0:40 () in
  Autotune.tick t2 (at_signals ~lq:600 ~tput:1_000. ());
  Alcotest.(check int) "LogQueue backlog backs off too" 28 (Autotune.wnd t2)

let test_autotune_demand_shrink () =
  let t = Autotune.create ~bsz0:16384 ~wnd0:10 () in
  let s = at_signals ~sdl:50 ~fill:0.1 ~tput:1_000. () in
  Autotune.tick t s;
  Alcotest.(check bool) "bsz shrank" true (Autotune.bsz t < 16384);
  for _ = 1 to 30 do Autotune.tick t s done;
  Alcotest.(check bool) "never below bsz_min" true
    (Autotune.bsz t >= Autotune.default_params.Autotune.bsz_min)

let test_autotune_clamps_at_bounds () =
  let p = Autotune.{ default_params with bsz_max = 2000; wnd_max = 12 } in
  let t = Autotune.create ~params:p ~bsz0:1900 ~wnd0:11 () in
  let s = at_signals ~win:12 ~ssz:50 ~tput:10_000. () in
  for _ = 1 to 12 do Autotune.tick t s done;
  Alcotest.(check int) "bsz capped" 2000 (Autotune.bsz t);
  Alcotest.(check int) "wnd capped" 12 (Autotune.wnd t)

(* ------------------------------------------------------------------ *)
(* Failure detector *)

let fd_cfg = Config.default ~n:3

let s_to_ns s = Int64.of_float (s *. 1e9)

let test_fd_leader_heartbeats () =
  let fd = Failure_detector.create fd_cfg ~me:0 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  (* Before the interval: nothing. *)
  Alcotest.(check bool) "quiet" true (Failure_detector.poll fd ~now_ns:1000L = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.2) with
   | [ Failure_detector.Heartbeat_to peers ] ->
     Alcotest.(check (list int)) "both peers" [ 1; 2 ] (List.sort compare peers)
   | _ -> Alcotest.fail "expected heartbeat verdict");
  (* Recent sends suppress the heartbeat. *)
  Failure_detector.note_send fd ~dest:1 ~now_ns:(s_to_ns 0.2);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.25) with
   | [ Failure_detector.Heartbeat_to peers ] ->
     Alcotest.(check (list int)) "only 2" [ 2 ] peers
   | _ -> Alcotest.fail "expected heartbeat to 2")

let test_fd_follower_suspects () =
  let fd = Failure_detector.create fd_cfg ~me:1 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  Alcotest.(check bool) "patient" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 0.3) = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.6) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "expected suspicion of node 0");
  (* Re-armed: no immediate double suspicion. *)
  Alcotest.(check bool) "re-armed" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 0.7) = [])

let test_fd_recv_defers_suspicion () =
  let fd = Failure_detector.create fd_cfg ~me:1 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  Failure_detector.note_recv fd ~from:0 ~now_ns:(s_to_ns 0.4);
  Alcotest.(check bool) "leader alive" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 0.6) = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.95) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "expected eventual suspicion")

let test_fd_view_change_grace () =
  let fd = Failure_detector.create fd_cfg ~me:2 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  (* Just before suspicion, the view changes to leader 1. *)
  Failure_detector.set_view fd ~view:1 ~now_ns:(s_to_ns 0.45);
  Alcotest.(check bool) "grace period" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 0.6) = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.96) with
   | [ Failure_detector.Suspect 1 ] -> ()
   | _ -> Alcotest.fail "expected suspicion of new leader")

let test_fd_next_wake () =
  let fd = Failure_detector.create fd_cfg ~me:1 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  let wake = Failure_detector.next_wake_ns fd ~now_ns:0L in
  Alcotest.(check int64) "timeout edge" (s_to_ns 0.5) wake

(* The wake follows [poll]: a leader's heartbeats go to member peers
   only, so a non-member's stale timestamp must not keep the wake due
   (the caller would re-poll without pause), and a fenced node has
   nothing to wake for. *)
let test_fd_next_wake_members_only () =
  let cfg = { (Config.default ~n:4) with members0 = [ 0; 1; 2 ] } in
  let fd = Failure_detector.create cfg ~me:0 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  let now = s_to_ns 0.2 in
  (match Failure_detector.poll fd ~now_ns:now with
   | [ Failure_detector.Heartbeat_to peers ] ->
     Alcotest.(check (list int)) "members only" [ 1; 2 ] peers;
     List.iter
       (fun p -> Failure_detector.note_send fd ~dest:p ~now_ns:now)
       peers
   | _ -> Alcotest.fail "expected heartbeat verdict");
  Alcotest.(check int64) "next heartbeat an interval away" (s_to_ns 0.3)
    (Failure_detector.next_wake_ns fd ~now_ns:now);
  let fenced = Failure_detector.create cfg ~me:2 ~now_ns:0L in
  Failure_detector.set_membership fenced
    (Option.get (Membership.remove (Membership.initial cfg) 2))
    ~now_ns:0L;
  Alcotest.(check int64) "fenced: no wake" (Int64.of_int max_int)
    (Failure_detector.next_wake_ns fenced ~now_ns:(s_to_ns 1.0))

(* Regression suite for the poll re-arm path: a Suspect verdict arms a
   fresh timeout, and that re-armed state must behave exactly like the
   initial armed state — re-suspect after a full silent timeout, stand
   down on liveness proof, and never end up permanently disarmed. *)

let test_fd_rearm_resuspects_after_full_timeout () =
  let fd = Failure_detector.create fd_cfg ~me:1 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.6) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "expected first suspicion");
  (* Re-armed, leader stays silent: quiet strictly inside the fresh
     timeout, then a second suspicion at its edge. *)
  Alcotest.(check bool) "quiet inside re-armed window" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 1.0) = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 1.2) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "re-armed detector never re-suspected a dead leader")

let test_fd_suspected_then_recovered_leader_not_disarmed () =
  (* The scenario behind the re-arm path: the leader stalls long enough
     to be suspected, the view change loses the election (or the Prepare
     never wins quorum), and the old leader comes back — note_recv only,
     no set_view. If it then dies for real, the detector must suspect it
     again rather than stay disarmed forever. *)
  let fd = Failure_detector.create fd_cfg ~me:1 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.6) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "expected initial suspicion");
  (* Leader recovers: fresh traffic, still leading view 0. *)
  Failure_detector.note_recv fd ~from:0 ~now_ns:(s_to_ns 0.8);
  Failure_detector.note_recv fd ~from:0 ~now_ns:(s_to_ns 1.0);
  Alcotest.(check bool) "recovered leader trusted again" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 1.2) = []);
  (* Second, real death: a full timeout of silence after the last proof
     must produce a fresh Suspect verdict. *)
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 1.6) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ ->
     Alcotest.fail
       "suspected-then-recovered leader left the detector disarmed");
  (* And the cycle keeps working: re-armed again, not dead after two
     rounds. *)
  Failure_detector.note_recv fd ~from:0 ~now_ns:(s_to_ns 1.7);
  Alcotest.(check bool) "third round: trusted" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 2.0) = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 2.3) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "third suspicion cycle failed")

let test_fd_rearm_view_change_overrides () =
  (* After a Suspect verdict the re-armed timer must not fire against a
     NEW leader prematurely: set_view resets the grace period. *)
  let fd = Failure_detector.create fd_cfg ~me:2 ~now_ns:0L in
  Failure_detector.set_view fd ~view:0 ~now_ns:0L;
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 0.6) with
   | [ Failure_detector.Suspect 0 ] -> ()
   | _ -> Alcotest.fail "expected suspicion of node 0");
  (* The election succeeds: node 1 leads view 1 from t = 0.7. *)
  Failure_detector.set_view fd ~view:1 ~now_ns:(s_to_ns 0.7);
  Alcotest.(check bool) "new leader gets a full grace period" true
    (Failure_detector.poll fd ~now_ns:(s_to_ns 1.1) = []);
  (match Failure_detector.poll fd ~now_ns:(s_to_ns 1.3) with
   | [ Failure_detector.Suspect 1 ] -> ()
   | _ -> Alcotest.fail "expected suspicion of the new leader")

(* ------------------------------------------------------------------ *)
(* Retransmission timers *)

let rtx_ms n = Int64.mul (Int64.of_int n) 1_000_000L
let rtx_key iid = Paxos.Rtx_accept (0, iid)

(* Schedule one timer per iid, each tagged with its iid as the message's
   view, 1 ms apart. *)
let rtx_with iids =
  let r = Retransmit.create ~interval_s:0.1 in
  List.iteri
    (fun i iid ->
       Retransmit.schedule r ~now_ns:(rtx_ms i) (rtx_key iid) ~dest:[ 1; 2 ]
         (Msg.Heartbeat { view = iid; first_undecided = 0 }))
    iids;
  r

let rtx_fired r ~now_ms =
  List.map
    (fun (dest, msg) ->
       Alcotest.(check (list int)) "dest" [ 1; 2 ] dest;
       match msg with
       | Msg.Heartbeat { view; _ } -> view
       | _ -> Alcotest.fail "unexpected message")
    (Retransmit.pop_due r ~now_ns:(rtx_ms now_ms))

let test_rtx_fifo () =
  let r = rtx_with [ 7; 8; 9 ] in
  Alcotest.(check (list int)) "due in scheduling order" [ 7; 8; 9 ]
    (rtx_fired r ~now_ms:150);
  Alcotest.(check (list int)) "re-armed, not due again yet" []
    (rtx_fired r ~now_ms:150)

let test_rtx_not_due () =
  let r = rtx_with [ 1; 2 ] in
  Alcotest.(check (list int)) "nothing due" [] (rtx_fired r ~now_ms:99);
  Alcotest.(check (option int64)) "head's deadline" (Some (rtx_ms 100))
    (Retransmit.next_due_ns r);
  Alcotest.(check (list int)) "head only" [ 1 ] (rtx_fired r ~now_ms:100)

let test_rtx_cancel () =
  let r = rtx_with [ 1; 2 ] in
  ignore (Retransmit.cancel r (rtx_key 1));
  Alcotest.(check (option int64)) "dead head dropped" (Some (rtx_ms 101))
    (Retransmit.next_due_ns r);
  Alcotest.(check (list int)) "cancelled never fires" [ 2 ]
    (rtx_fired r ~now_ms:1000);
  ignore (Retransmit.cancel r (rtx_key 2));
  Alcotest.(check (option int64)) "nothing armed" None
    (Retransmit.next_due_ns r);
  Alcotest.(check (list int)) "nothing fires" [] (rtx_fired r ~now_ms:5000)

let test_rtx_rearm () =
  let r = rtx_with [ 1 ] in
  Alcotest.(check (list int)) "fires" [ 1 ] (rtx_fired r ~now_ms:130);
  Alcotest.(check (option int64)) "re-armed at now + interval"
    (Some (rtx_ms 230)) (Retransmit.next_due_ns r);
  Alcotest.(check (list int)) "not before" [] (rtx_fired r ~now_ms:229);
  Alcotest.(check (list int)) "fires again" [ 1 ] (rtx_fired r ~now_ms:230)

let test_rtx_cancel_returns_t0 () =
  let r = rtx_with [ 1; 2; 3 ] in
  Alcotest.(check (option int64)) "scheduling time" (Some (rtx_ms 2))
    (Retransmit.cancel r (rtx_key 3));
  Alcotest.(check (option int64)) "only once" None
    (Retransmit.cancel r (rtx_key 3));
  (* Re-scheduling an armed key replaces its timer. *)
  Retransmit.schedule r ~now_ns:(rtx_ms 50) (rtx_key 1) ~dest:[ 1; 2 ]
    (Msg.Heartbeat { view = 11; first_undecided = 0 });
  Alcotest.(check (list int)) "old timer gone" [ 2 ] (rtx_fired r ~now_ms:149);
  Alcotest.(check (option int64)) "new timer's time" (Some (rtx_ms 50))
    (Retransmit.cancel r (rtx_key 1))

(* ------------------------------------------------------------------ *)
(* Message codec *)

let sample_entry i =
  { Msg.e_iid = i; e_view = i * 3; e_value = b0; e_decided = i mod 2 = 0 }

let sample_msgs =
  [
    Msg.Prepare { view = 3; from_iid = 17 };
    Msg.Prepare_ok
      { view = 3; first_undecided = 4; entries = [ sample_entry 4; sample_entry 5 ] };
    Msg.Accept { view = 2; iid = 9; value = b1 };
    Msg.Accept { view = 2; iid = 10; value = Value.Noop };
    Msg.Accepted { view = 2; iid = 9 };
    Msg.Decide { view = 2; iid = 9 };
    Msg.Catchup_query { from_iid = 0; to_iid = 100 };
    Msg.Catchup_reply { entries = [ sample_entry 1 ]; snapshot = None };
    Msg.Catchup_reply
      { entries = []; snapshot = Some (42, Bytes.of_string "state") };
    Msg.Heartbeat { view = 12; first_undecided = 99 };
  ]

let test_msg_roundtrip () =
  List.iter
    (fun m ->
       let m' = Msg.decode (Msg.encode m) in
       if not (Msg.equal m m') then
         Alcotest.failf "round-trip failed for %a" Msg.pp m)
    sample_msgs

let test_msg_wire_size () =
  List.iter
    (fun m ->
       Alcotest.(check int)
         (Format.asprintf "%a" Msg.pp m)
         (Bytes.length (Msg.encode m))
         (Msg.wire_size m))
    sample_msgs

let test_msg_bad_tag () =
  Alcotest.check_raises "tag 99" (Msmr_wire.Codec.Malformed "message tag 99")
    (fun () -> ignore (Msg.decode (Bytes.of_string "\x63")))

(* ------------------------------------------------------------------ *)
(* Cluster harness: drives pure engines through an explicit network. *)

module Cluster = struct
  type packet = {
    src : int;
    dst : int;
    msg : Msg.t;
  }

  type t = {
    cfg : Config.t;
    engines : Paxos.t array;
    mutable inflight : packet array;   (* vector with swap-remove *)
    mutable inflight_len : int;
    rtx : (Paxos.rtx_key, int list * Msg.t) Hashtbl.t array;
    executed : (Types.iid * Value.t) list ref array;  (* newest first *)
    snapshots : (Types.iid * bytes) option array;
    mutable next_batch : int;
  }

  let push_packet t p =
    if t.inflight_len >= Array.length t.inflight then begin
      let bigger =
        Array.make (max 64 (2 * Array.length t.inflight)) p
      in
      Array.blit t.inflight 0 bigger 0 t.inflight_len;
      t.inflight <- bigger
    end;
    t.inflight.(t.inflight_len) <- p;
    t.inflight_len <- t.inflight_len + 1

  let take_packet t idx =
    let p = t.inflight.(idx) in
    t.inflight_len <- t.inflight_len - 1;
    t.inflight.(idx) <- t.inflight.(t.inflight_len);
    p

  let rec apply t node actions =
    List.iter
      (fun action ->
         match action with
         | Paxos.Send { dest; msg } ->
           List.iter (fun dst -> push_packet t { src = node; dst; msg }) dest
         | Paxos.Execute { iid; value } ->
           t.executed.(node) := (iid, value) :: !(t.executed.(node))
         | Paxos.Schedule_rtx { key; dest; msg } ->
           Hashtbl.replace t.rtx.(node) key (dest, msg)
         | Paxos.Cancel_rtx key -> Hashtbl.remove t.rtx.(node) key
         | Paxos.View_changed _ -> ()
         | Paxos.Install_snapshot { next_iid; state } ->
           t.snapshots.(node) <- Some (next_iid, state)
         | Paxos.Membership_changed _ -> ())
      actions

  and deliver t idx =
    let p = take_packet t idx in
    apply t p.dst (Paxos.receive t.engines.(p.dst) ~from:p.src p.msg)

  let create cfg =
    let n = cfg.Config.n in
    let t =
      {
        cfg;
        engines = Array.init n (fun me -> Paxos.create cfg ~me);
        inflight =
          Array.make 64
            { src = 0; dst = 0;
              msg = Msg.Heartbeat { view = 0; first_undecided = 0 } };
        inflight_len = 0;
        rtx = Array.init n (fun _ -> Hashtbl.create 32);
        executed = Array.init n (fun _ -> ref []);
        snapshots = Array.make n None;
        next_batch = 0;
      }
    in
    Array.iteri (fun i e -> apply t i (Paxos.bootstrap e)) t.engines;
    t

  let propose_at t node =
    let num = t.next_batch in
    t.next_batch <- num + 1;
    let batch =
      mk_batch node num [ mk_req 100 num (Printf.sprintf "payload-%d" num) ]
    in
    apply t node (Paxos.propose t.engines.(node) batch)

  let deliver_all t =
    (* FIFO-ish drain; order within the vector is arbitrary but fixed. *)
    let guard = ref 0 in
    while t.inflight_len > 0 && !guard < 1_000_000 do
      incr guard;
      deliver t 0
    done;
    if t.inflight_len > 0 then failwith "deliver_all: message storm"

  let replay_rtx t =
    Array.iteri
      (fun node tbl ->
         Hashtbl.iter
           (fun _key (dest, msg) ->
              List.iter (fun dst -> push_packet t { src = node; dst; msg }) dest)
           tbl)
      t.rtx

  let tick_catchup_all t =
    Array.iteri
      (fun node e ->
         (* Exhaust the outstanding-query backoff deterministically. *)
         for _ = 1 to 4 do
           apply t node (Paxos.tick_catchup e)
         done)
      t.engines

  let executed_seq t node = List.rev !(t.executed.(node))

  let max_executed t =
    Array.fold_left
      (fun acc l -> max acc (List.length !l))
      0 t.executed

  (* Deliver everything, replaying retransmissions and catch-up until the
     cluster stops making progress. *)
  let converge ?(rounds = 60) t =
    let progress_mark t =
      ( Array.map (fun l -> List.length !l) t.executed,
        Array.map Paxos.view t.engines )
    in
    let rec go r last =
      deliver_all t;
      let mark = progress_mark t in
      if mark <> last && r > 0 then begin
        replay_rtx t;
        tick_catchup_all t;
        go (r - 1) mark
      end
      else if r > 0 then begin
        (* Quiescent: make sure some leader is active, then one more push. *)
        let any_leader =
          Array.exists (fun e -> Paxos.is_leader e) t.engines
        in
        if not any_leader then begin
          let best = ref 0 in
          Array.iteri
            (fun i e -> if Paxos.view e > Paxos.view t.engines.(!best) then best := i)
            t.engines;
          apply t !best (Paxos.suspect_leader t.engines.(!best));
          replay_rtx t;
          tick_catchup_all t;
          go (r - 1) (progress_mark t)
        end
        else begin
          replay_rtx t;
          tick_catchup_all t;
          deliver_all t;
          if progress_mark t <> mark && r > 1 then go (r - 2) (progress_mark t)
        end
      end
    in
    go rounds ([||], [||])

  (* Safety: any two replicas that decided an instance agree on the value;
     snapshots are consistent with positions. *)
  let check_agreement t =
    let n = Array.length t.engines in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let la = executed_seq t a and lb = executed_seq t b in
        let rec zip xs ys =
          match (xs, ys) with
          | (ia, va) :: xs', (ib, vb) :: ys' ->
            if ia <> ib then
              Alcotest.failf "replicas %d/%d execute different instances %d/%d"
                a b ia ib;
            if not (Value.equal va vb) then
              Alcotest.failf "replicas %d/%d disagree on instance %d" a b ia;
            zip xs' ys'
          | _, [] | [], _ -> ()
        in
        (* Align on common instance ids: executions may start after a
           snapshot fast-forward. *)
        let start xs ys =
          match (xs, ys) with
          | (ia, _) :: _, (ib, _) :: _ when ia < ib ->
            (List.filter (fun (i, _) -> i >= ib) xs, ys)
          | (ia, _) :: _, (ib, _) :: _ when ib < ia ->
            (xs, List.filter (fun (i, _) -> i >= ia) ys)
          | _ -> (xs, ys)
        in
        let xs, ys = start la lb in
        zip xs ys
      done
    done

  let check_all_converged t =
    let target = max_executed t in
    Array.iteri
      (fun i l ->
         let got =
           List.length !l
           + (match t.snapshots.(i) with Some (next, _) -> next | None -> 0)
         in
         if got < target then
           Alcotest.failf "replica %d executed %d < %d" i got target)
      t.executed
end

let test_cluster_normal_case () =
  let cfg = Config.default ~n:3 in
  let t = Cluster.create cfg in
  for _ = 1 to 20 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  Cluster.check_agreement t;
  Cluster.check_all_converged t;
  Alcotest.(check int) "all 20 executed" 20
    (List.length (Cluster.executed_seq t 0));
  (* No view change was needed. *)
  Array.iter
    (fun e -> Alcotest.(check int) "view stayed 0" 0 (Paxos.view e))
    t.Cluster.engines

let test_cluster_n5 () =
  let cfg = Config.default ~n:5 in
  let t = Cluster.create cfg in
  for _ = 1 to 30 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  Cluster.check_agreement t;
  Cluster.check_all_converged t;
  Alcotest.(check int) "30 executed" 30 (List.length (Cluster.executed_seq t 2))

let test_cluster_single_replica () =
  let cfg = Config.default ~n:1 in
  let t = Cluster.create cfg in
  for _ = 1 to 5 do
    Cluster.propose_at t 0
  done;
  Alcotest.(check int) "decides alone" 5
    (List.length (Cluster.executed_seq t 0))

let test_cluster_window_respected () =
  let cfg = { (Config.default ~n:3) with window = 3 } in
  let t = Cluster.create cfg in
  (* Propose 10 without delivering anything: only 3 may be in flight. *)
  for _ = 1 to 10 do
    Cluster.propose_at t 0
  done;
  Alcotest.(check int) "window in use" 3
    (Paxos.window_in_use t.Cluster.engines.(0));
  Cluster.converge t;
  Cluster.check_agreement t;
  Alcotest.(check int) "all eventually decided" 10
    (List.length (Cluster.executed_seq t 0))

let test_cluster_leader_failover () =
  let cfg = Config.default ~n:3 in
  let t = Cluster.create cfg in
  for _ = 1 to 5 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  (* Node 0 "crashes": drop all its traffic from now on by removing its
     packets; node 1 suspects and takes over. *)
  let e1 = t.Cluster.engines.(1) in
  Cluster.apply t 1 (Paxos.suspect_leader e1);
  (* Deliver only packets not involving node 0. *)
  let deliver_excluding_0 () =
    let guard = ref 0 in
    let continue = ref true in
    while !continue && !guard < 100_000 do
      incr guard;
      let idx = ref (-1) in
      for i = 0 to t.Cluster.inflight_len - 1 do
        let p = t.Cluster.inflight.(i) in
        if !idx < 0 && p.Cluster.src <> 0 && p.Cluster.dst <> 0 then idx := i
      done;
      if !idx < 0 then continue := false
      else Cluster.deliver t !idx
    done
  in
  deliver_excluding_0 ();
  Alcotest.(check bool) "node 1 leads" true (Paxos.is_leader e1);
  Alcotest.(check int) "view 1" 1 (Paxos.view e1);
  for _ = 1 to 5 do
    Cluster.propose_at t 1
  done;
  deliver_excluding_0 ();
  Cluster.check_agreement t;
  Alcotest.(check int) "node 1 executed all 10" 10
    (List.length (Cluster.executed_seq t 1));
  Alcotest.(check int) "node 2 executed all 10" 10
    (List.length (Cluster.executed_seq t 2))

let test_cluster_failover_preserves_inflight_value () =
  (* The old leader proposes to one follower only; the new leader must
     re-propose that value, not replace it. *)
  let cfg = Config.default ~n:3 in
  let t = Cluster.create cfg in
  Cluster.propose_at t 0;
  (* Deliver the Accept only to node 1 (drop traffic to node 2). *)
  let rec deliver_to_1 () =
    let idx = ref (-1) in
    for i = 0 to t.Cluster.inflight_len - 1 do
      let p = t.Cluster.inflight.(i) in
      if !idx < 0 && p.Cluster.dst = 1 && p.Cluster.src = 0 then idx := i
    done;
    if !idx >= 0 then begin
      Cluster.deliver t !idx;
      deliver_to_1 ()
    end
  in
  deliver_to_1 ();
  (* Clear the rest of the network: old leader is now silent. *)
  t.Cluster.inflight_len <- 0;
  Hashtbl.reset t.Cluster.rtx.(0);
  (* Node 1 takes over; it saw the Accept for instance 0. *)
  Cluster.apply t 1 (Paxos.suspect_leader t.Cluster.engines.(1));
  let deliver_excluding_0 () =
    let continue = ref true in
    while !continue do
      let idx = ref (-1) in
      for i = 0 to t.Cluster.inflight_len - 1 do
        let p = t.Cluster.inflight.(i) in
        if !idx < 0 && p.Cluster.src <> 0 && p.Cluster.dst <> 0 then idx := i
      done;
      if !idx < 0 then continue := false else Cluster.deliver t !idx
    done
  in
  deliver_excluding_0 ();
  (match Cluster.executed_seq t 1 with
   | (0, Value.Batch b) :: _ ->
     Alcotest.(check int) "original batch preserved" 0 b.Batch.bid.num;
     Alcotest.(check int) "batch src is old leader" 0 b.Batch.bid.src
   | (0, Value.Noop) :: _ ->
     Alcotest.fail "in-flight value was replaced by a noop"
   | _ -> Alcotest.fail "instance 0 not executed at new leader");
  Cluster.check_agreement t

let test_cluster_noop_fills_gap () =
  (* The old leader opens instances 0 and 1 but only instance 1's Accept
     reaches node 1. After failover the new leader fills instance 0 with
     a noop and preserves instance 1. *)
  let cfg = Config.default ~n:3 in
  let t = Cluster.create cfg in
  Cluster.propose_at t 0;
  Cluster.propose_at t 0;
  (* Deliver to node 1 only the Accept for instance 1. *)
  let idx = ref (-1) in
  for i = 0 to t.Cluster.inflight_len - 1 do
    let p = t.Cluster.inflight.(i) in
    match p.Cluster.msg with
    | Msg.Accept { iid = 1; _ } when p.Cluster.dst = 1 && !idx < 0 -> idx := i
    | _ -> ()
  done;
  Alcotest.(check bool) "found accept for 1" true (!idx >= 0);
  Cluster.deliver t !idx;
  t.Cluster.inflight_len <- 0;
  Hashtbl.reset t.Cluster.rtx.(0);
  Cluster.apply t 1 (Paxos.suspect_leader t.Cluster.engines.(1));
  let continue = ref true in
  while !continue do
    let idx = ref (-1) in
    for i = 0 to t.Cluster.inflight_len - 1 do
      let p = t.Cluster.inflight.(i) in
      if !idx < 0 && p.Cluster.src <> 0 && p.Cluster.dst <> 0 then idx := i
    done;
    if !idx < 0 then continue := false else Cluster.deliver t !idx
  done;
  (match Cluster.executed_seq t 1 with
   | (0, Value.Noop) :: (1, Value.Batch b) :: _ ->
     Alcotest.(check int) "instance 1 batch" 1 b.Batch.bid.num
   | _ -> Alcotest.fail "expected noop at 0 and batch at 1");
  Cluster.check_agreement t

let test_cluster_lagging_replica_catches_up () =
  let cfg = Config.default ~n:3 in
  let t = Cluster.create cfg in
  for _ = 1 to 10 do
    Cluster.propose_at t 0
  done;
  (* Partition node 2: drop everything addressed to it. *)
  let deliver_not_to_2 () =
    let continue = ref true in
    while !continue do
      let idx = ref (-1) in
      for i = 0 to t.Cluster.inflight_len - 1 do
        if !idx < 0 && t.Cluster.inflight.(i).Cluster.dst <> 2 then idx := i
      done;
      if !idx < 0 then continue := false else Cluster.deliver t !idx
    done;
    (* Discard packets to node 2. *)
    let keep = ref [] in
    for i = 0 to t.Cluster.inflight_len - 1 do
      if t.Cluster.inflight.(i).Cluster.dst <> 2 then
        keep := t.Cluster.inflight.(i) :: !keep
    done;
    t.Cluster.inflight_len <- 0;
    List.iter (Cluster.push_packet t) !keep
  in
  deliver_not_to_2 ();
  Alcotest.(check int) "majority decided without 2" 10
    (List.length (Cluster.executed_seq t 0));
  Alcotest.(check int) "node 2 blind" 0 (List.length (Cluster.executed_seq t 2));
  (* Heal: replay retransmissions (the leader keeps none for decided
     instances), so node 2 recovers through catch-up. *)
  Cluster.apply t 2
    (Paxos.receive t.Cluster.engines.(2) ~from:0 (Msg.Decide { view = 0; iid = 9 }));
  Cluster.converge t;
  Cluster.check_agreement t;
  Alcotest.(check int) "node 2 caught up" 10
    (List.length (Cluster.executed_seq t 2))

let test_cluster_snapshot_catchup () =
  let cfg =
    { (Config.default ~n:3) with snapshot_every = 0; log_retain = 2 }
  in
  let t = Cluster.create cfg in
  for _ = 1 to 30 do
    Cluster.propose_at t 0
  done;
  (* Partition node 2 as above. *)
  let deliver_not_to_2 () =
    let continue = ref true in
    while !continue do
      let idx = ref (-1) in
      for i = 0 to t.Cluster.inflight_len - 1 do
        if !idx < 0 && t.Cluster.inflight.(i).Cluster.dst <> 2 then idx := i
      done;
      if !idx < 0 then continue := false else Cluster.deliver t !idx
    done;
    let keep = ref [] in
    for i = 0 to t.Cluster.inflight_len - 1 do
      if t.Cluster.inflight.(i).Cluster.dst <> 2 then
        keep := t.Cluster.inflight.(i) :: !keep
    done;
    t.Cluster.inflight_len <- 0;
    List.iter (Cluster.push_packet t) !keep
  in
  deliver_not_to_2 ();
  (* The leader snapshots at instance 25 and truncates its log. *)
  Cluster.apply t 0
    (Paxos.note_snapshot t.Cluster.engines.(0) ~next_iid:25
       ~state:(Bytes.of_string "snap@25"));
  Alcotest.(check int) "log truncated" 23
    (Log.low_mark (Paxos.log t.Cluster.engines.(0)));
  (* Heal node 2; it must receive the snapshot plus the tail. *)
  Cluster.apply t 2
    (Paxos.receive t.Cluster.engines.(2) ~from:0 (Msg.Decide { view = 0; iid = 29 }));
  Cluster.converge t;
  (match t.Cluster.snapshots.(2) with
   | Some (25, state) ->
     Alcotest.(check string) "snapshot content" "snap@25" (Bytes.to_string state)
   | Some (n, _) -> Alcotest.failf "snapshot at %d, expected 25" n
   | None -> Alcotest.fail "node 2 never installed a snapshot");
  let tail = Cluster.executed_seq t 2 in
  Alcotest.(check int) "tail executed" 5 (List.length tail);
  Alcotest.(check int) "tail starts at 25" 25 (fst (List.hd tail));
  Cluster.check_agreement t

(* Random-schedule agreement property. *)
let run_random_schedule ~n ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let cfg = { (Config.default ~n) with window = 4 } in
  let t = Cluster.create cfg in
  for _ = 1 to steps do
    match Random.State.int rng 100 with
    | x when x < 45 ->
      (* Deliver a random in-flight packet. *)
      if t.Cluster.inflight_len > 0 then
        Cluster.deliver t (Random.State.int rng t.Cluster.inflight_len)
    | x when x < 55 ->
      (* Drop a random packet. *)
      if t.Cluster.inflight_len > 0 then
        ignore (Cluster.take_packet t (Random.State.int rng t.Cluster.inflight_len))
    | x when x < 62 ->
      (* Duplicate a random packet. *)
      if t.Cluster.inflight_len > 0 then begin
        let p = t.Cluster.inflight.(Random.State.int rng t.Cluster.inflight_len) in
        Cluster.push_packet t p
      end
    | x when x < 80 ->
      (* Propose at a random node (queued internally if not leader). *)
      Cluster.propose_at t (Random.State.int rng n)
    | x when x < 88 ->
      (* Replay a random node's retransmissions. *)
      let node = Random.State.int rng n in
      Hashtbl.iter
        (fun _ (dest, msg) ->
           List.iter
             (fun dst -> Cluster.push_packet t { Cluster.src = node; dst; msg })
             dest)
        t.Cluster.rtx.(node)
    | _ ->
      (* Random suspicion: triggers competing leader elections. *)
      let node = Random.State.int rng n in
      Cluster.apply t node (Paxos.suspect_leader t.Cluster.engines.(node))
  done;
  Cluster.converge ~rounds:120 t;
  Cluster.check_agreement t;
  t

let prop_random_schedule_agreement_n3 =
  QCheck.Test.make ~name:"paxos agreement under random schedules (n=3)"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       ignore (run_random_schedule ~n:3 ~seed ~steps:250);
       true)

let prop_random_schedule_agreement_n5 =
  QCheck.Test.make ~name:"paxos agreement under random schedules (n=5)"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       ignore (run_random_schedule ~n:5 ~seed ~steps:250);
       true)

let test_random_schedule_convergence () =
  (* With a fixed seed, also require liveness: everyone converges to the
     same execution length. *)
  let t = run_random_schedule ~n:3 ~seed:42 ~steps:300 in
  Cluster.check_all_converged t

(* ------------------------------------------------------------------ *)
(* Online membership change (DESIGN.md section 17) *)

let test_membership_transitions () =
  let cfg = { (Config.default ~n:5) with members0 = [ 0; 1; 2 ] } in
  let m0 = Membership.initial cfg in
  Alcotest.(check int) "boot epoch" 0 m0.Membership.epoch;
  Alcotest.(check int) "boot quorum" 2 (Membership.quorum m0);
  Alcotest.(check int) "boot voter mask" 0b111 (Membership.voter_mask m0);
  (* add_learner: epoch bump, no vote. *)
  let m1 = Option.get (Membership.add_learner m0 3) in
  Alcotest.(check int) "epoch 1" 1 m1.Membership.epoch;
  Alcotest.(check bool) "3 is learner" true (Membership.is_learner m1 3);
  Alcotest.(check bool) "3 not voter" false (Membership.is_voter m1 3);
  Alcotest.(check int) "learner outside mask" 0b111 (Membership.voter_mask m1);
  Alcotest.(check int) "quorum unchanged" 2 (Membership.quorum m1);
  (* promote: now a voter, quorum grows to 3-of-4. *)
  let m2 = Option.get (Membership.promote m1 3) in
  Alcotest.(check bool) "3 is voter" true (Membership.is_voter m2 3);
  Alcotest.(check int) "4-voter quorum" 3 (Membership.quorum m2);
  Alcotest.(check int) "voter mask grows" 0b1111 (Membership.voter_mask m2);
  (* remove: fenced out entirely. *)
  let m3 = Option.get (Membership.remove m2 0) in
  Alcotest.(check bool) "0 not member" false (Membership.is_member m3 0);
  Alcotest.(check int) "back to 3 voters" 2 (Membership.quorum m3);
  (* Guards: transitions that do not apply return None. *)
  Alcotest.(check bool) "re-add member" true (Membership.add_learner m2 3 = None);
  Alcotest.(check bool) "promote non-learner" true (Membership.promote m0 4 = None);
  Alcotest.(check bool) "remove non-member" true (Membership.remove m0 4 = None);
  let solo = Membership.make ~epoch:9 ~voters:[ 1 ] ~learners:[] in
  Alcotest.(check bool) "cannot empty voters" true (Membership.remove solo 1 = None)

let test_membership_codec_roundtrip () =
  let ms =
    [
      Membership.make ~epoch:0 ~voters:[ 0; 1; 2 ] ~learners:[];
      Membership.make ~epoch:3 ~voters:[ 0; 2; 4 ] ~learners:[ 1; 3 ];
      Membership.make ~epoch:61 ~voters:[ 7 ] ~learners:[ 0 ];
    ]
  in
  List.iter
    (fun m ->
       let w = Msmr_wire.Codec.W.create () in
       Membership.encode w m;
       let raw = Msmr_wire.Codec.W.contents w in
       Alcotest.(check int) "size_bytes" (Bytes.length raw)
         (Membership.size_bytes m);
       let m' = Membership.decode (Msmr_wire.Codec.R.of_bytes raw) in
       Alcotest.(check bool) "roundtrip" true (Membership.equal m m'))
    ms;
  (* History list, newest first, as persisted in checkpoints. *)
  let configs = [ (42, List.nth ms 1); (0, List.nth ms 0) ] in
  let w = Msmr_wire.Codec.W.create () in
  Membership.encode_configs w configs;
  let configs' =
    Membership.decode_configs
      (Msmr_wire.Codec.R.of_bytes (Msmr_wire.Codec.W.contents w))
  in
  Alcotest.(check int) "history length" 2 (List.length configs');
  List.iter2
    (fun (i, m) (i', m') ->
       Alcotest.(check int) "iid" i i';
       Alcotest.(check bool) "membership" true (Membership.equal m m'))
    configs configs';
  (* A Reconfig value survives the Msg codec like any other value. *)
  let msg = Msg.Accept { view = 1; iid = 7; value = Value.Reconfig (List.nth ms 1) } in
  Alcotest.(check bool) "msg roundtrip" true
    (Msg.equal msg (Msg.decode (Msg.encode msg)))

(* Drive a full grow (learner then voter) through the consensus engines:
   node 3 starts cold, catches up via snapshot-free catch-up, and every
   member adopts the same epochs. *)
let test_reconfig_grow_epochs_agree () =
  let cfg = { (Config.default ~n:5) with members0 = [ 0; 1; 2 ] } in
  let t = Cluster.create cfg in
  for _ = 1 to 5 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  let e0 = t.Cluster.engines.(0) in
  let alpha = Paxos.reconfig_alpha e0 in
  let m1 = Option.get (Membership.add_learner (Paxos.membership e0) 3) in
  Cluster.apply t 0 (Paxos.propose_reconfig e0 m1);
  (* Push traffic past the effective point so the learner is messaged. *)
  for _ = 1 to (2 * alpha) + 4 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  List.iter
    (fun i ->
       let m = Paxos.membership t.Cluster.engines.(i) in
       Alcotest.(check int) (Printf.sprintf "node %d epoch" i) 1
         m.Membership.epoch;
       Alcotest.(check bool) "3 tracked as learner" true
         (Membership.is_learner m 3))
    [ 0; 1; 2; 3 ];
  (* The decide-to-effect lag: the epoch flips exactly alpha instances
     after the Reconfig's decide point. *)
  let d =
    match
      List.find_opt
        (fun (_, v) -> match v with Value.Reconfig _ -> true | _ -> false)
        (Cluster.executed_seq t 0)
    with
    | Some (d, _) -> d
    | None -> Alcotest.fail "reconfig never executed"
  in
  (* Old configs are pruned once nothing undecided is governed by them,
     so assert the boundary via the retained config's start instance. *)
  let eff, m_adopted = List.hd (Paxos.configs e0) in
  Alcotest.(check int) "epoch 1 effective at d+alpha" (d + alpha) eff;
  Alcotest.(check int) "retained config is epoch 1" 1
    m_adopted.Membership.epoch;
  Alcotest.(check int) "new epoch governs from d+alpha" 1
    (Paxos.membership_at e0 (d + alpha)).Membership.epoch;
  (* Promote the caught-up learner to voter. *)
  let m2 = Option.get (Membership.promote (Paxos.membership e0) 3) in
  Cluster.apply t 0 (Paxos.propose_reconfig e0 m2);
  for _ = 1 to (2 * alpha) + 4 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  List.iter
    (fun i ->
       let m = Paxos.membership t.Cluster.engines.(i) in
       Alcotest.(check int) (Printf.sprintf "node %d epoch 2" i) 2
         m.Membership.epoch;
       Alcotest.(check bool) "3 votes" true (Membership.is_voter m 3);
       Alcotest.(check int) "4-voter quorum" 3 (Membership.quorum m))
    [ 0; 1; 2; 3 ];
  Cluster.check_agreement t

(* A learner's Accepted must not count toward the decide quorum. *)
let test_reconfig_learner_does_not_vote () =
  let cfg = { (Config.default ~n:3) with members0 = [ 0; 1 ] } in
  let t = Cluster.create cfg in
  let e0 = t.Cluster.engines.(0) in
  let alpha = Paxos.reconfig_alpha e0 in
  let m1 = Option.get (Membership.add_learner (Paxos.membership e0) 2) in
  Cluster.apply t 0 (Paxos.propose_reconfig e0 m1);
  for _ = 1 to (2 * alpha) + 4 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  Alcotest.(check int) "learner joined" 1
    (Paxos.membership e0).Membership.epoch;
  let executed_before = List.length (Cluster.executed_seq t 0) in
  (* Partition voter 1 away: only leader 0 and learner 2 talk. The
     learner answers Accepted, but a 2-voter membership still needs
     voter 1 — nothing new may decide. *)
  Cluster.propose_at t 0;
  let deliver_excluding_1 () =
    let continue = ref true in
    while !continue do
      let idx = ref (-1) in
      for i = 0 to t.Cluster.inflight_len - 1 do
        let p = t.Cluster.inflight.(i) in
        if !idx < 0 && p.Cluster.src <> 1 && p.Cluster.dst <> 1 then idx := i
      done;
      if !idx < 0 then continue := false else Cluster.deliver t !idx
    done
  in
  deliver_excluding_1 ();
  Alcotest.(check int) "nothing decided on learner acks alone"
    executed_before
    (List.length (Cluster.executed_seq t 0));
  (* Heal: the voter's ack completes the quorum. *)
  Cluster.converge t;
  Alcotest.(check int) "decides once the voter answers"
    (executed_before + 1)
    (List.length (Cluster.executed_seq t 0));
  Cluster.check_agreement t

(* Shrink: the removed node is epoch-fenced — it adopts the epoch that
   excludes it and knows it is no longer a member. *)
let test_reconfig_remove_fences_node () =
  let cfg = Config.default ~n:3 in
  let t = Cluster.create cfg in
  for _ = 1 to 3 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  let e0 = t.Cluster.engines.(0) in
  let alpha = Paxos.reconfig_alpha e0 in
  let m1 = Option.get (Membership.remove (Paxos.membership e0) 2) in
  Cluster.apply t 0 (Paxos.propose_reconfig e0 m1);
  for _ = 1 to (2 * alpha) + 4 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  List.iter
    (fun i ->
       Alcotest.(check int) (Printf.sprintf "node %d epoch" i) 1
         (Paxos.membership t.Cluster.engines.(i)).Membership.epoch)
    [ 0; 1 ];
  let m2 = Paxos.membership t.Cluster.engines.(2) in
  (* Node 2 executed its own removal before the traffic stopped: it is
     fenced by its own adopted epoch, not by silence. *)
  Alcotest.(check int) "removed node adopted the epoch" 1
    m2.Membership.epoch;
  Alcotest.(check bool) "removed node knows it is out" false
    (Membership.is_member m2 2);
  Alcotest.(check int) "two-voter quorum" 2
    (Membership.quorum (Paxos.membership e0));
  Cluster.check_agreement t

let test_reconfig_proposal_guards () =
  let cfg = { (Config.default ~n:5) with members0 = [ 0; 1; 2 ] } in
  let t = Cluster.create cfg in
  Cluster.converge t;
  let e0 = t.Cluster.engines.(0) in
  let m = Paxos.membership e0 in
  (* Followers may not open a reconfig. *)
  let m1 = Option.get (Membership.add_learner m 3) in
  Alcotest.(check bool) "follower refuses" true
    (Paxos.propose_reconfig t.Cluster.engines.(1) m1 = []);
  (* Stale or skipped epochs are refused. *)
  Alcotest.(check bool) "same epoch refused" true
    (Paxos.propose_reconfig e0 m = []);
  let skipped = Membership.make ~epoch:7 ~voters:[ 0; 1; 2; 3 ] ~learners:[] in
  Alcotest.(check bool) "skipped epoch refused" true
    (Paxos.propose_reconfig e0 skipped = []);
  (* Only one reconfig in flight at a time. *)
  let opened = Paxos.propose_reconfig e0 m1 in
  Alcotest.(check bool) "first opens" true (opened <> []);
  Cluster.apply t 0 opened;
  Alcotest.(check bool) "in flight" true (Paxos.reconfig_in_flight e0);
  let m1' = Option.get (Membership.add_learner m 4) in
  Alcotest.(check bool) "second refused while pending" true
    (Paxos.propose_reconfig e0 m1' = []);
  (* The barrier clears once the reconfig executes. *)
  let alpha = Paxos.reconfig_alpha e0 in
  for _ = 1 to (2 * alpha) + 4 do
    Cluster.propose_at t 0
  done;
  Cluster.converge t;
  Alcotest.(check bool) "barrier cleared" false (Paxos.reconfig_in_flight e0);
  Alcotest.(check int) "epoch adopted" 1
    (Paxos.membership e0).Membership.epoch

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_next_view_led_by;
      prop_batcher_no_request_lost;
      prop_batcher_pending_count_exact;
      prop_batcher_deadline_flush_agree;
      prop_random_schedule_agreement_n3;
      prop_random_schedule_agreement_n5;
    ]

let suite =
  [
    Alcotest.test_case "types: leader_of_view" `Quick test_leader_of_view;
    Alcotest.test_case "types: next_view_led_by" `Quick test_next_view_led_by;
    Alcotest.test_case "types: majority" `Quick test_majority;
    Alcotest.test_case "config: validate" `Quick test_config_validate;
    Alcotest.test_case "log: accept/decide" `Quick test_log_accept_decide;
    Alcotest.test_case "log: execution order" `Quick test_log_execution_order;
    Alcotest.test_case "log: mark_executed guard" `Quick test_log_mark_executed_guard;
    Alcotest.test_case "log: higher view wins" `Quick test_log_higher_view_wins;
    Alcotest.test_case "log: acks reset on new view" `Quick test_log_acks_reset_on_new_view;
    Alcotest.test_case "log: truncate/fast-forward" `Quick test_log_truncate_and_fast_forward;
    Alcotest.test_case "log: undecided_below" `Quick test_log_undecided_below;
    Alcotest.test_case "log: decided_range" `Quick test_log_decided_range;
    Alcotest.test_case "batcher: fills by size" `Quick test_batcher_fills_by_size;
    Alcotest.test_case "batcher: exact fill" `Quick test_batcher_exact_fill_seals;
    Alcotest.test_case "batcher: oversized request" `Quick test_batcher_oversized_request;
    Alcotest.test_case "batcher: timeout flush" `Quick test_batcher_timeout_flush;
    Alcotest.test_case "batcher: force flush/numbering" `Quick test_batcher_force_flush_and_numbering;
    Alcotest.test_case "batcher: tuned BSZ atomic" `Quick test_batcher_tuned_bsz;
    Alcotest.test_case "batcher: seal stats" `Quick test_batcher_seal_stats;
    Alcotest.test_case "autotune: grows bsz on size seals" `Quick
      test_autotune_grows_bsz_on_size_seals;
    Alcotest.test_case "autotune: bsz converges to cap" `Quick
      test_autotune_bsz_converges_to_cap;
    Alcotest.test_case "autotune: backoff cooldown" `Quick
      test_autotune_backoff_cooldown;
    Alcotest.test_case "autotune: grows wnd when saturated" `Quick
      test_autotune_grows_wnd_when_saturated;
    Alcotest.test_case "autotune: wnd backoff triggers" `Quick
      test_autotune_wnd_backoff;
    Alcotest.test_case "autotune: demand shrink" `Quick test_autotune_demand_shrink;
    Alcotest.test_case "autotune: clamps at bounds" `Quick
      test_autotune_clamps_at_bounds;
    Alcotest.test_case "fd: leader heartbeats" `Quick test_fd_leader_heartbeats;
    Alcotest.test_case "fd: follower suspects" `Quick test_fd_follower_suspects;
    Alcotest.test_case "fd: recv defers suspicion" `Quick test_fd_recv_defers_suspicion;
    Alcotest.test_case "fd: view change grace" `Quick test_fd_view_change_grace;
    Alcotest.test_case "fd: next wake" `Quick test_fd_next_wake;
    Alcotest.test_case "fd: next wake follows the members" `Quick
      test_fd_next_wake_members_only;
    Alcotest.test_case "fd: re-arm re-suspects after full timeout" `Quick
      test_fd_rearm_resuspects_after_full_timeout;
    Alcotest.test_case "fd: suspected-then-recovered leader not disarmed"
      `Quick test_fd_suspected_then_recovered_leader_not_disarmed;
    Alcotest.test_case "fd: re-arm overridden by view change" `Quick
      test_fd_rearm_view_change_overrides;
    Alcotest.test_case "retransmit: due entries pop in FIFO order" `Quick
      test_rtx_fifo;
    Alcotest.test_case "retransmit: not due pops nothing" `Quick
      test_rtx_not_due;
    Alcotest.test_case "retransmit: cancelled entry never fires" `Quick
      test_rtx_cancel;
    Alcotest.test_case "retransmit: fired entry re-arms" `Quick test_rtx_rearm;
    Alcotest.test_case "retransmit: cancel returns scheduling time" `Quick
      test_rtx_cancel_returns_t0;
    Alcotest.test_case "msg: round-trip" `Quick test_msg_roundtrip;
    Alcotest.test_case "msg: wire size" `Quick test_msg_wire_size;
    Alcotest.test_case "msg: bad tag" `Quick test_msg_bad_tag;
    Alcotest.test_case "cluster: normal case" `Quick test_cluster_normal_case;
    Alcotest.test_case "cluster: n=5" `Quick test_cluster_n5;
    Alcotest.test_case "cluster: single replica" `Quick test_cluster_single_replica;
    Alcotest.test_case "cluster: window respected" `Quick test_cluster_window_respected;
    Alcotest.test_case "cluster: leader failover" `Quick test_cluster_leader_failover;
    Alcotest.test_case "cluster: failover preserves in-flight value" `Quick
      test_cluster_failover_preserves_inflight_value;
    Alcotest.test_case "cluster: noop fills gap" `Quick test_cluster_noop_fills_gap;
    Alcotest.test_case "cluster: lagging replica catches up" `Quick
      test_cluster_lagging_replica_catches_up;
    Alcotest.test_case "cluster: snapshot catch-up" `Quick test_cluster_snapshot_catchup;
    Alcotest.test_case "cluster: random schedule convergence" `Quick
      test_random_schedule_convergence;
    Alcotest.test_case "membership: transitions" `Quick
      test_membership_transitions;
    Alcotest.test_case "membership: codec roundtrip" `Quick
      test_membership_codec_roundtrip;
    Alcotest.test_case "reconfig: grow, epochs agree" `Quick
      test_reconfig_grow_epochs_agree;
    Alcotest.test_case "reconfig: learner does not vote" `Quick
      test_reconfig_learner_does_not_vote;
    Alcotest.test_case "reconfig: remove fences node" `Quick
      test_reconfig_remove_fences_node;
    Alcotest.test_case "reconfig: proposal guards" `Quick
      test_reconfig_proposal_guards;
  ]
  @ qsuite

(* ------------------------------------------------------------------ *)
(* Decoder robustness: arbitrary bytes must either decode or raise the
   two documented exceptions — never crash or loop. *)

let prop_msg_decode_total =
  QCheck.Test.make ~name:"msg decoder is total on junk" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
       match Msg.decode (Bytes.of_string s) with
       | _ -> true
       | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
         true)

let prop_msg_decode_truncations =
  (* Every truncation of a valid encoding is rejected cleanly. *)
  QCheck.Test.make ~name:"msg decoder rejects truncations" ~count:200
    QCheck.(int_bound 200)
    (fun cut ->
       let full =
         Msg.encode
           (Msg.Accept
              { view = 7; iid = 123;
                value = Value.Batch (mk_batch 1 5 [ mk_req 9 1 "payload" ]) })
       in
       QCheck.assume (cut < Bytes.length full);
       match Msg.decode (Bytes.sub full 0 cut) with
       | _ -> cut = Bytes.length full
       | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
         true)

(* Model-based log check: a random op sequence against a naive model. *)
let prop_log_matches_model =
  QCheck.Test.make ~name:"log matches reference model" ~count:300
    QCheck.(list (pair (int_bound 15) (pair (int_bound 3) bool)))
    (fun ops ->
       let log = Log.create () in
       let model : (int, bool) Hashtbl.t = Hashtbl.create 16 in
       (* model: iid -> decided? (accepted implied by presence) *)
       List.iter
         (fun (iid, (view, decide)) ->
            if decide then begin
              ignore (Log.decide log iid view b0);
              Hashtbl.replace model iid true
            end
            else begin
              Log.accept log iid view b0;
              if not (Hashtbl.mem model iid) then Hashtbl.replace model iid false
            end)
         ops;
       (* first_undecided = first index not decided in the model *)
       let rec first_undecided i =
         if Hashtbl.find_opt model i = Some true then first_undecided (i + 1)
         else i
       in
       let expect_fu = first_undecided 0 in
       let in_flight_model =
         Hashtbl.fold
           (fun iid decided acc ->
              if (not decided) && iid >= expect_fu then acc + 1 else acc)
           model 0
       in
       Log.first_undecided log = expect_fu && Log.in_flight log = in_flight_model)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_msg_decode_total; prop_msg_decode_truncations;
        prop_log_matches_model ]

(* Deliver every in-flight packet not addressed to node 2, and drop
   those that are: node 2 is partitioned. *)
let deliver_not_to_2 t =
  let continue = ref true in
  while !continue do
    let idx = ref (-1) in
    for i = 0 to t.Cluster.inflight_len - 1 do
      if !idx < 0 && t.Cluster.inflight.(i).Cluster.dst <> 2 then idx := i
    done;
    if !idx < 0 then continue := false else Cluster.deliver t !idx
  done;
  let keep = ref [] in
  for i = 0 to t.Cluster.inflight_len - 1 do
    if t.Cluster.inflight.(i).Cluster.dst <> 2 then
      keep := t.Cluster.inflight.(i) :: !keep
  done;
  t.Cluster.inflight_len <- 0;
  List.iter (Cluster.push_packet t) !keep

(* Catch-up pagination: replies are capped at 200 entries, so a replica
   that is far behind needs several query rounds. *)
let test_cluster_deep_catchup_paginates () =
  let cfg = { (Config.default ~n:3) with window = 50 } in
  let t = Cluster.create cfg in
  (* Decide 500 instances while node 2 is partitioned. *)
  for _ = 1 to 500 do
    Cluster.propose_at t 0;
    deliver_not_to_2 t
  done;
  Alcotest.(check int) "majority at 500" 500
    (List.length (Cluster.executed_seq t 0));
  Alcotest.(check int) "node 2 blind" 0 (List.length (Cluster.executed_seq t 2));
  (* Heal: node 2 learns it is behind from one heartbeat. *)
  Cluster.apply t 2
    (Paxos.receive t.Cluster.engines.(2) ~from:0
       (Msg.Heartbeat { view = 0; first_undecided = 500 }));
  Cluster.converge ~rounds:200 t;
  Cluster.check_agreement t;
  Alcotest.(check int) "node 2 caught up through paginated replies" 500
    (List.length (Cluster.executed_seq t 2));
  Alcotest.(check bool) "took several catch-up queries" true
    ((Paxos.stats t.Cluster.engines.(2)).Paxos.catchup_queries_sent >= 3)

(* [catchup_due] holds exactly while the catch-up tick has work: a
   follower that learnt of decided instances it lacks, until a reply
   catches it up; never a leader or a caught-up node. *)
let test_catchup_due () =
  let t = Cluster.create (Config.default ~n:3) in
  let due i = Paxos.catchup_due t.Cluster.engines.(i) in
  let none_due what =
    for i = 0 to 2 do
      Alcotest.(check bool) (Printf.sprintf "%s: node %d not due" what i)
        false (due i)
    done
  in
  none_due "fresh";
  for _ = 1 to 5 do
    Cluster.propose_at t 0;
    deliver_not_to_2 t
  done;
  (* Node 2 missed everything but has not heard of it yet. *)
  none_due "partitioned";
  Cluster.apply t 2
    (Paxos.receive t.Cluster.engines.(2) ~from:0
       (Msg.Heartbeat { view = 0; first_undecided = 5 }));
  Alcotest.(check bool) "behind the heartbeat's frontier" true (due 2);
  Alcotest.(check bool) "leader never due" false (due 0);
  Cluster.apply t 2 (Paxos.tick_catchup t.Cluster.engines.(2));
  Alcotest.(check bool) "query outstanding" true (due 2);
  Cluster.converge ~rounds:50 t;
  Alcotest.(check int) "node 2 caught up" 5
    (List.length (Cluster.executed_seq t 2));
  none_due "converged"

let suite =
  suite
  @ [ Alcotest.test_case "cluster: deep catch-up paginates" `Quick
        test_cluster_deep_catchup_paginates;
      Alcotest.test_case "paxos: catchup_due tracks catch-up work" `Quick
        test_catchup_due ]

(* Multi-group Paxos: a group bootstrapping at view0 = gid is led by
   node gid mod n from the first action, with no Phase 1. *)
let test_paxos_view0_bootstrap () =
  let cfg = Config.default ~n:3 in
  Alcotest.(check int) "group 0 led by node 0" 0
    (Paxos.leader (Paxos.create ~view0:0 cfg ~me:0));
  Alcotest.(check int) "group 4 wraps to node 1" (4 mod cfg.Config.n)
    (Paxos.leader (Paxos.create ~view0:4 cfg ~me:0));
  let engines = Array.init 3 (fun me -> Paxos.create ~view0:2 cfg ~me) in
  Array.iteri
    (fun me e ->
       let actions = Paxos.bootstrap e in
       let view_changes =
         List.filter_map
           (function
             | Paxos.View_changed { view; leader; i_am_leader } ->
               Some (view, leader, i_am_leader)
             | _ -> None)
           actions
       in
       Alcotest.(check (list (triple int int bool)))
         (Printf.sprintf "node %d reports view 2, leader 2" me)
         [ (2, 2, me = 2) ]
         view_changes;
       Alcotest.(check int) "engine view" 2 (Paxos.view e);
       Alcotest.(check int) "engine leader" 2 (Paxos.leader e);
       Alcotest.(check bool) "leadership matches" (me = 2) (Paxos.is_leader e);
       (* Fresh group: the leader must not run Phase 1 (no Prepare). *)
       Alcotest.(check bool) "no Prepare on bootstrap" true
         (List.for_all
            (function
              | Paxos.Send { msg = Msg.Prepare _; _ }
              | Paxos.Schedule_rtx { msg = Msg.Prepare _; _ } -> false
              | _ -> true)
            actions))
    engines;
  (* Default view0 = 0 stays the classic node-0-led layout. *)
  let e0 = Paxos.create cfg ~me:0 in
  ignore (Paxos.bootstrap e0);
  Alcotest.(check int) "default view 0" 0 (Paxos.view e0);
  Alcotest.(check bool) "node 0 leads by default" true (Paxos.is_leader e0)

let suite =
  suite
  @ [ Alcotest.test_case "paxos: view0 bootstrap (multi-group)" `Quick
        test_paxos_view0_bootstrap ]

(* ------------------------------------------------------------------ *)
(* Leader lease (read fast path) *)

let lease_cfg ?(n = 3) () =
  { (Config.default ~n) with
    lease_enabled = true; lease_duration_s = 1.0; clock_skew_bound_s = 0.05 }

let s_ns x = int_of_float (x *. 1e9)

let test_lease_config_validate () =
  let ok = lease_cfg () in
  Alcotest.(check bool) "lease defaults ok" true (Config.validate ok = Ok ());
  Alcotest.(check bool) "duration must dominate fd interval" true
    (Config.validate { ok with lease_duration_s = 0.01 } |> Result.is_error);
  Alcotest.(check bool) "skew must stay under the duration" true
    (Config.validate { ok with clock_skew_bound_s = 2.0 } |> Result.is_error);
  Alcotest.(check bool) "knobs ignored when disabled" true
    (Config.validate
       { ok with lease_enabled = false; lease_duration_s = 0.01 }
     = Ok ())

let test_lease_ping_due_fresh () =
  (* Regression: [create] seeds [last_ping_ns = min_int] and
     [now - min_int] overflows, so "never pinged" must be tested
     explicitly — a fresh lease is due immediately, even at now = 0. *)
  let t = Lease.create (lease_cfg ()) ~me:0 ~view:0 in
  Alcotest.(check bool) "due at time zero" true (Lease.ping_due t ~now_ns:0);
  ignore (Lease.make_ping t ~now_ns:0);
  let renew = s_ns 1.0 / 3 in
  Alcotest.(check bool) "not due right after a round" false
    (Lease.ping_due t ~now_ns:(renew - 1));
  Alcotest.(check bool) "due a third of the duration later" true
    (Lease.ping_due t ~now_ns:renew)

let test_lease_acquire_on_quorum () =
  let leader = Lease.create (lease_cfg ()) ~me:0 ~view:0 in
  let follower = Lease.create (lease_cfg ()) ~me:1 ~view:0 in
  let t0 = s_ns 0.1 in
  (match Lease.make_ping leader ~now_ns:t0 with
   | Msg.Lease_ping { view = 0; t0_ns } ->
     Alcotest.(check int) "ping anchored at t0" t0 t0_ns
   | _ -> Alcotest.fail "expected Lease_ping");
  Alcotest.(check bool) "not held before any grant" false
    (Lease.held leader ~now_ns:(t0 + 1));
  (* The follower receives the ping a little later on its own clock and
     echoes a grant carrying the leader's t0. *)
  (match Lease.on_ping follower ~from:0 ~view:0 ~t0_ns:t0 ~now_ns:(t0 + 500)
   with
   | Some (Msg.Lease_grant { view = 0; t0_ns }) ->
     Alcotest.(check int) "grant echoes t0" t0 t0_ns
   | _ -> Alcotest.fail "expected Lease_grant");
  (* Leader + one grant = quorum of 2 in a group of 3. *)
  Alcotest.(check bool) "quorum reached" true
    (Lease.on_grant leader ~from:1 ~view:0 ~t0_ns:t0 ~quorum:2);
  Alcotest.(check int) "one renewal counted" 1 (Lease.renewals leader);
  (* Held until t0 + duration - skew on the holder's clock: the skew
     padding keeps the holder's expiry inside every grantor's promise. *)
  let expiry = t0 + s_ns 1.0 - s_ns 0.05 in
  Alcotest.(check bool) "held after the quorum" true
    (Lease.held leader ~now_ns:(t0 + 1000));
  Alcotest.(check bool) "held up to the padded expiry" true
    (Lease.held leader ~now_ns:(expiry - 1));
  Alcotest.(check bool) "expires skew-early" false
    (Lease.held leader ~now_ns:expiry)

let test_lease_grant_bookkeeping () =
  let leader = Lease.create (lease_cfg ~n:5 ()) ~me:0 ~view:0 in
  let t0 = s_ns 0.2 in
  ignore (Lease.make_ping leader ~now_ns:t0);
  Alcotest.(check bool) "stale round ignored" false
    (Lease.on_grant leader ~from:1 ~view:0 ~t0_ns:(t0 - 7) ~quorum:3);
  Alcotest.(check bool) "wrong view ignored" false
    (Lease.on_grant leader ~from:1 ~view:1 ~t0_ns:t0 ~quorum:3);
  Alcotest.(check bool) "first grant short of quorum" false
    (Lease.on_grant leader ~from:1 ~view:0 ~t0_ns:t0 ~quorum:3);
  Alcotest.(check bool) "duplicate grant not double counted" false
    (Lease.on_grant leader ~from:1 ~view:0 ~t0_ns:t0 ~quorum:3);
  Alcotest.(check bool) "still not held" false
    (Lease.held leader ~now_ns:(t0 + 1));
  Alcotest.(check bool) "third distinct grantor completes the quorum" true
    (Lease.on_grant leader ~from:2 ~view:0 ~t0_ns:t0 ~quorum:3);
  Alcotest.(check bool) "held" true (Lease.held leader ~now_ns:(t0 + 1))

let test_lease_on_ping_refusals () =
  let t = Lease.create (lease_cfg ()) ~me:1 ~view:0 in
  Alcotest.(check bool) "wrong view refused" true
    (Lease.on_ping t ~from:0 ~view:1 ~t0_ns:10 ~now_ns:20 = None);
  Alcotest.(check bool) "non-leader sender refused" true
    (Lease.on_ping t ~from:2 ~view:0 ~t0_ns:10 ~now_ns:20 = None);
  let self = Lease.create (lease_cfg ()) ~me:0 ~view:0 in
  Alcotest.(check bool) "own ping not self-granted" true
    (Lease.on_ping self ~from:0 ~view:0 ~t0_ns:10 ~now_ns:20 = None)

let test_lease_promise_exclusive () =
  (* A follower that promised node 0 must keep defecting candidates out
     (dropped Prepares, deferred Suspect verdicts) until the promise
     expires — this is what makes concurrent leases impossible. *)
  let t = Lease.create (lease_cfg ()) ~me:2 ~view:0 in
  let now = s_ns 0.1 in
  Alcotest.(check bool) "granted" true
    (Lease.on_ping t ~from:0 ~view:0 ~t0_ns:now ~now_ns:now <> None);
  let promised_until = now + s_ns 1.0 in
  Alcotest.(check bool) "other candidate blocked" true
    (Lease.promise_blocks t ~candidate:1 ~now_ns:(promised_until - 1));
  Alcotest.(check bool) "beneficiary never blocked" false
    (Lease.promise_blocks t ~candidate:0 ~now_ns:(promised_until - 1));
  Alcotest.(check bool) "promise expires" false
    (Lease.promise_blocks t ~candidate:1 ~now_ns:promised_until);
  (* While the promise to 0 is active the view-1 leader (node 1) gets
     no grant; after expiry it does. *)
  Lease.set_view t ~view:1;
  Alcotest.(check bool) "conflicting ping refused while promised" true
    (Lease.on_ping t ~from:1 ~view:1 ~t0_ns:(now + 10)
       ~now_ns:(promised_until - 1)
     = None);
  Alcotest.(check bool) "granted once the promise lapsed" true
    (Lease.on_ping t ~from:1 ~view:1 ~t0_ns:promised_until
       ~now_ns:promised_until
     <> None)

let test_lease_set_view_invalidates () =
  let leader = Lease.create (lease_cfg ()) ~me:0 ~view:0 in
  let t0 = s_ns 0.1 in
  ignore (Lease.make_ping leader ~now_ns:t0);
  Alcotest.(check bool) "held" true
    (Lease.on_grant leader ~from:1 ~view:0 ~t0_ns:t0 ~quorum:2);
  Lease.set_view leader ~view:1;
  Alcotest.(check bool) "view change drops the held lease" false
    (Lease.held leader ~now_ns:(t0 + 1));
  Alcotest.(check bool) "old-round grants void" false
    (Lease.on_grant leader ~from:2 ~view:0 ~t0_ns:t0 ~quorum:2);
  Alcotest.(check bool) "renewal due again in the new view" true
    (Lease.ping_due leader ~now_ns:(t0 + 1));
  Lease.set_view leader ~view:1;
  Alcotest.(check bool) "same view is a no-op" true
    (Lease.ping_due leader ~now_ns:(t0 + 1))

let test_lease_singleton_self_holds () =
  (* n = 1: the group is its own quorum, the round self-completes. *)
  let t = Lease.create (lease_cfg ~n:1 ()) ~me:0 ~view:0 in
  ignore (Lease.make_ping t ~now_ns:100);
  Alcotest.(check bool) "held immediately" true (Lease.held t ~now_ns:101);
  Alcotest.(check int) "renewal counted" 1 (Lease.renewals t)

let suite =
  suite
  @ [
      Alcotest.test_case "lease: config validation" `Quick
        test_lease_config_validate;
      Alcotest.test_case "lease: fresh lease pings immediately" `Quick
        test_lease_ping_due_fresh;
      Alcotest.test_case "lease: acquired on quorum, skew-padded expiry" `Quick
        test_lease_acquire_on_quorum;
      Alcotest.test_case "lease: grant round bookkeeping" `Quick
        test_lease_grant_bookkeeping;
      Alcotest.test_case "lease: ping refusals" `Quick test_lease_on_ping_refusals;
      Alcotest.test_case "lease: exclusive promise blocks rivals" `Quick
        test_lease_promise_exclusive;
      Alcotest.test_case "lease: view change invalidates" `Quick
        test_lease_set_view_invalidates;
      Alcotest.test_case "lease: singleton group self-holds" `Quick
        test_lease_singleton_self_holds;
    ]

(* NaN passes every [x <= 0.] range check, so it would reach
   [Mclock.ns_of_s] as a batch deadline or a timer period. *)
let test_config_rejects_non_finite () =
  let ok = Config.default ~n:3 in
  let cases =
    [ ("max_batch_delay_s", fun x -> { ok with Config.max_batch_delay_s = x });
      ("retransmit_interval_s", fun x -> { ok with retransmit_interval_s = x });
      ("fd_interval_s", fun x -> { ok with fd_interval_s = x });
      ("fd_timeout_s", fun x -> { ok with fd_timeout_s = x });
      ("catchup_interval_s", fun x -> { ok with catchup_interval_s = x });
      ("lease_duration_s",
       fun x -> { ok with lease_enabled = true; lease_duration_s = x });
      ("clock_skew_bound_s",
       fun x -> { ok with lease_enabled = true; clock_skew_bound_s = x }) ]
  in
  List.iter
    (fun (name, set) ->
       List.iter
         (fun x ->
            Alcotest.(check bool)
              (Printf.sprintf "%s = %h rejected" name x)
              true
              (Config.validate (set x) |> Result.is_error))
         [ Float.nan; Float.infinity; Float.neg_infinity ])
    cases

let test_batcher_idle_seal_stats () =
  let b = Batcher.create batcher_cfg ~src:0 in
  Alcotest.(check bool) "nothing open" true (Batcher.flush_idle b = None);
  ignore (Batcher.add b (mk_req 1 1 "a") ~now_ns:0L);
  ignore (Batcher.add b (mk_req 1 2 "b") ~now_ns:0L);
  (match Batcher.flush_idle b with
   | Some batch ->
     Alcotest.(check int) "both requests" 2 (Batch.request_count batch)
   | None -> Alcotest.fail "expected idle seal");
  let s = Batcher.seal_stats b in
  Alcotest.(check int) "idle seals" 1 s.Batcher.seals_idle;
  Alcotest.(check int) "size seals unchanged" 0 s.Batcher.seals_size;
  Alcotest.(check int) "delay seals unchanged" 0 s.Batcher.seals_delay;
  Alcotest.(check bool) "deadline cleared" true (Batcher.deadline_ns b = None)

let suite =
  suite
  @ [ Alcotest.test_case "config: non-finite periods rejected" `Quick
        test_config_rejects_non_finite;
      Alcotest.test_case "batcher: idle seal stats" `Quick
        test_batcher_idle_seal_stats ]
