(* Tests for msmr_storage: CRC32, the segmented WAL (including torn-write
   recovery), the typed replica store, Paxos recovery, and full live
   cluster restart-from-disk. *)

open Msmr_storage
module R = Msmr_runtime
module Value = Msmr_consensus.Value

let tmp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msmr-test-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmp_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* CRC32 *)

let test_crc32_vectors () =
  (* Standard test vector: "123456789" -> 0xCBF43926. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l
    (Crc32.digest_bytes (Bytes.of_string "123456789"));
  Alcotest.(check int32) "empty" 0l (Crc32.digest_bytes Bytes.empty)

let test_crc32_incremental () =
  let whole = Bytes.of_string "hello world" in
  let part1 = Crc32.digest whole ~pos:0 ~len:5 in
  let inc = Crc32.digest whole ~crc:part1 ~pos:5 ~len:6 in
  Alcotest.(check int32) "incremental = whole" (Crc32.digest_bytes whole) inc

(* ------------------------------------------------------------------ *)
(* WAL *)

let test_wal_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~dir ~sync:Wal.No_sync () in
  List.iter
    (fun s -> ignore (Wal.append wal (Bytes.of_string s)))
    [ "alpha"; "beta"; ""; "gamma" ];
  Alcotest.(check int) "appended" 4 (Wal.appended wal);
  Wal.close wal;
  let got = ref [] in
  let n = Wal.replay ~dir (fun b -> got := Bytes.to_string b :: !got) in
  Alcotest.(check int) "replayed" 4 n;
  Alcotest.(check (list string)) "order" [ "alpha"; "beta"; ""; "gamma" ]
    (List.rev !got)

let test_wal_append_after_reopen () =
  with_tmp_dir @@ fun dir ->
  let w1 = Wal.openw ~dir ~sync:Wal.No_sync () in
  ignore (Wal.append w1 (Bytes.of_string "one"));
  Wal.close w1;
  let w2 = Wal.openw ~dir ~sync:Wal.No_sync () in
  ignore (Wal.append w2 (Bytes.of_string "two"));
  Wal.close w2;
  let got = ref [] in
  ignore (Wal.replay ~dir (fun b -> got := Bytes.to_string b :: !got));
  Alcotest.(check (list string)) "both runs" [ "one"; "two" ] (List.rev !got)

let test_wal_truncates_torn_suffix () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~dir ~sync:Wal.No_sync () in
  ignore (Wal.append wal (Bytes.of_string "good-1"));
  ignore (Wal.append wal (Bytes.of_string "good-2"));
  Wal.close wal;
  (* Simulate a torn write: append half a record by hand. *)
  let path = Filename.concat dir "wal-000000.log" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  let junk = Bytes.create 6 in
  Bytes.set_int32_be junk 0 100l;
  ignore (Unix.write fd junk 0 6);
  Unix.close fd;
  let got = ref [] in
  let n = Wal.replay ~dir (fun b -> got := Bytes.to_string b :: !got) in
  Alcotest.(check int) "intact prefix" 2 n;
  (* The torn suffix is gone: appending and replaying again is clean. *)
  let w2 = Wal.openw ~dir ~sync:Wal.No_sync () in
  ignore (Wal.append w2 (Bytes.of_string "good-3"));
  Wal.close w2;
  let got2 = ref [] in
  ignore (Wal.replay ~dir (fun b -> got2 := Bytes.to_string b :: !got2));
  Alcotest.(check (list string)) "clean after truncate"
    [ "good-1"; "good-2"; "good-3" ]
    (List.rev !got2)

let test_wal_detects_corruption () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~dir ~sync:Wal.No_sync () in
  ignore (Wal.append wal (Bytes.of_string "aaaa"));
  ignore (Wal.append wal (Bytes.of_string "bbbb"));
  Wal.close wal;
  (* Flip a payload byte of the second record. *)
  let path = Filename.concat dir "wal-000000.log" in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (8 + 4 + 8 + 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let got = ref [] in
  let n = Wal.replay ~dir (fun b -> got := Bytes.to_string b :: !got) in
  Alcotest.(check int) "stops at corruption" 1 n;
  Alcotest.(check (list string)) "first survives" [ "aaaa" ] (List.rev !got)

let test_wal_segment_rotation () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~segment_bytes:64 ~dir ~sync:Wal.No_sync () in
  for i = 1 to 10 do
    ignore (Wal.append wal (Bytes.of_string (Printf.sprintf "record-%02d-xxxxxxxx" i)))
  done;
  Wal.close wal;
  let segments =
    Array.to_list (Sys.readdir dir)
    |> List.filter (String.starts_with ~prefix:"wal-")
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d segments" (List.length segments))
    true
    (List.length segments > 1);
  let got = ref 0 in
  ignore (Wal.replay ~dir (fun _ -> incr got));
  Alcotest.(check int) "all records across segments" 10 !got

(* ------------------------------------------------------------------ *)
(* Group commit: append_many, LSNs, crash at arbitrary points inside an
   unsynced group *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* [msmr_wal_sync_total] of the WAL in [dir]. *)
let wal_syncs dir =
  List.find_map
    (fun (s : Msmr_obs.Metrics.sample) ->
       if s.name = "msmr_wal_sync_total" && s.labels = [ ("dir", dir) ] then
         match s.value with Msmr_obs.Metrics.Counter_v n -> Some n | _ -> None
       else None)
    (Msmr_obs.Metrics.snapshot ())

let test_wal_append_many_group_sync () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~dir ~sync:Wal.Sync_every_write () in
  let lsn = Wal.append_many wal (List.map Bytes.of_string [ "a"; "bb"; "ccc" ]) in
  Alcotest.(check int) "lsn of last record" 3 lsn;
  (* The whole group became durable under the one policy-applied sync. *)
  Alcotest.(check int) "synced watermark" 3 (Wal.synced wal);
  Alcotest.(check (option int)) "one fsync for the group" (Some 1)
    (wal_syncs dir);
  Alcotest.(check int) "empty batch is a no-op" 3 (Wal.append_many wal []);
  let lsn2 = Wal.append wal (Bytes.of_string "d") in
  Alcotest.(check int) "appends keep counting" 4 lsn2;
  Wal.close wal;
  let got = ref [] in
  ignore (Wal.replay ~dir (fun b -> got := Bytes.to_string b :: !got));
  Alcotest.(check (list string)) "order" [ "a"; "bb"; "ccc"; "d" ]
    (List.rev !got)

(* A segment is fsynced before rotation closes it: the final sync only
   reaches the new segment's fd, so without that the records left behind
   in the old one would count as durable unsynced. Two 39-byte frames
   in 64-byte segments: the second starts a new segment. *)
let two_segment_records =
  List.map Bytes.of_string [ "record-1-xxxxxxxxxxxxxxxxxxxxxx";
                             "record-2-xxxxxxxxxxxxxxxxxxxxxx" ]

let test_wal_rotation_syncs_every_write () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~segment_bytes:64 ~dir ~sync:Wal.Sync_every_write () in
  Alcotest.(check int) "lsn" 2 (Wal.append_many wal two_segment_records);
  Alcotest.(check int) "synced watermark" 2 (Wal.synced wal);
  Alcotest.(check (option int)) "old segment synced at rotation, new at the end"
    (Some 2) (wal_syncs dir);
  Wal.close wal;
  Alcotest.(check int) "two segments" 2
    (Array.length (Sys.readdir dir))

let test_wal_rotation_syncs_periodic () =
  with_tmp_dir @@ fun dir ->
  let wal = Wal.openw ~segment_bytes:64 ~dir ~sync:Wal.Sync_periodic () in
  List.iter (fun r -> ignore (Wal.append wal r)) two_segment_records;
  Alcotest.(check (option int)) "rotation synced the old segment" (Some 1)
    (wal_syncs dir);
  Alcotest.(check int) "periodic sync" 2 (Wal.sync wal);
  Alcotest.(check (option int)) "then the new one" (Some 2) (wal_syncs dir);
  Wal.close wal

let test_wal_append_many_torn_boundary () =
  with_tmp_dir @@ fun dir ->
  let batch1 = List.init 4 (fun i -> Printf.sprintf "first-%d" i) in
  let batch2 = List.init 3 (fun i -> Printf.sprintf "second-%d" i) in
  let wal = Wal.openw ~dir ~sync:Wal.No_sync () in
  ignore (Wal.append_many wal (List.map Bytes.of_string batch1));
  Alcotest.(check int) "group sync watermark" 4 (Wal.sync wal);
  let seg = Filename.concat dir "wal-000000.log" in
  let synced_bytes = (Unix.stat seg).Unix.st_size in
  ignore (Wal.append_many wal (List.map Bytes.of_string batch2));
  Wal.close wal;
  let data = read_file seg in
  (* Crash property: the fsync covering batch1 completed, the one for
     batch2 did not, so the file may survive cut at ANY byte from the
     synced prefix on. Every cut must recover all of batch1 plus a clean
     prefix of batch2. *)
  for cut = synced_bytes to String.length data do
    let d2 = Filename.concat dir (Printf.sprintf "cut-%d" cut) in
    Unix.mkdir d2 0o755;
    write_file (Filename.concat d2 "wal-000000.log") (String.sub data 0 cut);
    let got = ref [] in
    ignore (Wal.replay ~dir:d2 (fun b -> got := Bytes.to_string b :: !got));
    let got = List.rev !got in
    let n = List.length got in
    if n < 4 then
      Alcotest.failf "cut %d lost synced records (%d survive)" cut n;
    Alcotest.(check (list string))
      (Printf.sprintf "cut %d is a clean prefix" cut)
      (batch1 @ List.filteri (fun i _ -> i < n - 4) batch2)
      got;
    rm_rf d2
  done

(* ------------------------------------------------------------------ *)
(* Replica store *)

let batch_value num =
  Value.Batch
    { bid = { src = 0; num };
      requests =
        [ { Msmr_wire.Client_msg.id = { client_id = 9; seq = num };
            payload = Bytes.of_string (string_of_int num) } ] }

let test_store_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let store = Replica_store.openw ~dir () in
  ignore (Replica_store.log_event store (Replica_store.View 3));
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 0; view = 3; value = batch_value 0 }));
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 1; view = 3; value = batch_value 1 }));
  ignore (Replica_store.log_event store (Replica_store.Decided { iid = 0; view = 3 }));
  ignore (Replica_store.sync store);
  Replica_store.close store;
  let r = Replica_store.recover ~dir () in
  Alcotest.(check int) "view" 3 r.r_view;
  Alcotest.(check int) "decided count" 1 (List.length r.r_decided);
  Alcotest.(check int) "accepted (undecided) count" 1 (List.length r.r_accepted);
  (match r.r_decided with
   | [ (0, 3, v) ] ->
     Alcotest.(check bool) "value survives" true (Value.equal v (batch_value 0))
   | _ -> Alcotest.fail "bad decided set");
  Alcotest.(check bool) "no snapshot" true (r.r_snapshot = None)

let test_store_higher_view_acceptance_wins () =
  with_tmp_dir @@ fun dir ->
  let store = Replica_store.openw ~dir () in
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 5; view = 1; value = batch_value 1 }));
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 5; view = 4; value = batch_value 2 }));
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 5; view = 2; value = batch_value 3 }));
  Replica_store.close store;
  let r = Replica_store.recover ~dir () in
  (match r.r_accepted with
   | [ (5, 4, v) ] ->
     Alcotest.(check bool) "view-4 value" true (Value.equal v (batch_value 2))
   | _ -> Alcotest.fail "expected single view-4 acceptance")

let test_store_checkpoint () =
  with_tmp_dir @@ fun dir ->
  let store = Replica_store.openw ~dir () in
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 0; view = 0; value = batch_value 0 }));
  ignore (Replica_store.log_event store (Replica_store.Decided { iid = 0; view = 0 }));
  Replica_store.checkpoint store ~next_iid:1 ~state:(Bytes.of_string "S1");
  (* Post-checkpoint traffic. *)
  ignore
    (Replica_store.log_event store
       (Replica_store.Accepted { iid = 1; view = 0; value = batch_value 1 }));
  ignore (Replica_store.log_event store (Replica_store.Decided { iid = 1; view = 0 }));
  Replica_store.close store;
  let r = Replica_store.recover ~dir () in
  (match r.r_snapshot with
   | Some (1, state) -> Alcotest.(check string) "state" "S1" (Bytes.to_string state)
   | _ -> Alcotest.fail "missing snapshot");
  Alcotest.(check int) "only post-checkpoint decided" 1 (List.length r.r_decided);
  (match r.r_decided with
   | [ (1, 0, _) ] -> ()
   | _ -> Alcotest.fail "expected instance 1")

let test_store_checkpoint_with_configs () =
  (* Membership history rides inside the checkpoint (DESIGN.md section
     17): recovery hands it back so the engine resumes in the right
     epoch, and pre-reconfiguration checkpoints still read as []. *)
  let module Membership = Msmr_consensus.Membership in
  with_tmp_dir @@ fun dir ->
  let m0 = Membership.make ~epoch:0 ~voters:[ 0; 1; 2 ] ~learners:[] in
  let m1 = Membership.make ~epoch:1 ~voters:[ 0; 1; 2 ] ~learners:[ 3 ] in
  let configs = [ (12, m1); (0, m0) ] in
  let store = Replica_store.openw ~dir () in
  Replica_store.checkpoint store ~next_iid:15 ~state:(Bytes.of_string "S9")
    ~configs;
  Replica_store.close store;
  let r = Replica_store.recover ~dir () in
  (match r.r_snapshot with
   | Some (15, state) ->
     Alcotest.(check string) "state intact" "S9" (Bytes.to_string state)
   | _ -> Alcotest.fail "missing snapshot");
  (match r.r_configs with
   | [ (12, m1'); (0, m0') ] ->
     Alcotest.(check bool) "epoch 1 entry" true (Membership.equal m1 m1');
     Alcotest.(check bool) "boot entry" true (Membership.equal m0 m0')
   | _ -> Alcotest.fail "membership history lost");
  (* Legacy shape: a checkpoint written without configs recovers []. *)
  with_tmp_dir @@ fun dir2 ->
  let store2 = Replica_store.openw ~dir:dir2 () in
  Replica_store.checkpoint store2 ~next_iid:1 ~state:(Bytes.of_string "S0");
  Replica_store.close store2;
  let r2 = Replica_store.recover ~dir:dir2 () in
  Alcotest.(check bool) "no configs in legacy checkpoint" true
    (r2.r_configs = [])

let test_store_empty_dir () =
  with_tmp_dir @@ fun dir ->
  let r = Replica_store.recover ~dir () in
  Alcotest.(check int) "view 0" 0 r.r_view;
  Alcotest.(check bool) "empty" true
    (r.r_accepted = [] && r.r_decided = [] && r.r_snapshot = None)

let test_store_log_batch_lsn () =
  with_tmp_dir @@ fun dir ->
  let store = Replica_store.openw ~sync:Wal.Sync_every_write ~dir () in
  Alcotest.(check int) "fresh store" 0 (Replica_store.lsn store);
  let l1 = Replica_store.log_event store (Replica_store.View 1) in
  Alcotest.(check int) "first lsn" 1 l1;
  let l2 =
    Replica_store.log_batch store
      (List.init 3 (fun i ->
           Replica_store.Accepted { iid = i; view = 1; value = batch_value i }))
  in
  Alcotest.(check int) "batch lsn" 4 l2;
  Alcotest.(check int) "durable under Sync_every_write" 4
    (Replica_store.durable_lsn store);
  Alcotest.(check int) "empty batch returns current lsn" 4
    (Replica_store.log_batch store []);
  Replica_store.close store

let test_store_crash_mid_group_commit () =
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  Unix.mkdir dir 0o755;
  let store = Replica_store.openw ~sync:Wal.Sync_periodic ~dir () in
  ignore (Replica_store.log_event store (Replica_store.View 1));
  ignore
    (Replica_store.log_batch store
       (List.init 4 (fun i ->
            Replica_store.Accepted { iid = i; view = 1; value = batch_value i })));
  (* The StableStorage thread's group fsync: everything so far is now
     durable, and (in the pipeline) the Accepted messages for iids 0-3
     are released to the wire. *)
  Alcotest.(check int) "watermark after group sync" 5 (Replica_store.sync store);
  let seg = Filename.concat dir "wal-000000.log" in
  let synced_bytes = (Unix.stat seg).Unix.st_size in
  (* A second group is appended but the crash lands before its fsync. *)
  ignore
    (Replica_store.log_batch store
       (List.init 3 (fun i ->
            Replica_store.Accepted
              { iid = 4 + i; view = 1; value = batch_value (4 + i) })));
  Alcotest.(check int) "second group not durable" 5
    (Replica_store.durable_lsn store);
  Replica_store.close store;
  let data = read_file seg in
  (* No promise gap: whatever suffix the crash destroys, recovery must
     retain every acceptance whose Accepted was released (iids 0-3), and
     anything extra must be a clean prefix of the second group. *)
  for cut = synced_bytes to String.length data do
    let d2 = Filename.concat root (Printf.sprintf "cut-%d" cut) in
    Unix.mkdir d2 0o755;
    write_file (Filename.concat d2 "wal-000000.log") (String.sub data 0 cut);
    let r = Replica_store.recover ~dir:d2 () in
    Alcotest.(check int) (Printf.sprintf "cut %d view" cut) 1 r.r_view;
    let iids = List.map (fun (iid, _, _) -> iid) r.r_accepted in
    List.iter
      (fun iid ->
         if not (List.mem iid iids) then
           Alcotest.failf "cut %d: released acceptance %d lost" cut iid;
         match List.find (fun (i, _, _) -> i = iid) r.r_accepted with
         | _, v, value ->
           Alcotest.(check int) (Printf.sprintf "cut %d iid %d view" cut iid) 1 v;
           Alcotest.(check bool)
             (Printf.sprintf "cut %d iid %d value" cut iid)
             true
             (Value.equal value (batch_value iid)))
      [ 0; 1; 2; 3 ];
    Alcotest.(check (list int))
      (Printf.sprintf "cut %d clean prefix" cut)
      (List.init (List.length iids) (fun i -> i))
      (List.sort compare iids);
    rm_rf d2
  done

(* ------------------------------------------------------------------ *)
(* StableStorage gating: no durability-dependent message reaches the
   wire before its LSN is durable *)

let await ?(timeout_s = 5.0) ~what pred =
  let deadline =
    Int64.add (Msmr_platform.Mclock.now_ns ())
      (Msmr_platform.Mclock.ns_of_s timeout_s)
  in
  let rec go () =
    if pred () then ()
    else if Int64.compare (Msmr_platform.Mclock.now_ns ()) deadline > 0 then
      Alcotest.failf "timeout waiting for %s" what
    else begin
      Msmr_platform.Mclock.sleep_s 0.005;
      go ()
    end
  in
  go ()

let test_stable_storage_gates_sends () =
  with_tmp_dir @@ fun dir ->
  let module Msg = Msmr_consensus.Msg in
  (* Slow timers: nothing but our injected messages drives the replica. *)
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      max_batch_delay_s = 1.0;
      retransmit_interval_s = 30.0;
      fd_interval_s = 30.0;
      fd_timeout_s = 120.0;
      catchup_interval_s = 30.0 }
  in
  let sent_mu = Mutex.create () in
  let sent = ref [] in
  let push b =
    Mutex.lock sent_mu;
    sent := b :: !sent;
    Mutex.unlock sent_mu
  in
  let sent_msgs () =
    Mutex.lock sent_mu;
    let l = List.rev !sent in
    Mutex.unlock sent_mu;
    List.map Msg.decode l
  in
  (* Each fake link keeps the handler the replica installs, so the test
     can deliver a frame from that peer. *)
  let handlers = [ (0, ref ignore); (2, ref ignore) ] in
  let links =
    List.map
      (fun (peer, handler) ->
         ( peer,
           { R.Transport.send = (fun b -> push b; true);
             on_receive = (fun f -> handler := f);
             close = (fun () -> handler := ignore) } ))
      handlers
  in
  (* Replica 1 is a follower of the view-0 leader (node 0). *)
  let replica =
    R.Replica.create ~cfg ~me:1 ~links
      ~durability:(R.Replica.Durable { dir; sync = Wal.Sync_every_write })
      ~service:(R.Service.accumulator ()) ()
  in
  Fun.protect ~finally:(fun () -> R.Replica.stop replica) @@ fun () ->
  R.Replica.stall_stable_storage replica true;
  !(List.assoc 0 handlers)
    (Msg.encode (Msg.Accept { view = 0; iid = 0; value = batch_value 0 }));
  (* The acceptance is processed but its LSN never becomes durable, so
     nothing durability-gated may appear on the wire. *)
  Msmr_platform.Mclock.sleep_s 0.2;
  let gated =
    List.filter
      (function
        | Msg.Accepted _ | Msg.Prepare_ok _ | Msg.Accept _ -> true
        | _ -> false)
      (sent_msgs ())
  in
  Alcotest.(check int) "nothing gated on the wire while stalled" 0
    (List.length gated);
  R.Replica.stall_stable_storage replica false;
  await ~what:"Accepted released after unstall" (fun () ->
      List.exists
        (function
          | Msg.Accepted { view = 0; iid = 0 } -> true
          | _ -> false)
        (sent_msgs ()));
  R.Replica.stop replica;
  (* The release was honest: the acceptance is on stable storage. *)
  let r = Replica_store.recover ~dir () in
  Alcotest.(check bool) "acceptance durable" true
    (List.exists
       (fun (iid, view, value) ->
          iid = 0 && view = 0 && Value.equal value (batch_value 0))
       r.r_accepted)

(* Back-pressure on the Hub: a replica whose DispatcherQueue is full
   drops the frames that find it full, counts them, and the sending
   thread never blocks (the Hub runs the receiver's handler on it). A
   stalled StableStorage stops replica 1's Protocol thread once the log
   queue is full; every Accept logs an acceptance and gates an
   Accepted, so the Protocol thread takes at most one log queue's worth
   (8192) of frames, the DispatcherQueue holds 4096 more, and the rest
   are dropped. *)
let test_full_dispatcher_drops () =
  with_tmp_dir @@ fun dir ->
  let module Msg = Msmr_consensus.Msg in
  let module Hub = R.Transport.Hub in
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      retransmit_interval_s = 30.0;
      fd_interval_s = 30.0;
      fd_timeout_s = 120.0;
      catchup_interval_s = 30.0 }
  in
  let hub = Hub.create ~n:3 () in
  let links = List.map (fun peer -> (peer, Hub.link hub ~me:1 ~peer)) [ 0; 2 ] in
  let replica =
    R.Replica.create ~cfg ~me:1 ~links
      ~durability:(R.Replica.Durable { dir; sync = Wal.Sync_every_write })
      ~service:(R.Service.accumulator ()) ()
  in
  Fun.protect ~finally:(fun () -> R.Replica.stop replica) @@ fun () ->
  R.Replica.stall_stable_storage replica true;
  let from_leader = Hub.link hub ~me:0 ~peer:1 in
  let frame =
    Msg.encode (Msg.Accept { view = 0; iid = 0; value = batch_value 0 })
  in
  let frames = 20_000 in
  let t0 = Msmr_platform.Mclock.now_ns () in
  for _ = 1 to frames do
    ignore (from_leader.send frame)
  done;
  let took_s =
    Msmr_platform.Mclock.s_of_ns
      (Int64.sub (Msmr_platform.Mclock.now_ns ()) t0)
  in
  let drops =
    List.fold_left
      (fun acc (s : Msmr_obs.Metrics.sample) ->
         match s.value with
         | Msmr_obs.Metrics.Gauge_v v
           when s.name = "msmr_replica_send_queue_drops"
                && List.assoc_opt "replica" s.labels = Some "1" ->
           acc +. v
         | _ -> acc)
      0. (Msmr_obs.Metrics.snapshot ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d sends returned in %.3f s (bound 2 s)" frames took_s)
    true (took_s < 2.0);
  let least = float_of_int (frames - 8192 - 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "dropped frames counted: %.0f in [%.0f, %d]" drops least
       frames)
    true
    (drops >= least && drops <= float_of_int frames)

(* ------------------------------------------------------------------ *)
(* Paxos recovery *)

let test_paxos_recover () =
  let cfg = Msmr_consensus.Config.default ~n:3 in
  let engine, actions =
    Msmr_consensus.Paxos.recover cfg ~me:1 ~view:4
      ~accepted:[ (2, 4, batch_value 2) ]
      ~decided:[ (0, 3, batch_value 0); (1, 4, batch_value 1) ]
      ~snapshot:None
  in
  (* Node 1 led view 4, so recovery immediately starts Phase 1 for the
     next view it leads (7 = 4 + 3). *)
  Alcotest.(check int) "re-preparing its next view" 7
    (Msmr_consensus.Paxos.view engine);
  Alcotest.(check bool) "not leader without phase 1" false
    (Msmr_consensus.Paxos.is_leader engine);
  Alcotest.(check bool) "sends Prepare" true
    (List.exists
       (function
         | Msmr_consensus.Paxos.Send { msg = Msmr_consensus.Msg.Prepare _; _ } ->
           true
         | _ -> false)
       actions);
  let executes =
    List.filter_map
      (function Msmr_consensus.Paxos.Execute { iid; _ } -> Some iid | _ -> None)
      actions
  in
  Alcotest.(check (list int)) "replays decided prefix" [ 0; 1 ] executes

let test_paxos_recover_with_snapshot () =
  let cfg = Msmr_consensus.Config.default ~n:3 in
  let engine, actions =
    Msmr_consensus.Paxos.recover cfg ~me:0 ~view:0
      ~accepted:[]
      ~decided:[ (10, 0, batch_value 10) ]
      ~snapshot:(Some (10, Bytes.of_string "snap"))
  in
  let tags =
    List.filter_map
      (function
        | Msmr_consensus.Paxos.Install_snapshot { next_iid; _ } ->
          Some (Printf.sprintf "snap@%d" next_iid)
        | Msmr_consensus.Paxos.Execute { iid; _ } ->
          Some (Printf.sprintf "exec@%d" iid)
        | _ -> None)
      actions
  in
  Alcotest.(check (list string)) "snapshot then tail" [ "snap@10"; "exec@10" ] tags;
  Alcotest.(check int) "log continues after" 11
    (Msmr_consensus.Log.first_undecided (Msmr_consensus.Paxos.log engine))

(* ------------------------------------------------------------------ *)
(* Live cluster restart from disk *)

let test_cluster_restart_from_disk () =
  with_tmp_dir @@ fun dir ->
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with
      max_batch_delay_s = 0.004;
      snapshot_every = 5;   (* exercise checkpoints too *)
      log_retain = 2 }
  in
  let durability me =
    R.Replica.Durable
      { dir = Filename.concat dir (Printf.sprintf "r%d" me);
        sync = Wal.Sync_periodic }
  in
  let run_phase expected_sum calls =
    let cluster =
      R.Replica.Cluster.create ~durability ~cfg
        ~service:(fun () -> R.Service.accumulator ())
        ()
    in
    Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
    @@ fun () ->
    ignore (R.Replica.Cluster.await_leader cluster);
    (* Fresh client id per phase (new session). *)
    let client =
      R.Client.create ~cluster ~client_id:(1 + List.length calls) ()
    in
    let final = ref "" in
    List.iter
      (fun v ->
         final := Bytes.to_string (R.Client.call client (Bytes.of_string v)))
      calls;
    Alcotest.(check string) "sum" expected_sum !final;
    (* Give the syncer a moment to flush the tail. *)
    Msmr_platform.Mclock.sleep_s 0.05
  in
  (* Phase 1: 12 requests summing to 78; snapshots fire along the way. *)
  run_phase "78" (List.init 12 (fun i -> string_of_int (i + 1)));
  (* Phase 2: a brand-new cluster recovers the state from disk. *)
  run_phase "88" [ "4"; "6" ];
  (* Phase 3: once more, proving repeated recovery works. *)
  run_phase "91" [ "3" ]

let test_cluster_restart_sync_every_write () =
  (* Same restart shape under Sync_every_write: every phase runs the
     full group-commit pipeline (log queue, burst fsync, gated release)
     and recovery must still converge. *)
  with_tmp_dir @@ fun dir ->
  let cfg =
    { (Msmr_consensus.Config.default ~n:3) with max_batch_delay_s = 0.004 }
  in
  let durability me =
    R.Replica.Durable
      { dir = Filename.concat dir (Printf.sprintf "r%d" me);
        sync = Wal.Sync_every_write }
  in
  let run_phase expected_sum ~client_id calls =
    let cluster =
      R.Replica.Cluster.create ~durability ~cfg
        ~service:(fun () -> R.Service.accumulator ())
        ()
    in
    Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
    @@ fun () ->
    ignore (R.Replica.Cluster.await_leader cluster);
    let client = R.Client.create ~cluster ~client_id () in
    let final = ref "" in
    List.iter
      (fun v ->
         final := Bytes.to_string (R.Client.call client (Bytes.of_string v)))
      calls;
    Alcotest.(check string) "sum" expected_sum !final;
    (* Let the StableStorage thread flush the trailing Decided records. *)
    Msmr_platform.Mclock.sleep_s 0.05
  in
  run_phase "15" ~client_id:1 [ "1"; "2"; "3"; "4"; "5" ];
  run_phase "35" ~client_id:2 [ "20" ]

let suite =
  [
    Alcotest.test_case "crc32: vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32: incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "wal: round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: reopen append" `Quick test_wal_append_after_reopen;
    Alcotest.test_case "wal: torn suffix truncated" `Quick test_wal_truncates_torn_suffix;
    Alcotest.test_case "wal: corruption detected" `Quick test_wal_detects_corruption;
    Alcotest.test_case "wal: segment rotation" `Quick test_wal_segment_rotation;
    Alcotest.test_case "wal: append_many group sync" `Quick test_wal_append_many_group_sync;
    Alcotest.test_case "wal: every-write rotation syncs old segment" `Quick
      test_wal_rotation_syncs_every_write;
    Alcotest.test_case "wal: periodic rotation syncs old segment" `Quick
      test_wal_rotation_syncs_periodic;
    Alcotest.test_case "wal: append_many torn boundary" `Quick test_wal_append_many_torn_boundary;
    Alcotest.test_case "store: round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store: higher view wins" `Quick test_store_higher_view_acceptance_wins;
    Alcotest.test_case "store: checkpoint" `Quick test_store_checkpoint;
    Alcotest.test_case "store: checkpoint with membership history" `Quick
      test_store_checkpoint_with_configs;
    Alcotest.test_case "store: empty dir" `Quick test_store_empty_dir;
    Alcotest.test_case "store: log_batch lsn" `Quick test_store_log_batch_lsn;
    Alcotest.test_case "store: crash mid group commit" `Quick
      test_store_crash_mid_group_commit;
    Alcotest.test_case "stable storage: gates sends until durable" `Quick
      test_stable_storage_gates_sends;
    Alcotest.test_case "live: a full DispatcherQueue drops and counts"
      `Quick test_full_dispatcher_drops;
    Alcotest.test_case "paxos: recover" `Quick test_paxos_recover;
    Alcotest.test_case "paxos: recover with snapshot" `Quick test_paxos_recover_with_snapshot;
    Alcotest.test_case "cluster: restart from disk" `Quick test_cluster_restart_from_disk;
    Alcotest.test_case "cluster: restart with Sync_every_write" `Quick
      test_cluster_restart_sync_every_write;
  ]

(* ------------------------------------------------------------------ *)
(* Live thread set *)

(* The classes of the running threads named [prefix]..., a numeric
   suffix folded to "*" ("r0/ClientIO-2" -> "ClientIO-*"), and their
   count. *)
let thread_set prefix =
  let names =
    List.filter_map
      (fun (name, _) ->
         let lp = String.length prefix in
         if String.starts_with ~prefix name then
           Some (String.sub name lp (String.length name - lp))
         else None)
      (Msmr_platform.Thread_state.snapshot_all ())
  in
  let cls n =
    match String.rindex_opt n '-' with
    | Some i
      when int_of_string_opt (String.sub n (i + 1) (String.length n - i - 1))
           <> None ->
      String.sub n 0 i ^ "-*"
    | Some _ | None -> n
  in
  (List.sort_uniq compare (List.map cls names), List.length names)

(* Threads register as they start: wait for the expected set. *)
let check_thread_set ~what prefix expected count =
  let deadline =
    Int64.add (Msmr_platform.Mclock.now_ns ())
      (Msmr_platform.Mclock.ns_of_s 2.0)
  in
  while
    thread_set prefix <> (expected, count)
    && Int64.compare (Msmr_platform.Mclock.now_ns ()) deadline < 0
  do
    Msmr_platform.Mclock.sleep_s 0.005
  done;
  let got, n = thread_set prefix in
  Alcotest.(check (list string)) (what ^ " thread classes") expected got;
  Alcotest.(check int) (what ^ " thread count") count n

(* On the Hub a replica has no ReplicaIO threads: the Protocol thread
   delivers each frame to the peer inline. *)
let live_classes = [ "ClientIO-*"; "Executor-*"; "Protocol"; "Replica" ]

let test_live_thread_set () =
  let cfg = Msmr_consensus.Config.default ~n:3 in
  let service () = R.Service.accumulator () in
  (* Ephemeral: 3 ClientIO + Protocol + Replica + 1 executor. *)
  (let cluster = R.Replica.Cluster.create ~cfg ~service () in
   Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
   @@ fun () ->
   ignore (R.Replica.Cluster.await_leader cluster);
   check_thread_set ~what:"ephemeral" "r0/" live_classes 6);
  (* Durable under Sync_periodic adds only StableStorage, which also
     runs the periodic fsync: the last-sync gauge keeps moving on an
     idle replica. *)
  with_tmp_dir (fun dir ->
      let rdir me = Filename.concat dir (Printf.sprintf "r%d" me) in
      let durability me =
        R.Replica.Durable { dir = rdir me; sync = Wal.Sync_periodic }
      in
      let cluster = R.Replica.Cluster.create ~durability ~cfg ~service () in
      Fun.protect ~finally:(fun () -> R.Replica.Cluster.stop cluster)
      @@ fun () ->
      ignore (R.Replica.Cluster.await_leader cluster);
      check_thread_set ~what:"durable" "r0/"
        (List.sort compare ("StableStorage" :: live_classes))
        7;
      let last_sync () =
        List.find_map
          (fun (s : Msmr_obs.Metrics.sample) ->
             match s.value with
             | Msmr_obs.Metrics.Gauge_v v
               when s.name = "msmr_wal_last_sync_ns"
                    && s.labels = [ ("dir", rdir 0) ] ->
               Some v
             | _ -> None)
          (Msmr_obs.Metrics.snapshot ())
      in
      (* The gauge appears with the first sync, 5 ms after start. *)
      await ~timeout_s:1.0 ~what:"first periodic sync" (fun () ->
          last_sync () <> None);
      let before = last_sync () in
      Msmr_platform.Mclock.sleep_s 0.05;
      let after = last_sync () in
      Alcotest.(check bool)
        (Printf.sprintf "idle sync gauge advances (%s -> %s)"
           (Option.fold ~none:"none" ~some:string_of_float before)
           (Option.fold ~none:"none" ~some:string_of_float after))
        true
        (match (before, after) with
         | Some b, Some a -> a > b
         | _ -> false));
  (* The monolithic baseline: one event loop, nothing else. *)
  let mono = Msmr_baseline.Mono_replica.Cluster.create ~cfg ~service () in
  Fun.protect ~finally:(fun () -> Msmr_baseline.Mono_replica.Cluster.stop mono)
  @@ fun () ->
  ignore (Msmr_baseline.Mono_replica.Cluster.await_leader mono);
  check_thread_set ~what:"mono" "mono-r0/" [ "EventLoop" ] 1

let suite =
  suite
  @ [ Alcotest.test_case "live: thread set and idle periodic sync" `Quick
        test_live_thread_set ]
