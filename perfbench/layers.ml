(* Single-thread replay of the workload's own ops through each layer's
   public functions, timed from the benchmark's code. These give the
   per-call costs ([*_us]) and the message count per Paxos instance
   that the live run cannot attribute to one layer by itself. *)

module P = Msmr_platform
module C = Msmr_consensus
module R = Msmr_runtime
module Cm = Msmr_wire.Client_msg
module Codec = Msmr_wire.Codec
module Trace = Msmr_obs.Trace
module W = Workload

let replay_ops = 20_000
let repeats = 5

(* Median over [repeats] runs of [f], in µs per item; each run is one
   span on [track]. [f] returns how many items it processed. *)
let time_per_item ?track name f =
  let runs =
    List.init repeats (fun _ ->
        let t0 = P.Mclock.now_ns () in
        let items = f () in
        let dt = Int64.sub (P.Mclock.now_ns ()) t0 in
        Option.iter
          (fun tr ->
             Trace.complete tr ~cat:"Replay" ~name ~ts_ns:t0 ~dur_ns:dt ())
          track;
        Int64.to_float dt /. 1e3 /. float_of_int (max 1 items))
  in
  Gen.median runs

let requests w inputs =
  Array.init replay_ops (fun i ->
      let op = inputs.W.ops.(i land (W.stream_len - 1)) in
      { Cm.id = { client_id = 1 + (i land 255); seq = 1 + (i lsr 8) };
        payload = W.payload w inputs op ~i ~read:op.read })

let wire ?track w inputs =
  let reqs = requests w inputs in
  let raws = Array.map Cm.request_to_bytes reqs in
  let result =
    match w.W.kind with
    | Kv_zipf_rw -> Msmr_kv.Kv_service.encode_reply Ok_unit
    | Null_hub -> Bytes.make 8 '\x00'
  in
  let decode_us =
    time_per_item ?track "Client_msg.request_of_bytes" (fun () ->
        Array.iter (fun raw -> ignore (Cm.request_of_bytes raw)) raws;
        replay_ops)
  in
  let encode_us =
    time_per_item ?track "Client_msg.reply_to_bytes" (fun () ->
        Array.iter
          (fun (r : Cm.request) ->
             ignore (Cm.reply_to_bytes { id = r.id; result }))
          reqs;
        replay_ops)
  in
  let cache_us =
    time_per_item ?track "Reply_cache.lookup+store" (fun () ->
        let rc = R.Reply_cache.create () in
        Array.iter
          (fun (r : Cm.request) ->
             match R.Reply_cache.lookup rc r.id with
             | Fresh -> R.Reply_cache.store rc r.id result
             | Cached _ | Stale -> ())
          reqs;
        replay_ops)
  in
  (reqs, decode_us, encode_us, cache_us)

(* The batches the Batcher seals for the op stream arriving at the
   light rate, and the cost of [add] + [flush_due] per op. *)
let batcher ?track cfg w reqs =
  let step = Int64.of_float (1e9 /. w.W.light_rate) in
  let sealed = ref [] in
  let add_us =
    time_per_item ?track "Batcher.add+flush_due" (fun () ->
        let b = C.Batcher.create cfg ~src:0 in
        let out = ref [] in
        Array.iteri
          (fun i r ->
             let now_ns = Int64.mul (Int64.of_int i) step in
             (match C.Batcher.add b r ~now_ns with
              | Some batch -> out := batch :: !out
              | None -> ());
             match C.Batcher.flush_due b ~now_ns with
             | Some batch -> out := batch :: !out
             | None -> ())
          reqs;
        Option.iter (fun batch -> out := batch :: !out)
          (C.Batcher.force_flush b);
        sealed := List.rev !out;
        Array.length reqs)
  in
  (!sealed, add_us)

(* Three in-memory engines; node 0 proposes every batch, messages are
   delivered synchronously in FIFO order. Returns µs per decided
   instance and messages per decided instance. *)
let paxos ?track cfg batches =
  let msgs = ref 0 and decided = ref 0 in
  let run () =
    msgs := 0;
    decided := 0;
    let n = cfg.C.Config.n in
    let engines = Array.init n (fun me -> C.Paxos.create cfg ~me) in
    let q = Queue.create () in
    let act from = function
      | C.Paxos.Send { dest; msg } ->
        List.iter (fun d -> incr msgs; Queue.push (from, d, msg) q) dest
      | Execute _ -> if from = 0 then incr decided
      | Schedule_rtx _ | Cancel_rtx _ | View_changed _ | Install_snapshot _
      | Membership_changed _ -> ()
    in
    let deliver () =
      while not (Queue.is_empty q) do
        let from, dst, msg = Queue.pop q in
        List.iter (act dst) (C.Paxos.receive engines.(dst) ~from msg)
      done
    in
    Array.iteri (fun i e -> List.iter (act i) (C.Paxos.bootstrap e)) engines;
    deliver ();
    msgs := 0;
    List.iter
      (fun b ->
         if not (C.Paxos.can_propose engines.(0)) then deliver ();
         List.iter (act 0) (C.Paxos.propose engines.(0) b))
      batches;
    deliver ();
    !decided
  in
  let us = time_per_item ?track "Paxos.propose+receive" run in
  let per = if !decided = 0 then 0. else float_of_int !msgs /. float_of_int !decided in
  (us, per)

(* One group commit per sealed batch: [append_many] of the encoded
   value, then [sync]. Capped by count and time: fsync cost depends on
   the disk. *)
let wal ?track ~dir batches =
  let encoded =
    List.map
      (fun b ->
         let wr = Codec.W.create () in
         C.Value.encode wr (C.Value.Batch b);
         Codec.W.contents wr)
      batches
  in
  let max_groups = 100 in
  time_per_item ?track "Wal.append_many+sync" (fun () ->
      let sub = Filename.concat dir "replay-wal" in
      let wal = Msmr_storage.Wal.openw ~dir:sub ~sync:Sync_every_write () in
      let deadline = Int64.add (P.Mclock.now_ns ()) 400_000_000L in
      let rec go n = function
        | [] -> n
        | _ when n >= max_groups -> n
        | _ when Int64.compare (P.Mclock.now_ns ()) deadline > 0 -> n
        | e :: rest ->
          ignore (Msmr_storage.Wal.append_many wal [ e ]);
          ignore (Msmr_storage.Wal.sync wal);
          go (n + 1) rest
      in
      let n = go 0 encoded in
      Msmr_storage.Wal.close wal;
      Msmr_storage.Wal.reset ~dir:sub;
      n)

let kv_execute ?track reqs =
  time_per_item ?track "Kv_service.execute" (fun () ->
      let svc = Msmr_kv.Kv_service.make () in
      Array.iter (fun r -> ignore (svc.R.Service.execute r)) reqs;
      Array.length reqs)

(* Every replay metric, by name; layers the workload does not use
   report 0. *)
let run ?track cfg w inputs ~dir =
  let reqs, decode_us, encode_us, cache_us = wire ?track w inputs in
  let batches, add_us = batcher ?track cfg w reqs in
  let instance_us, msgs_per_instance = paxos ?track cfg batches in
  let wal_us = wal ?track ~dir batches in
  let kv_us = if W.is_kv w then kv_execute ?track reqs else 0. in
  [ ("wire.request_decode_us", decode_us);
    ("wire.reply_encode_us", encode_us);
    ("reply_cache.lookup_store_us", cache_us);
    ("batcher.add_us", add_us);
    ("paxos.instance_us", instance_us);
    ("paxos.msgs_per_instance", msgs_per_instance);
    ("wal.append_sync_us", wal_us);
    ("kv_service.execute_us", kv_us) ]
