module Bq = Msmr_platform.Channel
module Worker = Msmr_platform.Worker
module Thread_state = Msmr_platform.Thread_state
module Mclock = Msmr_platform.Mclock
module Client_msg = Msmr_wire.Client_msg
module Transport = Msmr_runtime.Transport
module Reply_cache = Msmr_runtime.Reply_cache
open Msmr_consensus

type event =
  | Client_req of { raw : bytes; reply_to : bytes -> unit }
  | Peer_msg of { from : Types.node_id; msg : Msg.t }
  | Suspect

type rtx_entry = {
  r_dest : Types.node_id list;
  r_msg : Msg.t;
  r_cancelled : bool Atomic.t;
}

type t = {
  cfg : Config.t;
  me : Types.node_id;
  service : Msmr_runtime.Service.t;
  events : event Bq.t;                 (* THE queue: everything funnels here *)
  send_qs : Msg.t Bq.t array;
  rtx_dq : rtx_entry Msmr_platform.Delay_queue.t;
  links : (Types.node_id * Transport.link) list;
  fd : Failure_detector.t;
  view_now : int Atomic.t;
  am_leader : bool Atomic.t;
  executed : Msmr_platform.Rate_meter.Counter.t;
  running : bool Atomic.t;
  mutable threads : Worker.t list;
}

let me t = t.me
let is_leader t = Atomic.get t.am_leader
let executed_count t = Msmr_platform.Rate_meter.Counter.get t.executed

let submit t ~raw ~reply_to =
  try Bq.put t.events (Client_req { raw; reply_to }) with Bq.Closed -> ()

(* The single event loop: protocol + batching + execution + replies. *)
let event_loop t st =
  let engine = Paxos.create t.cfg ~me:t.me in
  let batcher = Batcher.create t.cfg ~src:t.me in
  let reply_cache = Reply_cache.create () in
  let rtx_map : (Paxos.rtx_key, rtx_entry) Hashtbl.t = Hashtbl.create 256 in
  (* client_id -> reply sink *)
  let routes : (int, bytes -> unit) Hashtbl.t = Hashtbl.create 256 in
  let send dest msg =
    List.iter
      (fun d ->
         if d <> t.me then
           match Bq.try_put t.send_qs.(d) msg with
           | true | false -> ()
           | exception Bq.Closed -> ())
      dest
  in
  let execute_value value =
    match value with
    | Value.Noop | Value.Reconfig _ -> ()
    | Value.Batch batch ->
      List.iter
        (fun (req : Client_msg.request) ->
           if not (Reply_cache.already_executed reply_cache req.id) then begin
             let result = t.service.execute req in
             Reply_cache.store reply_cache req.id result;
             Msmr_platform.Rate_meter.Counter.incr t.executed;
             match Hashtbl.find_opt routes req.id.client_id with
             | Some sink ->
               sink (Client_msg.reply_to_bytes { id = req.id; result })
             | None -> ()
           end)
        batch.Batch.requests
  in
  let apply actions =
    List.iter
      (fun action ->
         match action with
         | Paxos.Send { dest; msg } -> send dest msg
         | Paxos.Execute { value; _ } -> execute_value value
         | Paxos.Schedule_rtx { key; dest; msg } ->
           let entry =
             { r_dest = dest; r_msg = msg; r_cancelled = Atomic.make false }
           in
           Hashtbl.replace rtx_map key entry;
           let at_ns =
             Int64.add (Mclock.now_ns ())
               (Mclock.ns_of_s t.cfg.retransmit_interval_s)
           in
           (try
              ignore (Msmr_platform.Delay_queue.schedule t.rtx_dq ~at_ns entry)
            with Msmr_platform.Delay_queue.Closed -> ())
         | Paxos.Cancel_rtx key -> (
             match Hashtbl.find_opt rtx_map key with
             | Some entry ->
               Atomic.set entry.r_cancelled true;
               Hashtbl.remove rtx_map key
             | None -> ())
         | Paxos.View_changed { view; i_am_leader; _ } ->
           Atomic.set t.view_now view;
           Atomic.set t.am_leader i_am_leader;
           Failure_detector.set_view t.fd ~view ~now_ns:(Mclock.now_ns ())
         | Paxos.Install_snapshot { state; _ } -> t.service.restore state
         | Paxos.Membership_changed _ -> ())
      actions
  in
  apply (Paxos.bootstrap engine);
  let handle = function
    | Client_req { raw; reply_to } -> (
        match Client_msg.request_of_bytes raw with
        | req -> (
            match Reply_cache.lookup reply_cache req.id with
            | Reply_cache.Cached result ->
              reply_to (Client_msg.reply_to_bytes { id = req.id; result })
            | Reply_cache.Stale -> ()
            | Reply_cache.Fresh ->
              Hashtbl.replace routes req.id.client_id reply_to;
              (match Batcher.add batcher req ~now_ns:(Mclock.now_ns ()) with
               | Some batch -> apply (Paxos.propose engine batch)
               | None -> ()))
        | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _)
          ->
          ())
    | Peer_msg { from; msg } -> apply (Paxos.receive engine ~from msg)
    | Suspect -> apply (Paxos.suspect_leader engine)
  in
  let last_catchup = ref (Mclock.now_ns ()) in
  let catchup_ns = Mclock.ns_of_s t.cfg.catchup_interval_s in
  while Atomic.get t.running do
    (* Park until the next event, the open batch's deadline or the next
       catch-up tick, whichever comes first. *)
    let until = Int64.add !last_catchup catchup_ns in
    let until =
      match Batcher.deadline_ns batcher with
      | Some d when Int64.compare d until < 0 -> d
      | _ -> until
    in
    let timeout_s = Mclock.s_of_ns (Int64.sub until (Mclock.now_ns ())) in
    (match Bq.take_timeout ~st t.events ~timeout_s with
     | Some ev -> handle ev
     | None -> ()
     | exception Bq.Closed -> Atomic.set t.running false);
    (match Batcher.flush_due batcher ~now_ns:(Mclock.now_ns ()) with
     | Some batch -> apply (Paxos.propose engine batch)
     | None -> ());
    let now = Mclock.now_ns () in
    if Int64.sub now !last_catchup >= catchup_ns then begin
      last_catchup := now;
      apply (Paxos.tick_catchup engine)
    end
  done

let sender_loop t peer (link : Transport.link) st =
  let continue = ref true in
  while !continue do
    match Bq.take ~st t.send_qs.(peer) with
    | msg ->
      link.send_bytes (Msg.encode msg);
      Failure_detector.note_send t.fd ~dest:peer ~now_ns:(Mclock.now_ns ())
    | exception Bq.Closed -> continue := false
  done

let receiver_loop t peer (link : Transport.link) st =
  let continue = ref true in
  while !continue do
    match
      Thread_state.enter st Thread_state.Other (fun () -> link.recv_bytes ())
    with
    | None -> continue := false
    | Some raw -> (
        match Msg.decode raw with
        | msg ->
          Failure_detector.note_recv t.fd ~from:peer ~now_ns:(Mclock.now_ns ());
          (try Bq.put ~st t.events (Peer_msg { from = peer; msg })
           with Bq.Closed -> continue := false)
        | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _)
          ->
          ())
  done

let fd_loop t st =
  while Atomic.get t.running do
    let now = Mclock.now_ns () in
    List.iter
      (fun verdict ->
         match verdict with
         | Failure_detector.Heartbeat_to peers ->
           if Atomic.get t.am_leader then begin
             let msg =
               Msg.Heartbeat
                 { view = Atomic.get t.view_now; first_undecided = 0 }
             in
             List.iter (fun p -> ignore (Bq.try_put t.send_qs.(p) msg)) peers
           end
         | Failure_detector.Suspect _ -> (
             try Bq.put t.events Suspect with Bq.Closed -> ()))
      (Failure_detector.poll t.fd ~now_ns:now);
    Thread_state.enter st Thread_state.Other (fun () -> Mclock.sleep_s 0.01)
  done

let retransmitter_loop t st =
  let continue = ref true in
  while !continue do
    match Msmr_platform.Delay_queue.take ~st t.rtx_dq with
    | entry ->
      if not (Atomic.get entry.r_cancelled) then begin
        List.iter
          (fun d ->
             if d <> t.me then ignore (Bq.try_put t.send_qs.(d) entry.r_msg))
          entry.r_dest;
        let at_ns =
          Int64.add (Mclock.now_ns ())
            (Mclock.ns_of_s t.cfg.retransmit_interval_s)
        in
        try ignore (Msmr_platform.Delay_queue.schedule t.rtx_dq ~at_ns entry)
        with Msmr_platform.Delay_queue.Closed -> continue := false
      end
    | exception Msmr_platform.Delay_queue.Closed -> continue := false
  done

let create ~cfg ~me ~links ~service () =
  let t =
    { cfg; me; service;
      events = Bq.create ~kind:Bq.Mpmc ~capacity:8192;
      send_qs =
        Array.init cfg.Config.n (fun _ -> Bq.create ~kind:Bq.Mpmc ~capacity:4096);
      rtx_dq = Msmr_platform.Delay_queue.create ();
      links;
      fd = Failure_detector.create cfg ~me ~now_ns:(Mclock.now_ns ());
      view_now = Atomic.make 0;
      am_leader = Atomic.make false;
      executed = Msmr_platform.Rate_meter.Counter.create ();
      running = Atomic.make true;
      threads = [] }
  in
  let spawn name f =
    Worker.spawn ~name:(Printf.sprintf "mono-r%d/%s" me name) (fun st ->
        f t st)
  in
  let io =
    List.concat_map
      (fun (peer, link) ->
         [ Worker.spawn ~name:(Printf.sprintf "mono-r%d/Snd-%d" me peer)
             (fun st -> sender_loop t peer link st);
           Worker.spawn ~name:(Printf.sprintf "mono-r%d/Rcv-%d" me peer)
             (fun st -> receiver_loop t peer link st) ])
      links
  in
  t.threads <-
    [ spawn "EventLoop" event_loop;
      spawn "FailureDetector" fd_loop;
      spawn "Retransmitter" retransmitter_loop ]
    @ io;
  t

let stop t =
  if Atomic.exchange t.running false then begin
    Bq.close t.events;
    Array.iter Bq.close t.send_qs;
    Msmr_platform.Delay_queue.close t.rtx_dq;
    List.iter (fun (_, (l : Transport.link)) -> l.close ()) t.links;
    Worker.join_all t.threads
  end

module Cluster = struct
  type replica = t

  type t = {
    hub : Transport.Hub.t;
    replicas : replica array;
  }

  let create ~cfg ~service () =
    let n = cfg.Config.n in
    let hub = Transport.Hub.create ~n () in
    let replicas =
      Array.init n (fun me ->
          let links =
            List.filter_map
              (fun peer ->
                 if peer = me then None
                 else Some (peer, Transport.Hub.link hub ~me ~peer))
              (List.init n Fun.id)
          in
          create ~cfg ~me ~links ~service:(service ()) ())
    in
    { hub; replicas }

  let replicas t = t.replicas

  let await_leader ?(timeout_s = 5.0) t =
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
    let rec go () =
      match Array.find_opt is_leader t.replicas with
      | Some r -> r
      | None ->
        if Int64.compare (Mclock.now_ns ()) deadline > 0 then
          failwith "Mono_replica.Cluster.await_leader: timeout"
        else begin
          Mclock.sleep_s 0.005;
          go ()
        end
    in
    go ()

  let stop t =
    Array.iter stop t.replicas;
    Transport.Hub.close t.hub
end
