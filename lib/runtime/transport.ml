module Bq = Msmr_platform.Channel

type link = {
  send_bytes : bytes -> unit;
  send_many : bytes list -> unit;
      (* coalesced send: one syscall for the whole run where the
         transport supports it (TCP uses Frame.write_many) *)
  recv_bytes : unit -> bytes option;
  close : unit -> unit;
}

module Hub = struct
  (* A pipe has one sender thread and one reader (ReplicaIO's), so its
     queue is SPSC; [rng] relies on the single sender too. *)
  type pipe = {
    mutable queue : bytes Bq.t;
        (* replaced wholesale by [renew] when the destination replica
           restarts — senders read the field per call, so they pick up
           the fresh queue; a reader blocked on the old (closed) queue
           wakes with [Closed] and exits *)
    mutable drop_rate : float;
    mutable severed : bool;        (* fault injection: link cut one-way *)
    rng : Random.State.t;
  }

  type t = {
    n : int;
    capacity : int;
    pipes : pipe array array;      (* pipes.(src).(dst) *)
    cut_nodes : bool array;
    sent : Msmr_platform.Rate_meter.Counter.t;
  }

  let create ?(capacity = 4096) ~n () =
    let t =
      { n;
        capacity;
        pipes =
          Array.init n (fun src ->
              Array.init n (fun dst ->
                  { queue = Bq.create ~name:"hub_pipe" ~kind:Bq.Spsc ~capacity;
                    drop_rate = 0.;
                    severed = false;
                    rng = Random.State.make [| (src * 131) + dst |] }));
        cut_nodes = Array.make n false;
        sent = Msmr_platform.Rate_meter.Counter.create () }
    in
    (* Replace semantics: a later hub (fresh cluster) takes over the
       series. *)
    Msmr_obs.Metrics.gauge ~labels:[ ("mode", "live") ]
      "msmr_hub_frames_sent" (fun () ->
          float_of_int (Msmr_platform.Rate_meter.Counter.get t.sent));
    t

  let link t ~me ~peer =
    if me = peer then invalid_arg "Hub.link: self link";
    let out = t.pipes.(me).(peer) and inc = t.pipes.(peer).(me) in
    let send_bytes b =
      Msmr_platform.Rate_meter.Counter.incr t.sent;
      if t.cut_nodes.(me) || t.cut_nodes.(peer) || out.severed then ()
      else if out.drop_rate > 0.
              && Random.State.float out.rng 1.0 < out.drop_rate then ()
      else
        (* A closed queue means shutdown: drop silently like a broken
           TCP connection would. *)
        try Bq.put out.queue b with Bq.Closed -> ()
    in
    { send_bytes;
      send_many = (fun bs -> List.iter send_bytes bs);
      recv_bytes =
        (fun () ->
           (* A cut only blocks new sends; frames already queued were "in
              flight" and still arrive. *)
           match Bq.take inc.queue with
           | b -> Some b
           | exception Bq.Closed -> None);
      close = (fun () -> Bq.close inc.queue) }

  let set_drop_rate t ~src ~dst rate = t.pipes.(src).(dst).drop_rate <- rate
  let cut t node = t.cut_nodes.(node) <- true
  let heal t node = t.cut_nodes.(node) <- false
  let sever t ~src ~dst = t.pipes.(src).(dst).severed <- true
  let heal_link t ~src ~dst = t.pipes.(src).(dst).severed <- false

  (* Give a restarting replica fresh incoming queues: the dying replica
     closed pipes.(p).(node) (its inbound side), which peers see only as
     silently-dropped sends. Only the inbound direction is replaced — a
     peer's reader may be parked inside [Bq.take] on pipes.(node).(p) and
     would never observe a swap. *)
  let renew t node =
    for p = 0 to t.n - 1 do
      if p <> node then
        t.pipes.(p).(node).queue <-
          Bq.create ~name:"hub_pipe" ~kind:Bq.Spsc ~capacity:t.capacity
    done

  let close t =
    Array.iter (fun row -> Array.iter (fun p -> Bq.close p.queue) row) t.pipes

  let frames_sent t = Msmr_platform.Rate_meter.Counter.get t.sent
end

module Tcp = struct
  (* A write to a peer-closed or shut-down socket must surface as EPIPE,
     not kill the process. Done once, on first TCP use. *)
  let ignore_sigpipe =
    lazy
      (if not Sys.win32 then
         try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ | Sys_error _ -> ())

  let link_of_fd fd =
    Lazy.force ignore_sigpipe;
    let closed = Atomic.make false in
    { send_bytes =
        (fun b ->
           if not (Atomic.get closed) then
             try Msmr_wire.Frame.write fd b
             with Unix.Unix_error _ -> Atomic.set closed true);
      send_many =
        (fun bs ->
           if not (Atomic.get closed) then
             try Msmr_wire.Frame.write_many fd bs
             with Unix.Unix_error _ -> Atomic.set closed true);
      recv_bytes =
        (fun () ->
           if Atomic.get closed then None
           else
             try Msmr_wire.Frame.read fd with
             | End_of_file | Unix.Unix_error _ ->
               Atomic.set closed true;
               None);
      close =
        (fun () ->
           if not (Atomic.exchange closed true) then begin
             (* [shutdown] first: unlike [close], it wakes a thread
                blocked in [read]/[write] on this fd (Linux semantics),
                which is what lets Replica.stop join its ReplicaIO
                threads. *)
             (try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ());
             try Unix.close fd with Unix.Unix_error _ -> ()
           end) }

  let connect_link addr =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr
     with e ->
       Unix.close fd;
       raise e);
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    link_of_fd fd
end
