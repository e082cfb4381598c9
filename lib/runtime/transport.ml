module Bq = Msmr_platform.Channel
module Worker = Msmr_platform.Worker
module Thread_state = Msmr_platform.Thread_state

type link = {
  send : bytes -> bool;
  on_receive : (bytes -> unit) -> unit;
  close : unit -> unit;
}

let drop (_ : bytes) = ()

module Hub = struct
  (* One directed pair: its fault state and the handler the receiving
     endpoint installed for frames on it. *)
  type pipe = {
    deliver : (bytes -> unit) Atomic.t;
        (* [drop] until the receiver installs its handler, and again once
           it closes its endpoint *)
    mutable drop_rate : float;
    mutable severed : bool;        (* fault injection: link cut one-way *)
    rng : Random.State.t;
    rng_mu : Mutex.t;
        (* a link has two sending threads (Protocol and StableStorage),
           and [Random.State] is not safe to share between them *)
  }

  type t = {
    pipes : pipe array array;      (* pipes.(src).(dst) *)
    cut_nodes : bool array;
    sent : Msmr_platform.Rate_meter.Counter.t;
  }

  let create ~n () =
    let t =
      { pipes =
          Array.init n (fun src ->
              Array.init n (fun dst ->
                  { deliver = Atomic.make drop;
                    drop_rate = 0.;
                    severed = false;
                    rng = Random.State.make [| (src * 131) + dst |];
                    rng_mu = Mutex.create () }));
        cut_nodes = Array.make n false;
        sent = Msmr_platform.Rate_meter.Counter.create () }
    in
    (* Replace semantics: a later hub (fresh cluster) takes over the
       series. *)
    Msmr_obs.Metrics.gauge ~labels:[ ("mode", "live") ]
      "msmr_hub_frames_sent" (fun () ->
          float_of_int (Msmr_platform.Rate_meter.Counter.get t.sent));
    t

  let dropped p =
    p.drop_rate > 0.
    && Mutex.protect p.rng_mu (fun () -> Random.State.float p.rng 1.0)
       < p.drop_rate

  let link t ~me ~peer =
    if me = peer then invalid_arg "Hub.link: self link";
    let out = t.pipes.(me).(peer) and inc = t.pipes.(peer).(me) in
    { send =
        (fun b ->
           Msmr_platform.Rate_meter.Counter.incr t.sent;
           if not (t.cut_nodes.(me) || t.cut_nodes.(peer) || out.severed
                   || dropped out)
           then (Atomic.get out.deliver) b;
           true);
      on_receive = Atomic.set inc.deliver;
      close = (fun () -> Atomic.set inc.deliver drop) }

  let set_drop_rate t ~src ~dst rate = t.pipes.(src).(dst).drop_rate <- rate
  let cut t node = t.cut_nodes.(node) <- true
  let heal t node = t.cut_nodes.(node) <- false
  let sever t ~src ~dst = t.pipes.(src).(dst).severed <- true
  let heal_link t ~src ~dst = t.pipes.(src).(dst).severed <- false

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

  type conn = {
    fd : Unix.file_descr;
    dead : bool Atomic.t;     (* an I/O error or [close_conn] was seen *)
    closed : bool Atomic.t;   (* the descriptor was closed *)
  }

  let conn_of_fd fd =
    Lazy.force ignore_sigpipe;
    { fd; dead = Atomic.make false; closed = Atomic.make false }

  let write c frames =
    if not (Atomic.get c.dead) then
      try Msmr_wire.Frame.write_many c.fd frames
      with Unix.Unix_error _ -> Atomic.set c.dead true

  let read c =
    if Atomic.get c.dead then None
    else
      try Msmr_wire.Frame.read c.fd with
      | End_of_file | Unix.Unix_error _ ->
        Atomic.set c.dead true;
        None

  let close_conn c =
    Atomic.set c.dead true;
    if not (Atomic.exchange c.closed true) then begin
      (* [shutdown] first: unlike [close], it wakes a thread blocked in
         [read]/[write] on this fd (Linux semantics), which is what lets
         the reader thread of a closed link exit. *)
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end

  (* Frames the writer thread hands to one [write] at most: the bound
     keeps one pass from monopolising the socket when the queue is deep. *)
  let writer_burst = 32

  let pump ~sender ~receiver ~write ~read =
    let q = Bq.create ~name:"tcp_writer_queue" ~kind:Bq.Mpmc ~capacity:4096 in
    let deliver = Atomic.make drop and reader = ref None in
    let writer =
      Worker.spawn ~name:sender (fun st ->
          while true do
            let frames = Bq.take_batch ~st q ~max:writer_burst in
            Thread_state.enter st Thread_state.Other (fun () -> write frames)
          done)
    in
    let on_receive f =
      Atomic.set deliver f;
      (* The reader starts with the first handler: until then frames
         wait in the socket. *)
      if Option.is_none !reader then
        reader :=
          Some
            (Worker.spawn ~name:receiver (fun st ->
                 let rec loop () =
                   match Thread_state.enter st Thread_state.Other read with
                   | None -> ()
                   | Some b ->
                     (Atomic.get deliver) b;
                     loop ()
                 in
                 loop ()))
    in
    let link =
      { send =
          (fun b ->
             (* A full writer queue drops the frame; a closed one means
                shutdown, where frames drop like on a dead socket. *)
             try Bq.try_put q b with Bq.Closed -> true);
        on_receive;
        close = (fun () -> Atomic.set deliver drop) }
    in
    let stop () =
      Atomic.set deliver drop;
      Bq.close q;
      Worker.join writer;
      Option.iter Worker.join !reader
    in
    (link, stop)

  let link_of_fd fd =
    let c = conn_of_fd fd in
    let link, stop =
      pump ~sender:"tcp/Snd" ~receiver:"tcp/Rcv" ~write:(write c)
        ~read:(fun () -> read c)
    in
    { link with
      close =
        (fun () ->
           link.close ();
           close_conn c;
           stop ()) }

  let connect_link addr =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr
     with e ->
       Unix.close fd;
       raise e);
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    link_of_fd fd
end
