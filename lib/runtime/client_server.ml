module Bq = Msmr_platform.Channel
module Worker = Msmr_platform.Worker
module Frame = Msmr_wire.Frame

let log_src = Logs.Src.create "msmr.client_server" ~doc:"Client TCP front-end"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = {
  id : int;
  fd : Unix.file_descr;
  outbox : bytes Bq.t;  (* replies for the writer thread *)
  fd_lock : Mutex.t;
  mutable fd_open : bool;  (* under [fd_lock]: [fd] not yet closed *)
}

type t = {
  replica : Replica.t;  (* accepted requests go to its [submit] *)
  listener : Unix.file_descr;
  bound_port : int;
  conns : (int, conn) Hashtbl.t;     (* keyed by a connection counter *)
  conns_lock : Mutex.t;
  mutable next_conn : int;
  running : bool Atomic.t;
  mutable acceptor : Worker.t option;
  m_labels : Msmr_obs.Metrics.labels;
  m_accepted : Msmr_obs.Metrics.counter;
}

(* Replies a connection may hold unwritten. Past it the client has
   stopped reading, and its connection is shut down. *)
let outbox_capacity = 256

(* Replies the writer hands to one [write(2)] at most. *)
let writer_burst = 32

(* Shut the socket down, which wakes the connection's reader and writer
   out of a blocked read or write. Skipped once [fd] is closed: the
   kernel may have given its number to another connection. *)
let shut conn =
  Mutex.lock conn.fd_lock;
  if conn.fd_open then (
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock conn.fd_lock

(* The connection's reply sink: any replica thread may call it, so it
   never waits on the client. *)
let sink conn raw =
  match Bq.try_put conn.outbox raw with
  | true -> ()
  | false ->
    Log.info (fun m ->
        m "connection %d: client stopped reading, closing it" conn.id);
    shut conn
  | exception Bq.Closed -> ()

(* Coalesces whatever replies are queued into one write. A failed write
   shuts the connection down, which ends the reader too. *)
let conn_writer conn st =
  try
    while true do
      Frame.write_many conn.fd (Bq.take_batch ~st conn.outbox ~max:writer_burst)
    done
  with Bq.Closed | Unix.Unix_error _ | Sys_error _ -> shut conn

(* Feeds request frames to the replica until EOF, an I/O error or a
   failed [submit] (a stopped replica), then closes the connection once
   its writer has finished with the descriptor. [submit] blocking on a
   full RequestQueue stops this thread reading the socket: the
   back-pressure reaches the client through TCP. *)
let conn_reader t conn writer =
  let reply_to = sink conn in
  let rec loop () =
    match Frame.read conn.fd with
    | Some raw -> (
        match Replica.submit t.replica ~raw ~reply_to with
        | () -> loop ()
        | exception e ->
          Log.info (fun m ->
              m "connection %d: submit failed (%s), closing it" conn.id
                (Printexc.to_string e)))
    | None -> ()
    | exception (End_of_file | Unix.Unix_error _ | Frame.Oversized _) -> ()
  in
  loop ();
  Bq.close conn.outbox;
  shut conn;
  Worker.join writer;
  Mutex.lock conn.fd_lock;
  conn.fd_open <- false;
  Mutex.unlock conn.fd_lock;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let accept_loop t _st =
  while Atomic.get t.running do
    match Unix.accept t.listener with
    | fd, _ ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Msmr_obs.Metrics.incr t.m_accepted;
      Mutex.lock t.conns_lock;
      let id = t.next_conn in
      t.next_conn <- id + 1;
      let conn =
        { id; fd;
          outbox =
            Bq.create ~name:"client_outbox" ~kind:Bq.Mpmc
              ~capacity:outbox_capacity;
          fd_lock = Mutex.create (); fd_open = true }
      in
      Hashtbl.replace t.conns id conn;
      Mutex.unlock t.conns_lock;
      let writer =
        Worker.spawn ~name:(Printf.sprintf "conn-%d-writer" id)
          (conn_writer conn)
      in
      ignore
        (Worker.spawn ~name:(Printf.sprintf "conn-%d" id) (fun _ ->
             conn_reader t conn writer;
             Mutex.lock t.conns_lock;
             Hashtbl.remove t.conns id;
             Mutex.unlock t.conns_lock))
    | exception Unix.Unix_error _ -> ()  (* listener closed: loop exits *)
  done

let start replica ~port =
  (* A write to a client that has gone must surface as EPIPE. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen listener 128;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let m_labels =
    [ ("mode", "live"); ("replica", string_of_int (Replica.me replica)) ]
  in
  let t =
    { replica; listener; bound_port; conns = Hashtbl.create 64;
      conns_lock = Mutex.create (); next_conn = 0;
      running = Atomic.make true; acceptor = None;
      m_labels;
      m_accepted =
        Msmr_obs.Metrics.counter ~labels:m_labels
          "msmr_client_server_accepted_total" }
  in
  Msmr_obs.Metrics.gauge ~labels:m_labels "msmr_client_server_connections"
    (fun () ->
       Mutex.lock t.conns_lock;
       let n = Hashtbl.length t.conns in
       Mutex.unlock t.conns_lock;
       float_of_int n);
  t.acceptor <- Some (Worker.spawn ~name:"ClientAcceptor" (accept_loop t));
  Log.info (fun m -> m "client server listening on port %d" bound_port);
  t

let port t = t.bound_port

let connections t =
  Mutex.lock t.conns_lock;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conns_lock;
  n

let stop t =
  if Atomic.exchange t.running false then begin
    List.iter
      (fun name -> Msmr_obs.Metrics.remove ~labels:t.m_labels name)
      [ "msmr_client_server_accepted_total"; "msmr_client_server_connections" ];
    (* A thread blocked in [Unix.accept] is not reliably woken by closing
       the listener; poke it with a throw-away connection first. *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, t.bound_port))
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    Mutex.lock t.conns_lock;
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    Mutex.unlock t.conns_lock;
    List.iter shut conns;
    match t.acceptor with Some w -> Worker.join w | None -> ()
  end
