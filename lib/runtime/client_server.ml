module Worker = Msmr_platform.Worker

let log_src = Logs.Src.create "msmr.client_server" ~doc:"Client TCP front-end"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = {
  fd : Unix.file_descr;
  write_lock : Mutex.t;
  mutable alive : bool;
}

type t = {
  replica : Replica.t;  (* accepted requests go to its ClientIO pool *)
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

let sink_of conn raw =
  Mutex.lock conn.write_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.write_lock) @@ fun () ->
  if conn.alive then
    try Msmr_wire.Frame.write conn.fd raw
    with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false

(* Coalesced variant: a whole run of replies leaves in one write(2). *)
let batch_sink_of conn raws =
  Mutex.lock conn.write_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.write_lock) @@ fun () ->
  if conn.alive then
    try Msmr_wire.Frame.write_many conn.fd raws
    with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false

let conn_reader t conn =
  (* One closure pair per connection: the ClientIO drain groups replies by
     the sink's physical identity, so the identity must be stable across
     this connection's requests for coalescing to engage. The sinks block
     while the client is not reading, so only ClientIO calls them. *)
  let reply_to = sink_of conn in
  let reply_many = batch_sink_of conn in
  let continue = ref true in
  while !continue && conn.alive do
    match Msmr_wire.Frame.read conn.fd with
    | Some raw ->
      Replica.submit t.replica ~raw ~reply_to ~reply_many ~sink_blocks:true
    | None -> continue := false
    | exception (End_of_file | Unix.Unix_error _ | Msmr_wire.Frame.Oversized _)
      ->
      continue := false
  done;
  conn.alive <- false;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let accept_loop t _st =
  while Atomic.get t.running do
    match Unix.accept t.listener with
    | fd, _ ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Msmr_obs.Metrics.incr t.m_accepted;
      let conn = { fd; write_lock = Mutex.create (); alive = true } in
      Mutex.lock t.conns_lock;
      let id = t.next_conn in
      t.next_conn <- id + 1;
      Hashtbl.replace t.conns id conn;
      Mutex.unlock t.conns_lock;
      ignore
        (Worker.spawn ~name:(Printf.sprintf "conn-%d" id) (fun _ ->
             conn_reader t conn;
             Mutex.lock t.conns_lock;
             Hashtbl.remove t.conns id;
             Mutex.unlock t.conns_lock))
    | exception Unix.Unix_error _ -> ()  (* listener closed: loop exits *)
  done

let start replica ~port =
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
    List.iter
      (fun c ->
         c.alive <- false;
         try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    match t.acceptor with Some w -> Worker.join w | None -> ()
  end
