(* Standalone replica over TCP.

   Example 3-replica cluster on one machine:

     dune exec bin/msmr_replica.exe -- --id 0 \
       --node 127.0.0.1:4100 --node 127.0.0.1:4101 --node 127.0.0.1:4102 \
       --client-port 5100 &
     dune exec bin/msmr_replica.exe -- --id 1 ... --client-port 5101 &
     dune exec bin/msmr_replica.exe -- --id 2 ... --client-port 5102 &

   then drive it with bin/msmr_client. *)

let services =
  [ ("null", fun () -> Msmr_runtime.Service.null ());
    ("acc", Msmr_runtime.Service.accumulator);
    ("kv", Msmr_kv.Kv_service.make);
    ("lock", Msmr_kv.Lock_service.make) ]

let serve ~id ~nodes ~cfg ~client_port ~service_name ~executors ~verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let n = List.length nodes in
  let addrs = List.mapi (fun i a -> (i, a)) nodes in
  let service = List.assoc service_name services () in
  Printf.printf "replica %d/%d: establishing mesh...\n%!" id n;
  let mesh = Msmr_runtime.Tcp_mesh.create ~me:id ~addrs () in
  let links = Msmr_runtime.Tcp_mesh.links mesh in
  let replica =
    Msmr_runtime.Replica.create ~cfg ~me:id ~links ~service
      ~executor_threads:executors
      ~reconnects:(fun () -> Msmr_runtime.Tcp_mesh.reconnects mesh)
      ()
  in
  let server = Msmr_runtime.Client_server.start replica ~port:client_port in
  Printf.printf "replica %d up; clients on port %d; service %s\n%!" id
    (Msmr_runtime.Client_server.port server)
    service_name;
  (* Periodic status line until killed. *)
  let rec status last_exec =
    Unix.sleepf 5.0;
    let stats = Msmr_runtime.Replica.queue_stats replica in
    let exec = Msmr_runtime.Replica.executed_count replica in
    Printf.printf
      "[r%d] view=%d leader=%b executed=%d (+%d) reqq=%d window=%d \
       conns=%d reconnects=%d\n%!"
      id
      (Msmr_runtime.Replica.current_view replica)
      (Msmr_runtime.Replica.is_leader replica)
      exec (exec - last_exec) stats.request_queue stats.window_in_use
      (Msmr_runtime.Client_server.connections server)
      (Msmr_runtime.Tcp_mesh.reconnects mesh);
    status exec
  in
  status 0

(* Bad flags are usage errors, reported before the mesh: they should not
   wait for every peer to dial. *)
let run id nodes client_port service_name window batch_bytes batch_delay_ms
    executors verbose =
  let n = List.length nodes in
  let cfg =
    { (Msmr_consensus.Config.default ~n) with
      window;
      max_batch_bytes = batch_bytes;
      max_batch_delay_s = batch_delay_ms /. 1e3 }
  in
  if id < 0 || id >= n then
    `Error (false, Printf.sprintf "--id %d out of range: %d --node given" id n)
  else
    match Msmr_consensus.Config.validate cfg with
    | Error e -> `Error (false, "invalid configuration: " ^ e)
    | Ok () ->
      serve ~id ~nodes ~cfg ~client_port ~service_name ~executors ~verbose

open Cmdliner

let id =
  Arg.(required & opt (some int) None & info [ "id" ] ~doc:"Replica id (0-based).")

let nodes =
  Arg.(
    non_empty & opt_all Addr_arg.conv []
    & info [ "node" ] ~docv:"HOST:PORT"
        ~doc:"Replica address host:port, one per replica, in id order.")

let client_port =
  Arg.(
    required & opt (some int) None
    & info [ "client-port" ] ~doc:"TCP port for client connections.")

let service_name =
  Arg.(
    value
    & opt (enum (List.map (fun (s, _) -> (s, s)) services)) "kv"
    & info [ "service" ] ~doc:"Service: null, acc, kv or lock.")

(* WND and BSZ defaults do not depend on the group size. *)
let defaults = Msmr_consensus.Config.default ~n:1

let window =
  Arg.(
    value
    & opt int defaults.window
    & info [ "window" ] ~doc:"Max parallel ballots (WND).")

let batch_bytes =
  Arg.(
    value
    & opt int defaults.max_batch_bytes
    & info [ "batch-bytes" ]
        ~doc:
          "Max batch bytes (BSZ). The limit grows to 8 times the mean \
           request size when that is larger.")

let batch_delay_ms =
  Arg.(
    value & opt float 5.0
    & info [ "batch-delay" ] ~doc:"Max batch delay in milliseconds.")

let executors =
  Arg.(
    value & opt int 1
    & info [ "executors" ]
        ~doc:
          "Executor threads the ServiceManager schedules over; with 1 \
           (default) execution stays serial, as in the paper.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log to stderr.")

let cmd =
  Cmd.v
    (Cmd.info "msmr_replica" ~doc:"Run one replica of the replicated state machine")
    Term.(ret (const run $ id $ nodes $ client_port $ service_name $ window
          $ batch_bytes $ batch_delay_ms $ executors $ verbose))

let () = exit (Cmd.eval cmd)
