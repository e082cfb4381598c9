(* Closed-loop TCP load generator, the shape of the paper's workload:
   each client sends one request and waits for the reply before sending
   the next (Section VI). Each worker is a TCP `Msmr_runtime.Client`:
   pass every replica's client address and it follows leader changes
   automatically.

     dune exec bin/msmr_client.exe -- --connect 127.0.0.1:5100 \
       --connect 127.0.0.1:5101 --connect 127.0.0.1:5102 \
       --clients 32 --duration 10 --request-size 128 *)

module Histogram = Msmr_platform.Histogram

let run addrs clients duration request_size =
  let payload = Bytes.make (max 0 (request_size - 16)) 'x' in
  let completed = Atomic.make 0 in
  let retried = Atomic.make 0 in
  let hist = Histogram.create () in
  let stop_at = Unix.gettimeofday () +. duration in
  (* Unique client ids per run so restarted generators are new sessions. *)
  let base = (Unix.getpid () land 0xffff) * 1000 in
  let workers =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
             let c =
               Msmr_runtime.Client.connect ~addrs ~client_id:(base + i) ()
             in
             Fun.protect
               ~finally:(fun () -> Msmr_runtime.Client.close c)
               (fun () ->
                  try
                    while Unix.gettimeofday () < stop_at do
                      let t0 = Unix.gettimeofday () in
                      ignore (Msmr_runtime.Client.call c payload);
                      Histogram.record hist (Unix.gettimeofday () -. t0);
                      ignore (Atomic.fetch_and_add completed 1)
                    done;
                    ignore
                      (Atomic.fetch_and_add retried
                         (Msmr_runtime.Client.retries c))
                  with Failure _ -> ()))
          ())
  in
  List.iter Thread.join workers;
  let total = Atomic.get completed in
  Printf.printf "clients=%d duration=%.1fs requests=%d throughput=%.0f req/s retries=%d\n"
    clients duration total
    (float_of_int total /. duration)
    (Atomic.get retried);
  Format.printf "latency: %a@." Histogram.pp_summary hist

open Cmdliner

let connect =
  Arg.(
    non_empty & opt_all Addr_arg.conv []
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Replica client address host:port (repeat for failover).")

let clients =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Concurrent closed-loop clients.")

let duration =
  Arg.(value & opt float 10. & info [ "duration" ] ~doc:"Run length in seconds.")

let request_size =
  Arg.(value & opt int 128 & info [ "request-size" ] ~doc:"Request wire size in bytes.")

let cmd =
  Cmd.v
    (Cmd.info "msmr_client" ~doc:"Closed-loop load generator")
    Term.(const run $ connect $ clients $ duration $ request_size)

let () = exit (Cmd.eval cmd)
