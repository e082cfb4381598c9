let log_src = Logs.Src.create "msmr.worker" ~doc:"Worker threads"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  name : string;
  thread : Thread.t;
  failed : exn option Atomic.t;
}

let spawn ~name body =
  let failed = Atomic.make None in
  let thread =
    Thread.create
      (fun () ->
         let st = Thread_state.create ~name in
         (try body st with
          | Channel.Closed | Delay_queue.Closed ->
            (* Normal shutdown path: the stage's input queue was closed. *)
            ()
          | exn ->
            Atomic.set failed (Some exn);
            Log.err (fun m ->
                m "worker %s died: %s" name (Printexc.to_string exn)));
         Thread_state.unregister st)
      ()
  in
  { name; thread; failed }

let name t = t.name
let join t = Thread.join t.thread
let failure t = Atomic.get t.failed
let join_all ts = List.iter join ts
