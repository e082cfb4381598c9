(* Single-thread load generator over [Replica.submit].

   A pool of client sessions, each with at most one outstanding op:
   the reply cache assumes a sequential client, so a session only gets
   its next op after the previous one completed. The generator never
   spins — the whole cluster shares one OCaml domain lock with it — it
   either sleeps until the next op is due (open loop) or blocks until a
   reply arrives (closed loop). Replies are timestamped on the replica
   thread that delivers them and handed over through a mutex-guarded
   queue. *)

module P = Msmr_platform
module R = Msmr_runtime
module Cm = Msmr_wire.Client_msg
module Kv = Msmr_kv.Kv_service
module Trace = Msmr_obs.Trace
module W = Workload

(* Growable float buffer (latency samples in ms). *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array; nan when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now = P.Mclock.now_ns
let ms_of_ns d = Int64.to_float d /. 1e6

type session = {
  idx : int;
  cid : int;
  mutable seq : int;
  mutable busy : bool;
  mutable dead : bool;  (* timed out: never reused, late replies ignored *)
  mutable read : bool;
  mutable key : int;
  mutable due_ns : int64;
  mutable sent_ns : int64;
  mutable sink : bytes -> unit;
  mutable track : Trace.track option;
}

(* Where the current phase's completions are recorded. *)
type recorder = {
  write_ms : Fbuf.t;
  read_ms : Fbuf.t;
  mutable done_ops : int;
}

let recorder () =
  { write_ms = Fbuf.create (); read_ms = Fbuf.create (); done_ops = 0 }

type t = {
  w : W.t;
  inputs : W.inputs;
  leader : R.Replica.t;
  sessions : session array;
  mutable free : int list;
  mutable in_flight : int;
  mutable stream : W.op array;  (* the ops [submit] issues, cyclically *)
  mutable cursor : int;  (* position in [stream] *)
  lock : Mutex.t;
  cond : Condition.t;
  replies : (int * bytes * int64) Queue.t;
  mutable ticking : bool;
  mutable ticker : Thread.t option;
  mutable rec_ : recorder;
  (* failure accounting, over every measured op *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (* replies that fail a correctness check *)
  mutable rejected_reads : int;
  mutable timeouts : int;
  mutable errors : string list;  (* first few check failures, for the log *)
  mutable tracer : Trace.t option;
}

let fail_check g msg =
  g.wrong <- g.wrong + 1;
  g.failed <- g.failed + 1;
  if List.length g.errors < 5 then g.errors <- msg :: g.errors

let create ?(first_cid = 1) w inputs ~leader ~sessions =
  let lock = Mutex.create () and cond = Condition.create () in
  let replies = Queue.create () in
  let g =
    { w; inputs; leader;
      sessions =
        Array.init sessions (fun idx ->
            { idx; cid = first_cid + idx; seq = 0; busy = false; dead = false;
              read = false; key = 0; due_ns = 0L; sent_ns = 0L;
              sink = ignore; track = None });
      free = List.init sessions Fun.id; in_flight = 0;
      stream = inputs.ops; cursor = 0; lock;
      cond; replies; ticking = true; ticker = None; rec_ = recorder ();
      attempted = 0; failed = 0; wrong = 0; rejected_reads = 0;
      timeouts = 0; errors = [];
      tracer = None }
  in
  Array.iter
    (fun s ->
       let idx = s.idx in
       s.sink <-
         (fun raw ->
            let t = now () in
            Mutex.lock lock;
            Queue.push (idx, raw, t) replies;
            Condition.signal cond;
            Mutex.unlock lock))
    g.sessions;
  (* Wakes a generator blocked in [drain ~block:true] so that deadlines
     are checked even when no reply comes. *)
  g.ticker <-
    Some
      (Thread.create
         (fun () ->
            while g.ticking do
              Thread.delay 0.05;
              Mutex.lock lock;
              Condition.broadcast cond;
              Mutex.unlock lock
            done)
         ());
  g

let stop g =
  g.ticking <- false;
  Option.iter Thread.join g.ticker;
  g.ticker <- None

let session_track g s =
  match g.tracer, s.track with
  | None, _ -> None
  | Some _, (Some _ as tr) -> tr
  | Some tracer, None ->
    let tr =
      Trace.track tracer ~pid:100 ~pname:"load-generator"
        ~name:(Printf.sprintf "session-%d" s.cid) ()
    in
    s.track <- Some tr;
    Some tr

(* Issue the next op of the stream on session [s], due at [due_ns]. *)
let submit g s ~due_ns ~allow_read =
  let i = g.cursor in
  g.cursor <- i + 1;
  let op = g.stream.(i mod Array.length g.stream) in
  let read = op.read && allow_read in
  s.seq <- s.seq + 1;
  s.busy <- true;
  s.read <- read;
  s.key <- op.key;
  s.due_ns <- due_ns;
  g.in_flight <- g.in_flight + 1;
  g.attempted <- g.attempted + 1;
  let id = { Cm.client_id = s.cid; seq = s.seq } in
  let payload = W.payload g.w g.inputs op ~i ~read in
  let raw =
    if read then
      Cm.read_to_bytes { id; staleness_ns = Cm.linearizable; payload }
    else Cm.request_to_bytes { id; payload }
  in
  let t0 = now () in
  s.sent_ns <- t0;
  R.Replica.submit g.leader ~raw ~reply_to:s.sink;
  match session_track g s with
  | None -> ()
  | Some tr ->
    Trace.complete tr ~cat:"Client" ~name:"Replica.submit" ~ts_ns:t0
      ~dur_ns:(Int64.sub (now ()) t0) ()

(* Check one reply against the op its session has outstanding. *)
let check_reply g s raw =
  let expect = { Cm.client_id = s.cid; seq = s.seq } in
  let decoded =
    if s.read then
      match Cm.read_reply_of_bytes raw with
      | r when r.rid = expect -> Ok (`Read r.status)
      | r -> Error (Format.asprintf "read reply %a for %a" Cm.pp_request_id
                      r.rid Cm.pp_request_id expect)
      | exception _ -> Error "undecodable read reply"
    else
      match Cm.reply_of_bytes raw with
      | r when r.id = expect -> Ok (`Write r.result)
      | r -> Error (Format.asprintf "reply %a for %a" Cm.pp_request_id r.id
                      Cm.pp_request_id expect)
      | exception _ -> Error "undecodable reply"
  in
  let null_ok b = Bytes.length b = 8 in
  match decoded with
  | Error e -> `Wrong e
  | Ok (`Read (Cm.Not_leaseholder _ | Cm.Too_stale _ | Cm.Read_unsupported))
    -> `Rejected
  | Ok (`Write b) -> (
    match g.w.kind with
    | Null_hub ->
      if null_ok b then `Ok else `Wrong "null reply is not 8 bytes"
    | Kv_zipf_rw -> (
      match Kv.decode_reply b with
      | Ok_unit -> `Ok
      | _ | (exception _) -> `Wrong "kv Put did not return Ok_unit"))
  | Ok (`Read (Cm.Read_ok b)) -> (
    match g.w.kind with
    | Null_hub ->
      if null_ok b then `Ok else `Wrong "null read reply is not 8 bytes"
    | Kv_zipf_rw -> (
      match Kv.decode_reply b with
      | Ok_value None -> `Ok
      | Ok_value (Some v) when W.value_matches_key ~key:s.key v -> `Ok
      | _ | (exception _) ->
        `Wrong (Printf.sprintf "kv Get %s returned a foreign value"
                  (W.key_name s.key))))

let complete g (idx, raw, t_ns) =
  let s = g.sessions.(idx) in
  if s.dead then ()
  else if not s.busy then fail_check g "reply for a session with no op"
  else begin
    s.busy <- false;
    g.in_flight <- g.in_flight - 1;
    g.free <- idx :: g.free;
    let lat_ms = ms_of_ns (Int64.sub t_ns s.due_ns) in
    (match check_reply g s raw with
     | `Wrong e -> fail_check g e
     | `Rejected ->
       g.rejected_reads <- g.rejected_reads + 1;
       g.failed <- g.failed + 1
     | `Ok ->
       let r = g.rec_ in
       r.done_ops <- r.done_ops + 1;
       if s.read then Fbuf.add r.read_ms lat_ms
       else Fbuf.add r.write_ms lat_ms);
    match session_track g s with
    | None -> ()
    | Some tr ->
      Trace.complete tr ~cat:"Client" ~name:(if s.read then "read" else "op")
        ~ts_ns:s.due_ns ~dur_ns:(Int64.sub t_ns s.due_ns) ();
      Trace.instant tr ~cat:"Client" "reply"
        ~args:[ ("client_id", Msmr_obs.Json.Int s.cid);
                ("seq", Msmr_obs.Json.Int s.seq) ]
  end

(* Take every queued reply; with [block], first wait until there is at
   least one (or the ticker fires). *)
let drain g ~block =
  Mutex.lock g.lock;
  if block && Queue.is_empty g.replies then Condition.wait g.cond g.lock;
  let batch = Queue.create () in
  Queue.transfer g.replies batch;
  Mutex.unlock g.lock;
  Queue.iter (complete g) batch

let take_free g =
  match g.free with
  | [] -> None
  | idx :: rest ->
    g.free <- rest;
    Some g.sessions.(idx)

(* Wait for every outstanding op; ops still unanswered after
   [deadline_s] count as failed and their sessions are retired. *)
let settle g ~deadline_s =
  let limit = Int64.add (now ()) (P.Mclock.ns_of_s deadline_s) in
  while g.in_flight > 0 && Int64.compare (now ()) limit < 0 do
    drain g ~block:true
  done;
  Array.iter
    (fun s ->
       if s.busy && not s.dead then begin
         s.dead <- true;
         s.busy <- false;
         g.in_flight <- g.in_flight - 1;
         g.timeouts <- g.timeouts + 1;
         g.failed <- g.failed + 1
       end)
    g.sessions

(* What a phase measured over its timed span (before [settle]). *)
type phase_result = {
  wall_s : float;
  cpu_s : float;  (* process CPU, all threads *)
  ops : int;  (* ops completed during the span *)
  issued_in_time : int;  (* open loop: ops submitted before the end *)
}

let finish g ~t0 ~cpu0 ~ops0 ~issued =
  let r =
    { wall_s = P.Mclock.s_of_ns (Int64.sub (now ()) t0);
      cpu_s = cpu_s () -. cpu0; ops = g.rec_.done_ops - ops0;
      issued_in_time = issued }
  in
  settle g ~deadline_s:5.0;
  r

(* Open loop: op k is due at t0 + k / rate. Ops due while no session is
   free wait in order and keep their due time. Completions go to
   [into]; [late] gets each op's submit time minus its due time. *)
let open_loop g ~into ~late ~rate ~seconds ~allow_read =
  g.rec_ <- into;
  let t0 = now () and cpu0 = cpu_s () and ops0 = into.done_ops in
  let t_end = Int64.add t0 (P.Mclock.ns_of_s seconds) in
  let interval = 1e9 /. rate in
  let due k = Int64.add t0 (Int64.of_float (float_of_int k *. interval)) in
  let k = ref 0 in
  let issued = ref 0 in
  while Int64.compare (due !k) t_end < 0 do
    drain g ~block:false;
    let rec issue () =
      if Int64.compare (due !k) t_end < 0 && Int64.compare (due !k) (now ()) <= 0
      then
        match take_free g with
        | None -> drain g ~block:true; issue ()
        | Some s ->
          let d = due !k in
          submit g s ~due_ns:d ~allow_read;
          Fbuf.add late (ms_of_ns (Int64.sub s.sent_ns d));
          if Int64.compare s.sent_ns t_end < 0 then incr issued;
          incr k;
          issue ()
    in
    issue ();
    let gap = Int64.sub (due !k) (now ()) in
    (* Sleep at least 0.2 ms: a shorter sleep mostly measures the
       scheduler, and ops are timed from their due time anyway. *)
    if Int64.compare gap 0L > 0 then
      Thread.delay (Float.max 0.0002 (Int64.to_float gap /. 1e9))
  done;
  drain g ~block:false;
  finish g ~t0 ~cpu0 ~ops0 ~issued:!issued

(* Closed loop: [sessions] sessions each resubmit as soon as their reply
   arrives, for [seconds] or until [max_ops] ops were issued. *)
let closed_loop ?(max_ops = max_int) g ~into ~sessions ~seconds ~allow_read =
  g.rec_ <- into;
  let t0 = now () and cpu0 = cpu_s () and ops0 = into.done_ops in
  let t_end = Int64.add t0 (P.Mclock.ns_of_s seconds) in
  let issued = ref 0 in
  let refill () =
    while g.in_flight < sessions && g.free <> [] && !issued < max_ops do
      match take_free g with
      | Some s -> incr issued; submit g s ~due_ns:(now ()) ~allow_read
      | None -> ()
    done
  in
  refill ();
  while Int64.compare (now ()) t_end < 0 && (g.in_flight > 0 || !issued < max_ops) do
    drain g ~block:true;
    if Int64.compare (now ()) t_end < 0 then refill ()
  done;
  finish g ~t0 ~cpu0 ~ops0 ~issued:0

(* The first answered write, used by the set-up measurement. *)
let one_write g =
  match take_free g with
  | None -> false
  | Some s ->
    g.rec_ <- recorder ();
    submit g s ~due_ns:(now ()) ~allow_read:false;
    settle g ~deadline_s:10.0;
    g.rec_.done_ops = 1

(* Issue each op of [ops] once, closed loop, then go back to the
   workload's stream where it left off. Returns the ops completed. *)
let fill g ops ~sessions ~seconds =
  let stream = g.stream and cursor = g.cursor in
  g.stream <- ops;
  g.cursor <- 0;
  let into = recorder () in
  ignore
    (closed_loop g ~into ~sessions ~seconds ~max_ops:(Array.length ops)
       ~allow_read:false);
  g.stream <- stream;
  g.cursor <- cursor;
  into.done_ops
