module Mclock = Msmr_platform.Mclock
module Channel = Msmr_platform.Channel
module Client_msg = Msmr_wire.Client_msg

(* The link: how a frame reaches replica [i], how reply frames come back,
   and which replica to try after a failed attempt. Everything else —
   numbering, deadlines, late replies, redirects, backoff — is the one
   policy below. *)
type link =
  | Local of { cluster : Replica.Cluster.t; replies : bytes Channel.t }
      (* [replies] gets every reply frame the replicas deliver, current
         or late: a retried request can be answered more than once, and
         an answer to an earlier attempt can arrive during a later call. *)
  | Tcp of tcp

and tcp = {
  mutable addrs : Unix.sockaddr array;  (* in node-id order *)
  mutable conn : (int * Unix.file_descr) option;  (* to [addrs.(i)] *)
  mutable connect_pause : float;        (* current reconnect backoff *)
  mutable refused : int;                (* refused connects in a row *)
}

type t = {
  link : link;
  client_id : int;
  timeout_s : float;
  rng : Random.State.t;          (* per-client jitter, deterministic *)
  mutable seq : int;
  mutable target : int;          (* replica index writes go to *)
  mutable calls : int;
  mutable retry_count : int;
  mutable redirect_count : int;  (* failures that moved [target] *)
  mutable read_redirect_count : int;
      (* Not_leaseholder / Too_stale bounces of the read fast path *)
  mutable late_count : int;      (* replies discarded as answering an
                                    earlier seq *)
}

(* Deep enough for the duplicates a few retries produce; a reply that
   finds it full is dropped, and the call's timeout retries it. *)
let reply_capacity = 16

let connect_pause_base = 0.02
let connect_pause_cap = 0.5

let make link ~timeout_s ~client_id ~target =
  { link; client_id; timeout_s;
    rng = Random.State.make [| client_id; 0x636c69 |]; seq = 0; target;
    calls = 0; retry_count = 0; redirect_count = 0; read_redirect_count = 0;
    late_count = 0 }

let create ?(timeout_s = 1.0) ~cluster ~client_id () =
  (* Start at the current leader if known. *)
  let target =
    Array.find_index Replica.is_leader (Replica.Cluster.replicas cluster)
    |> Option.value ~default:0
  in
  let replies = Channel.create ~name:"client_replies" ~kind:Channel.Mpmc
      ~capacity:reply_capacity in
  make (Local { cluster; replies }) ~timeout_s ~client_id ~target

let connect ?(timeout_s = 1.0) ~addrs ~client_id () =
  if addrs = [] then invalid_arg "Client.connect: no addresses";
  let link =
    { addrs = Array.of_list addrs; conn = None;
      connect_pause = connect_pause_base; refused = 0 }
  in
  make (Tcp link) ~timeout_s ~client_id ~target:0

let calls_made t = t.calls
let retries t = t.retry_count
let redirects t = t.redirect_count
let read_redirects t = t.read_redirect_count
let late_replies t = t.late_count

let disconnect l =
  match l.conn with
  | Some (_, fd) ->
    l.conn <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let close t =
  match t.link with
  | Local { replies; _ } -> Channel.close replies
  | Tcp l -> disconnect l

(* Membership changed: refresh the endpoint set. The connection and the
   target survive only where their replica kept its position; a target
   that moved restarts from the head of the new list, and the usual
   rotation steers back to the leader from there. *)
let update_addrs t addrs =
  match t.link with
  | Local _ -> invalid_arg "Client.update_addrs: in-process client"
  | Tcp l ->
    if addrs = [] then invalid_arg "Client.update_addrs: no addresses";
    let old = l.addrs in
    l.addrs <- Array.of_list addrs;
    let kept i = i < Array.length old && i < Array.length l.addrs
                 && old.(i) = l.addrs.(i) in
    (match l.conn with Some (i, _) when not (kept i) -> disconnect l | _ -> ());
    if not (kept t.target) then t.target <- 0

let size t =
  match t.link with
  | Local { cluster; _ } -> Array.length (Replica.Cluster.replicas cluster)
  | Tcp l -> Array.length l.addrs

(* The socket to [addrs.(i)], dialled if needed. A refused connect
   pauses with capped, jittered exponential backoff — during an outage
   the whole client population must not hammer the survivors in
   lockstep — and 3·n refusals in a row mean no replica is reachable. *)
let connected t l i =
  match l.conn with
  | Some (j, fd) when j = i -> Some fd
  | _ -> (
      disconnect l;
      let addr = l.addrs.(i) in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        l.conn <- Some (i, fd);
        l.connect_pause <- connect_pause_base;
        l.refused <- 0;
        Some fd
      | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        l.refused <- l.refused + 1;
        if l.refused >= 3 * Array.length l.addrs then begin
          l.refused <- 0;
          failwith "Client: no replica reachable"
        end;
        let pause = l.connect_pause in
        Mclock.sleep_s (pause +. Random.State.float t.rng (pause /. 2.));
        l.connect_pause <- Float.min connect_pause_cap (pause *. 2.);
        None)

(* Hand [raw] to replica [i]; [false] when it cannot be reached. *)
let send t i raw =
  match t.link with
  | Local { cluster; replies } -> (
      let reply_to r =
        try ignore (Channel.try_put replies r) with Channel.Closed -> ()
      in
      match Replica.submit (Replica.Cluster.replicas cluster).(i) ~raw ~reply_to
      with
      | () -> true
      | exception _ ->
        (* Stopped replica / closed queue: like a refused connection,
           move on after a short jittered pause. *)
        Mclock.sleep_s (0.001 +. Random.State.float t.rng 0.001);
        false)
  | Tcp l -> (
      match connected t l i with
      | None -> false
      | Some fd -> (
          match Msmr_wire.Frame.write fd raw with
          | () -> true
          | exception (Unix.Unix_error _ | Sys_error _) -> false))

(* The next reply frame, or [None] once [deadline] passes or the
   connection breaks; the failed attempt's [next_target] then drops the
   connection. *)
let recv t ~deadline =
  let left = Mclock.s_of_ns (Int64.sub deadline (Mclock.now_ns ())) in
  match t.link with
  | Local { replies; _ } -> Channel.take_timeout replies ~timeout_s:left
  | Tcp { conn = Some (_, fd); _ } when left > 0. -> (
      try
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> None
        | _ -> Msmr_wire.Frame.read fd
      with End_of_file | Unix.Unix_error _ | Msmr_wire.Frame.Oversized _ ->
        None)
  | Tcp _ -> None

(* Where to go after replica [i] failed an attempt. *)
let next_target t i =
  match t.link with
  | Tcp l ->
    disconnect l;
    (i + 1) mod Array.length l.addrs
  | Local { cluster; _ } ->
    let replicas = Replica.Cluster.replicas cluster in
    (* [i] did not answer: never pick it again this round, even if it
       still believes it is the leader (it may be partitioned). Prefer
       another replica claiming leadership; else round-robin over the
       current membership — a decommissioned replica still runs but is
       epoch-fenced and will never answer. *)
    let n = Array.length replicas in
    let member j = Replica.is_member replicas.(j) in
    let leader j = j <> i && Replica.is_leader replicas.(j) && member j in
    match List.find_opt leader (List.init n Fun.id) with
    | Some j -> j
    | None ->
      (* Degenerate fallback: plain round-robin if nobody reports
         membership (e.g. every replica stopped). *)
      let after = List.init n (fun k -> (i + 1 + k) mod n) in
      Option.value (List.find_opt member after) ~default:((i + 1) mod n)

(* What a replica hands back: a reply to a write or to a read. Write
   replies start with a client id, never negative, so the read-reply
   magic tells them apart. *)
type reply = Write of Client_msg.reply | Read of Client_msg.read_reply

let decode raw =
  match
    if
      Bytes.length raw >= 4
      && Int32.to_int (Bytes.get_int32_be raw 0) = Client_msg.read_reply_magic
    then Read (Client_msg.read_reply_of_bytes raw)
    else Write (Client_msg.reply_of_bytes raw)
  with
  | reply -> Some reply
  | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) -> None

(* One attempt: send [raw] to replica [i] and wait up to the timeout for
   the reply [pick] accepts. Every attempt resends the same request, so a
   reply to any attempt of this seq is the answer; one to an earlier seq
   never is, and is discarded. [None] when the replica cannot be reached
   or does not answer in time. *)
let exchange t i raw pick =
  if not (send t i raw) then None
  else begin
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s t.timeout_s) in
    let rec await () =
      match recv t ~deadline with
      | None -> None
      | Some frame -> (
          match Option.bind (decode frame) pick with
          | Some _ as v -> v
          | None ->
            t.late_count <- t.late_count + 1;
            await ())
    in
    await ()
  end

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let call t payload =
  let seq = next_seq t in
  let raw =
    Client_msg.request_to_bytes
      { id = { client_id = t.client_id; seq }; payload }
  in
  let pick = function
    | Write r when r.id.seq = seq -> Some r.result
    | Write _ | Read _ -> None
  in
  let rec attempt () =
    match exchange t t.target raw pick with
    | Some result -> result
    | None ->
      t.retry_count <- t.retry_count + 1;
      let next = next_target t t.target in
      if next <> t.target then t.redirect_count <- t.redirect_count + 1;
      t.target <- next;
      attempt ()
  in
  let result = attempt () in
  t.calls <- t.calls + 1;
  result

(* --- Read fast path ------------------------------------------------- *)

exception Reads_unsupported

(* One read, with redirect-on-[Not_leaseholder] / [Too_stale] and
   retry-on-lease-expiry: a replica mid-renewal (or mid-view-change)
   answers [Not_leaseholder] naming the node it believes leads; bounce
   there after a capped, jittered exponential pause, since a lease
   mid-renewal answers within one ping interval, not instantly. *)
let do_read t ~staleness_ns payload =
  let seq = next_seq t in
  let raw =
    Client_msg.read_to_bytes
      { id = { client_id = t.client_id; seq }; staleness_ns; payload }
  in
  let pick = function
    | Read rr when rr.rid.seq = seq -> Some rr.status
    | Read _ | Write _ -> None
  in
  let n = size t in
  let stale = staleness_ns >= 0 in
  let rec attempt i pause =
    let retry next =
      Mclock.sleep_s (pause +. Random.State.float t.rng (pause /. 2.));
      attempt next (Float.min 0.05 (pause *. 2.))
    in
    match exchange t i raw pick with
    | Some (Client_msg.Read_ok result) ->
      (* The leaseholder is the leader: let writes follow it there. *)
      if not stale then t.target <- i;
      result
    | Some Client_msg.Read_unsupported -> raise Reads_unsupported
    | Some (Client_msg.Not_leaseholder hint | Client_msg.Too_stale hint) ->
      t.read_redirect_count <- t.read_redirect_count + 1;
      retry (if hint >= 0 && hint < n && hint <> i then hint else (i + 1) mod n)
    | None ->
      t.retry_count <- t.retry_count + 1;
      retry (next_target t i)
  in
  (* Stale reads may be served anywhere: spread the first attempt over
     the whole cluster instead of converging on the leader. *)
  let result = attempt (if stale then t.client_id mod n else t.target) 0.001 in
  t.calls <- t.calls + 1;
  result

let read t payload = do_read t ~staleness_ns:Client_msg.linearizable payload

let read_stale t ~staleness_s payload =
  if staleness_s < 0. then invalid_arg "Client.read_stale: staleness_s < 0";
  do_read t ~staleness_ns:(int_of_float (staleness_s *. 1e9)) payload
