module Mclock = Msmr_platform.Mclock
module Channel = Msmr_platform.Channel
module Client_msg = Msmr_wire.Client_msg

(* What a replica hands back: a reply to a write or to a read. *)
type reply = Write of Client_msg.reply | Read of Client_msg.read_reply

type t = {
  cluster : Replica.Cluster.t;
  client_id : int;
  timeout_s : float;
  mutable seq : int;
  mutable target : int;          (* replica index we currently talk to *)
  mutable calls : int;
  mutable retry_count : int;
  mutable redirect_count : int;  (* times [rotate_target] moved us *)
  mutable read_redirect_count : int;
      (* Not_leaseholder / Too_stale bounces of the read fast path *)
  mutable late_count : int;      (* replies discarded as answering an
                                    earlier seq *)
  rng : Random.State.t;          (* per-client jitter, deterministic *)
  replies : reply Channel.t;
      (* Every reply the replicas deliver, current or late: a retried
         request can be answered more than once, and an answer to an
         earlier attempt can arrive during a later call. The caller takes
         them and keeps only the one for its current seq. *)
}

(* Deep enough for the duplicates a few retries produce; a reply that
   finds it full is dropped, and the call's timeout retries it. *)
let reply_capacity = 16

let create ?(timeout_s = 1.0) ~cluster ~client_id () =
  let replicas = Replica.Cluster.replicas cluster in
  let target =
    (* Start at the current leader if known. *)
    let rec find i =
      if i >= Array.length replicas then 0
      else if Replica.is_leader replicas.(i) then i
      else find (i + 1)
    in
    find 0
  in
  { cluster; client_id; timeout_s; seq = 0; target; calls = 0; retry_count = 0;
    redirect_count = 0; read_redirect_count = 0; late_count = 0;
    rng = Random.State.make [| client_id; 0x636c69 |];
    replies = Channel.create ~kind:Channel.Mpmc ~capacity:reply_capacity }

let calls_made t = t.calls
let retries t = t.retry_count
let redirects t = t.redirect_count
let read_redirects t = t.read_redirect_count
let late_replies t = t.late_count

let offer t reply = ignore (Channel.try_put t.replies reply)

let deliver t raw =
  match Client_msg.reply_of_bytes raw with
  | reply -> offer t (Write reply)
  | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) -> ()

(* Park until [pick] accepts a reply or [deadline] passes. Replies [pick]
   rejects — answers to an earlier seq — are discarded. *)
let await t ~deadline pick =
  let rec go () =
    let left = Mclock.s_of_ns (Int64.sub deadline (Mclock.now_ns ())) in
    match Channel.take_timeout t.replies ~timeout_s:left with
    | None -> None
    | Some r -> (
        match pick r with
        | Some _ as v -> v
        | None ->
          t.late_count <- t.late_count + 1;
          go ())
  in
  go ()

let rotate_target t =
  let replicas = Replica.Cluster.replicas t.cluster in
  (* The current target did not answer: never pick it again this round,
     even if it still believes it is the leader (it may be partitioned).
     Prefer another replica claiming leadership; else round-robin over
     the current membership — a decommissioned replica still runs but is
     epoch-fenced and will never answer. *)
  let n = Array.length replicas in
  let member i = Replica.is_member replicas.(i) in
  let rec next_member k =
    (* Degenerate fallback: plain round-robin if nobody reports
       membership (e.g. every replica stopped). *)
    if k > n then (t.target + 1) mod n
    else begin
      let i = (t.target + k) mod n in
      if member i then i else next_member (k + 1)
    end
  in
  let rec find i =
    if i >= n then next_member 1
    else if i <> t.target && Replica.is_leader replicas.(i) && member i then i
    else find (i + 1)
  in
  let next = find 0 in
  if next <> t.target then t.redirect_count <- t.redirect_count + 1;
  t.target <- next

let call t payload =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let req = { Client_msg.id = { client_id = t.client_id; seq }; payload } in
  let raw = Client_msg.request_to_bytes req in
  (* Every attempt resends the same request, so a reply to any attempt of
     this seq is the answer; a reply to an earlier seq never is. *)
  let pick = function
    | Write r when r.id.seq = seq -> Some r.result
    | Write _ | Read _ -> None
  in
  let replicas = Replica.Cluster.replicas t.cluster in
  let rec attempt () =
    let rec submit_retrying () =
      match Replica.submit replicas.(t.target) ~raw ~reply_to:(deliver t) with
      | () -> ()
      | exception _ ->
        (* Target crashed mid-submit (stopped replica / closed queue):
           treat it like a refused connection — rotate and retry after a
           short jittered pause, the same way a TCP client would. *)
        t.retry_count <- t.retry_count + 1;
        rotate_target t;
        Mclock.sleep_s (0.001 +. Random.State.float t.rng 0.001);
        submit_retrying ()
    in
    submit_retrying ();
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s t.timeout_s) in
    match await t ~deadline pick with
    | Some result -> result
    | None ->
      t.retry_count <- t.retry_count + 1;
      rotate_target t;
      attempt ()
  in
  let result = attempt () in
  t.calls <- t.calls + 1;
  result

(* --- Read fast path ------------------------------------------------- *)

exception Reads_unsupported

let read_deliver t raw =
  if
    Bytes.length raw >= 4
    && Int32.to_int (Bytes.get_int32_be raw 0) = Client_msg.read_reply_magic
  then
    match Client_msg.read_reply_of_bytes raw with
    | rr -> offer t (Read rr)
    | exception (Msmr_wire.Codec.Underflow | Msmr_wire.Codec.Malformed _) ->
      ()

(* One read, with redirect-on-[Not_leaseholder] / [Too_stale] and
   retry-on-lease-expiry: a replica mid-renewal (or mid-view-change)
   answers [Not_leaseholder] pointing at the node it believes leads;
   bounce there after a capped, jittered exponential pause — the same
   backoff shape as the write path's retries. *)
let do_read t ~staleness_ns payload =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let rd =
    { Client_msg.id = { client_id = t.client_id; seq }; staleness_ns;
      payload }
  in
  let raw = Client_msg.read_to_bytes rd in
  let pick = function
    | Read rr when rr.rid.seq = seq -> Some rr.status
    | Read _ | Write _ -> None
  in
  let replicas = Replica.Cluster.replicas t.cluster in
  let n = Array.length replicas in
  let backoff pause =
    Mclock.sleep_s (pause +. Random.State.float t.rng (pause /. 2.));
    Float.min 0.05 (pause *. 2.)
  in
  (* Stale reads may be served anywhere: spread the first attempt over
     the whole cluster instead of converging on the leader. *)
  let read_target = ref
      (if staleness_ns >= 0 then t.client_id mod n else t.target)
  in
  let retarget hint =
    t.read_redirect_count <- t.read_redirect_count + 1;
    if hint >= 0 && hint < n && hint <> !read_target then read_target := hint
    else read_target := (!read_target + 1) mod n
  in
  let rec attempt pause =
    (match
       Replica.submit replicas.(!read_target) ~raw
         ~reply_to:(read_deliver t)
     with
     | () -> ()
     | exception _ ->
       (* Stopped replica: treat like a refused connection. *)
       t.retry_count <- t.retry_count + 1);
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s t.timeout_s) in
    match await t ~deadline pick with
    | Some (Client_msg.Read_ok result) -> result
    | Some Client_msg.Read_unsupported -> raise Reads_unsupported
    | Some (Client_msg.Not_leaseholder hint | Client_msg.Too_stale hint) ->
      retarget hint;
      attempt (backoff pause)
    | None ->
      t.retry_count <- t.retry_count + 1;
      retarget (-1);
      attempt (backoff pause)
  in
  let result = attempt 0.001 in
  t.calls <- t.calls + 1;
  result

let read t payload = do_read t ~staleness_ns:Client_msg.linearizable payload

let read_stale t ~staleness_s payload =
  if staleness_s < 0. then invalid_arg "Client.read_stale: staleness_s < 0";
  do_read t ~staleness_ns:(int_of_float (staleness_s *. 1e9)) payload
