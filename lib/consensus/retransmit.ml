type entry = {
  dest : Types.node_id list;
  msg : Msg.t;
  t0 : int64;  (* when scheduled *)
  mutable due : int64;
  mutable live : bool;  (* false once cancelled or replaced *)
}

type t = {
  interval_ns : int64;
  armed : (Paxos.rtx_key, entry) Hashtbl.t;
  fifo : entry Queue.t;  (* ascending [due]; dead entries linger *)
}

let create ~interval_s =
  { interval_ns = Int64.max 1L (Msmr_platform.Mclock.ns_of_s interval_s);
    armed = Hashtbl.create 256;
    fifo = Queue.create () }

let cancel t key =
  Option.map
    (fun e ->
       e.live <- false;
       Hashtbl.remove t.armed key;
       e.t0)
    (Hashtbl.find_opt t.armed key)

let schedule t ~now_ns key ~dest msg =
  ignore (cancel t key);
  let due = Int64.add now_ns t.interval_ns in
  let e = { dest; msg; t0 = now_ns; due; live = true } in
  Hashtbl.replace t.armed key e;
  Queue.push e t.fifo

(* The oldest live entry, dropping dead ones off the head. *)
let rec head t =
  match Queue.peek_opt t.fifo with
  | Some e when not e.live -> ignore (Queue.pop t.fifo); head t
  | h -> h

let next_due_ns t = Option.map (fun e -> e.due) (head t)

(* A re-armed entry goes to the tail due at [now + interval], no earlier
   than anything queued, so the queue stays sorted and the loop stops
   before meeting it again. *)
let rec pop_due t ~now_ns =
  match head t with
  | Some e when Int64.compare e.due now_ns <= 0 ->
    ignore (Queue.pop t.fifo);
    e.due <- Int64.add now_ns t.interval_ns;
    Queue.push e t.fifo;
    (e.dest, e.msg) :: pop_due t ~now_ns
  | Some _ | None -> []
