module Client_msg = Msmr_wire.Client_msg
module Mclock = Msmr_platform.Mclock

type seal_stats = {
  seals_size : int;
  seals_delay : int;
  seals_idle : int;
  sealed_bytes : int;
  limit_bytes : int;
}

type t = {
  cfg : Config.t;
  src : Types.node_id;
  tuned_bsz : int Atomic.t option;
  mutable next_num : int;
  mutable open_reqs : Client_msg.request list;  (* newest first *)
  mutable open_count : int;                     (* = length open_reqs *)
  mutable open_bytes : int;
  mutable oldest_ns : int64;                    (* arrival of oldest request *)
  (* Monotone seal accounting, read cross-thread by metrics and the
     simulator's controller (plain word reads: benign staleness, no
     tearing). *)
  mutable seals_size : int;
  mutable seals_delay : int;
  mutable seals_idle : int;
  mutable sealed_bytes : int;
  mutable limit_bytes : int;
}

let create ?tuned_bsz cfg ~src =
  {
    cfg;
    src;
    tuned_bsz;
    next_num = 0;
    open_reqs = [];
    open_count = 0;
    open_bytes = 0;
    oldest_ns = 0L;
    seals_size = 0;
    seals_delay = 0;
    seals_idle = 0;
    sealed_bytes = 0;
    limit_bytes = 0;
  }

let bsz_limit t =
  match t.tuned_bsz with
  | None -> t.cfg.max_batch_bytes
  | Some a -> Atomic.get a

let pending_requests t = t.open_count
let pending_bytes t = t.open_bytes

let seal_stats t =
  {
    seals_size = t.seals_size;
    seals_delay = t.seals_delay;
    seals_idle = t.seals_idle;
    sealed_bytes = t.sealed_bytes;
    limit_bytes = t.limit_bytes;
  }

type reason = Size | Delay | Idle

let seal t ~limit ~reason =
  (match reason with
   | Size -> t.seals_size <- t.seals_size + 1
   | Delay -> t.seals_delay <- t.seals_delay + 1
   | Idle -> t.seals_idle <- t.seals_idle + 1);
  t.sealed_bytes <- t.sealed_bytes + t.open_bytes;
  t.limit_bytes <- t.limit_bytes + limit;
  let batch =
    { Batch.bid = { src = t.src; num = t.next_num };
      requests = List.rev t.open_reqs }
  in
  t.next_num <- t.next_num + 1;
  t.open_reqs <- [];
  t.open_count <- 0;
  t.open_bytes <- 0;
  batch

let add t req ~now_ns =
  let limit = bsz_limit t in
  let sz = Client_msg.request_wire_size req in
  if t.open_reqs = [] then begin
    t.oldest_ns <- now_ns;
    t.open_reqs <- [ req ];
    t.open_count <- 1;
    t.open_bytes <- sz;
    if sz >= limit then Some (seal t ~limit ~reason:Size) else None
  end
  else if t.open_bytes + sz > limit then begin
    (* The new request does not fit: seal what we have, start afresh. *)
    let sealed = seal t ~limit ~reason:Size in
    t.oldest_ns <- now_ns;
    t.open_reqs <- [ req ];
    t.open_count <- 1;
    t.open_bytes <- sz;
    Some sealed
  end
  else begin
    t.open_reqs <- req :: t.open_reqs;
    t.open_count <- t.open_count + 1;
    t.open_bytes <- t.open_bytes + sz;
    if t.open_bytes >= limit then Some (seal t ~limit ~reason:Size) else None
  end

let deadline_ns t =
  if t.open_reqs = [] then None
  else Some (Int64.add t.oldest_ns (Mclock.ns_of_s t.cfg.max_batch_delay_s))

let flush_due t ~now_ns =
  match deadline_ns t with
  | Some d when Int64.compare now_ns d >= 0 ->
      Some (seal t ~limit:(bsz_limit t) ~reason:Delay)
  | Some _ | None -> None

let flush_now t ~reason =
  if t.open_reqs = [] then None
  else Some (seal t ~limit:(bsz_limit t) ~reason)

let force_flush t = flush_now t ~reason:Delay
let flush_idle t = flush_now t ~reason:Idle
