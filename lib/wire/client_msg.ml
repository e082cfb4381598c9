type request_id = {
  client_id : int;
  seq : int;
}

let compare_request_id a b =
  match compare a.client_id b.client_id with
  | 0 -> compare a.seq b.seq
  | c -> c

let pp_request_id ppf id = Format.fprintf ppf "%d.%d" id.client_id id.seq

type request = {
  id : request_id;
  payload : bytes;
}

type reply = {
  id : request_id;
  result : bytes;
}

(* client_id:4 + seq:8 + len:4 + payload *)
let request_wire_size r = 16 + Bytes.length r.payload

let encode_request w (r : request) =
  Codec.W.i32 w r.id.client_id;
  Codec.W.int_as_i64 w r.id.seq;
  Codec.W.bytes w r.payload

let decode_request rd : request =
  let client_id = Codec.R.i32 rd in
  let seq = Codec.R.int_from_i64 rd in
  let payload = Codec.R.bytes rd in
  { id = { client_id; seq }; payload }

let encode_reply w (r : reply) =
  Codec.W.i32 w r.id.client_id;
  Codec.W.int_as_i64 w r.id.seq;
  Codec.W.bytes w r.result

let decode_reply rd : reply =
  let client_id = Codec.R.i32 rd in
  let seq = Codec.R.int_from_i64 rd in
  let result = Codec.R.bytes rd in
  { id = { client_id; seq }; result }

let request_to_bytes r =
  Codec.W.with_pool (fun w ->
      encode_request w r;
      Codec.W.to_bytes w)

let request_of_bytes b =
  let rd = Codec.R.of_bytes b in
  let r = decode_request rd in
  Codec.R.expect_end rd;
  r

let reply_to_bytes r =
  Codec.W.with_pool (fun w ->
      encode_reply w r;
      Codec.W.to_bytes w)

let reply_of_bytes b =
  let rd = Codec.R.of_bytes b in
  let r = decode_reply rd in
  Codec.R.expect_end rd;
  r

let equal_request (a : request) (b : request) =
  compare_request_id a.id b.id = 0 && Bytes.equal a.payload b.payload

let pp_request ppf (r : request) =
  Format.fprintf ppf "req(%a, %dB)" pp_request_id r.id (Bytes.length r.payload)

(* --- Read fast path (lease-based reads, DESIGN.md section 15) ----------

   Write requests start with [client_id : i32 >= 0], so a negative first
   word unambiguously marks the frame as something else.  Reads use -2 and
   read replies -4; this lets Replica.submit peek a single i32 and route
   read frames around the Batcher/Paxos spine without touching the write
   encoding at all. *)

let read_magic = -2
let read_reply_magic = -4

type read = {
  id : request_id;
  staleness_ns : int;
  payload : bytes;
}

let linearizable = -1

type read_status =
  | Read_ok of bytes
  | Not_leaseholder of int
  | Too_stale of int
  | Read_unsupported

type read_reply = {
  rid : request_id;
  status : read_status;
}

let is_read_raw b = Bytes.length b >= 4 && Int32.to_int (Bytes.get_int32_be b 0) = read_magic

(* magic:4 + client_id:4 + seq:8 + staleness:8 + len:4 + payload *)
let read_wire_size r = 28 + Bytes.length r.payload

let encode_read w (r : read) =
  Codec.W.i32 w read_magic;
  Codec.W.i32 w r.id.client_id;
  Codec.W.int_as_i64 w r.id.seq;
  Codec.W.int_as_i64 w r.staleness_ns;
  Codec.W.bytes w r.payload

let decode_read rd : read =
  let magic = Codec.R.i32 rd in
  if magic <> read_magic then
    raise (Codec.Malformed (Printf.sprintf "read magic %d" magic));
  let client_id = Codec.R.i32 rd in
  let seq = Codec.R.int_from_i64 rd in
  let staleness_ns = Codec.R.int_from_i64 rd in
  let payload = Codec.R.bytes rd in
  { id = { client_id; seq }; staleness_ns; payload }

let encode_read_reply w (r : read_reply) =
  Codec.W.i32 w read_reply_magic;
  Codec.W.i32 w r.rid.client_id;
  Codec.W.int_as_i64 w r.rid.seq;
  (match r.status with
  | Read_ok result ->
      Codec.W.u8 w 0;
      Codec.W.bytes w result
  | Not_leaseholder hint ->
      Codec.W.u8 w 1;
      Codec.W.int_as_i64 w hint
  | Too_stale hint ->
      Codec.W.u8 w 2;
      Codec.W.int_as_i64 w hint
  | Read_unsupported -> Codec.W.u8 w 3)

let decode_read_reply rd : read_reply =
  let magic = Codec.R.i32 rd in
  if magic <> read_reply_magic then
    raise (Codec.Malformed (Printf.sprintf "read reply magic %d" magic));
  let client_id = Codec.R.i32 rd in
  let seq = Codec.R.int_from_i64 rd in
  let status =
    match Codec.R.u8 rd with
    | 0 -> Read_ok (Codec.R.bytes rd)
    | 1 -> Not_leaseholder (Codec.R.int_from_i64 rd)
    | 2 -> Too_stale (Codec.R.int_from_i64 rd)
    | 3 -> Read_unsupported
    | k -> raise (Codec.Malformed (Printf.sprintf "read status %d" k))
  in
  { rid = { client_id; seq }; status }

let read_to_bytes r =
  Codec.W.with_pool (fun w ->
      encode_read w r;
      Codec.W.to_bytes w)

let read_of_bytes b =
  let rd = Codec.R.of_bytes b in
  let r = decode_read rd in
  Codec.R.expect_end rd;
  r

let read_reply_to_bytes r =
  Codec.W.with_pool (fun w ->
      encode_read_reply w r;
      Codec.W.to_bytes w)

let read_reply_of_bytes b =
  let rd = Codec.R.of_bytes b in
  let r = decode_read_reply rd in
  Codec.R.expect_end rd;
  r

let equal_read (a : read) (b : read) =
  compare_request_id a.id b.id = 0
  && a.staleness_ns = b.staleness_ns
  && Bytes.equal a.payload b.payload

let equal_read_reply (a : read_reply) (b : read_reply) =
  compare_request_id a.rid b.rid = 0
  &&
  match (a.status, b.status) with
  | Read_ok x, Read_ok y -> Bytes.equal x y
  | Not_leaseholder x, Not_leaseholder y | Too_stale x, Too_stale y -> x = y
  | Read_unsupported, Read_unsupported -> true
  | (Read_ok _ | Not_leaseholder _ | Too_stale _ | Read_unsupported), _ -> false

let pp_read ppf (r : read) =
  Format.fprintf ppf "read(%a, stale<=%dns, %dB)" pp_request_id r.id
    r.staleness_ns (Bytes.length r.payload)
