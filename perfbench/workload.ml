(* The workloads and their seeded inputs.

   Every input the cluster sees is derived from the seed here: the op
   stream (key, read or write) and the payload bytes. The program under
   test only ever receives the encoded requests. *)

module Cm = Msmr_wire.Client_msg
module Kv = Msmr_kv.Kv_service

type kind =
  | Null_hub  (* the paper's setup: null service, ephemeral, 1 executor *)
  | Kv_zipf_rw  (* kv service, 2 executors, 50% lease reads, zipf keys *)

type t = {
  name : string;
  kind : kind;
  executors : int;
  light_rate : float;  (* offered ops/s in the open-loop phase *)
}

let all =
  [ { name = "null-hub"; kind = Null_hub; executors = 1;
      light_rate = 10_000. };
    { name = "kv-zipf-rw"; kind = Kv_zipf_rw; executors = 2;
      light_rate = 8_000. } ]

let find name = List.find_opt (fun w -> w.name = name) all

let is_kv w = w.kind = Kv_zipf_rw

let null_payload_bytes = 112
let kv_value_bytes = 128
let kv_keys = 10_000
let zipf_s = 0.99

(* On the null workloads one light-phase op in [null_read_every] is a
   lease read, so [read_p50_ms] exists on every workload; their
   closed-loop phase stays pure writes, the paper's setup. *)
let null_read_every = 16

(* Op stream length; the generator cycles through it. *)
let stream_len = 1 lsl 17

type op = { key : int; read : bool }

type inputs = {
  ops : op array;
  fill : op array;  (* kv: one [Put] per key, run before the warm-up *)
  payloads : bytes array;  (* null: request payloads; kv: value fillers *)
}

(* Zipf(s) over [0, n): inverse-CDF sampling on a precomputed table. *)
let zipf_sampler rng ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let random_bytes rng len =
  Bytes.init len (fun _ -> Char.chr (32 + Random.State.int rng 95))

let make_inputs w ~seed =
  let rng = Random.State.make [| seed; 0x6d736d72 |] in
  match w.kind with
  | Null_hub ->
    { ops =
        Array.init stream_len (fun _ ->
            { key = 0; read = Random.State.int rng null_read_every = 0 });
      fill = [||];
      payloads =
        Array.init 256 (fun _ -> random_bytes rng null_payload_bytes) }
  | Kv_zipf_rw ->
    let draw = zipf_sampler rng ~n:kv_keys ~s:zipf_s in
    { ops =
        Array.init stream_len (fun _ ->
            let key = draw () in
            { key; read = Random.State.bool rng });
      fill = Array.init kv_keys (fun key -> { key; read = false });
      payloads = Array.init 256 (fun _ -> random_bytes rng kv_value_bytes) }

let key_name k = "k" ^ string_of_int k

(* A stored value embeds its own key, so a read can be checked against
   the key it asked for: "<key>=" followed by filler up to 128 bytes. *)
let kv_value inputs ~key ~i =
  let prefix = key_name key ^ "=" in
  let filler = inputs.payloads.(i land 255) in
  Bytes.to_string
    (Bytes.cat (Bytes.of_string prefix)
       (Bytes.sub filler 0 (kv_value_bytes - String.length prefix)))

let value_matches_key ~key v =
  let prefix = key_name key ^ "=" in
  String.length v = kv_value_bytes && String.starts_with ~prefix v

(* The command bytes of [op], the [i]-th op issued: what the service
   executes. [read] says whether the op goes out as a lease read. *)
let payload w inputs op ~i ~read =
  match w.kind with
  | Null_hub -> inputs.payloads.(i land 255)
  | Kv_zipf_rw ->
    if read then Kv.encode_command (Get (key_name op.key))
    else
      Kv.encode_command
        (Put { key = key_name op.key; value = kv_value inputs ~key:op.key ~i;
               ephemeral = false })
