module Cmap = Msmr_platform.Concurrent_map
module Client_msg = Msmr_wire.Client_msg

(* client_id -> (newest executed seq, its reply) *)
type t = (int, int * bytes) Cmap.t

type lookup =
  | Fresh
  | Cached of bytes
  | Stale

let create ?(shards = 16) () : t = Cmap.create ~shards ()

let lookup t (id : Client_msg.request_id) =
  match Cmap.find_opt t id.client_id with
  | Some (seq, reply) when seq = id.seq -> Cached reply
  | Some (seq, _) when seq > id.seq -> Stale
  | Some _ | None -> Fresh

let store t (id : Client_msg.request_id) reply =
  Cmap.update t id.client_id (function
    | Some (seq, old) when seq >= id.seq -> Some (seq, old)
    | Some _ | None -> Some (id.seq, reply))

let already_executed t id =
  match lookup t id with Fresh -> false | Cached _ | Stale -> true

let size t = Cmap.length t
