module Codec = Msmr_wire.Codec
module Cmap = Msmr_platform.Concurrent_map

type command =
  | Put of { key : string; value : string; ephemeral : bool }
  | Get of string
  | Delete of string
  | Incr of { key : string; by : int }
  | Expire_session of int
  | List_keys of string

type reply =
  | Ok_unit
  | Ok_value of string option
  | Ok_int of int
  | Ok_keys of string list
  | Error of string

let encode_command cmd =
  Codec.W.with_pool @@ fun w ->
  (match cmd with
   | Put { key; value; ephemeral } ->
     Codec.W.u8 w 1;
     Codec.W.string w key;
     Codec.W.string w value;
     Codec.W.bool w ephemeral
   | Get key ->
     Codec.W.u8 w 2;
     Codec.W.string w key
   | Delete key ->
     Codec.W.u8 w 3;
     Codec.W.string w key
   | Incr { key; by } ->
     Codec.W.u8 w 4;
     Codec.W.string w key;
     Codec.W.int_as_i64 w by
   | Expire_session s ->
     Codec.W.u8 w 5;
     Codec.W.int_as_i64 w s
   | List_keys prefix ->
     Codec.W.u8 w 6;
     Codec.W.string w prefix);
  Codec.W.to_bytes w

let decode_command b =
  let r = Codec.R.of_bytes b in
  let cmd =
    match Codec.R.u8 r with
    | 1 ->
      let key = Codec.R.string r in
      let value = Codec.R.string r in
      let ephemeral = Codec.R.bool r in
      Put { key; value; ephemeral }
    | 2 -> Get (Codec.R.string r)
    | 3 -> Delete (Codec.R.string r)
    | 4 ->
      let key = Codec.R.string r in
      let by = Codec.R.int_from_i64 r in
      Incr { key; by }
    | 5 -> Expire_session (Codec.R.int_from_i64 r)
    | 6 -> List_keys (Codec.R.string r)
    | n -> raise (Codec.Malformed (Printf.sprintf "kv command tag %d" n))
  in
  Codec.R.expect_end r;
  cmd

let encode_reply rep =
  Codec.W.with_pool @@ fun w ->
  (match rep with
   | Ok_unit -> Codec.W.u8 w 1
   | Ok_value None -> Codec.W.u8 w 2
   | Ok_value (Some v) ->
     Codec.W.u8 w 3;
     Codec.W.string w v
   | Ok_int n ->
     Codec.W.u8 w 4;
     Codec.W.int_as_i64 w n
   | Ok_keys keys ->
     Codec.W.u8 w 5;
     Codec.W.i32 w (List.length keys);
     List.iter (Codec.W.string w) keys
   | Error msg ->
     Codec.W.u8 w 6;
     Codec.W.string w msg);
  Codec.W.to_bytes w

let decode_reply b =
  let r = Codec.R.of_bytes b in
  let rep =
    match Codec.R.u8 r with
    | 1 -> Ok_unit
    | 2 -> Ok_value None
    | 3 -> Ok_value (Some (Codec.R.string r))
    | 4 -> Ok_int (Codec.R.int_from_i64 r)
    | 5 ->
      let count = Codec.R.i32 r in
      if count < 0 then raise (Codec.Malformed "negative key count");
      Ok_keys (List.init count (fun _ -> Codec.R.string r))
    | 6 -> Error (Codec.R.string r)
    | n -> raise (Codec.Malformed (Printf.sprintf "kv reply tag %d" n))
  in
  Codec.R.expect_end r;
  rep

(* The conflict class of a command: per-key commands conflict only on
   their key, whole-store commands (session expiry, prefix scans) are
   Global and get serialised by the executor barrier. A malformed payload
   touches nothing (it only produces an error reply). *)
let conflict_of_command = function
  | Put { key; _ } | Get key | Delete key | Incr { key; _ } ->
    Msmr_runtime.Service.Keys [ key ]
  | Expire_session _ | List_keys _ -> Msmr_runtime.Service.Global

module Store = struct
  type entry = {
    value : string;
    owner : int option;   (* session id for ephemeral keys *)
  }

  (* Sharded map, not a plain Hashtbl: with the parallel ServiceManager,
     [apply] runs concurrently from several executor threads for commands
     on different keys. Commands on the same key are serialised by the
     executor routing, and Global commands (plus snapshot/restore) only
     run with the executors quiescent. *)
  type t = {
    table : (string, entry) Cmap.t;
  }

  let create () = { table = Cmap.create ~shards:16 () }

  let apply t ~session cmd =
    match cmd with
    | Put { key; value; ephemeral } ->
      Cmap.set t.table key
        { value; owner = (if ephemeral then Some session else None) };
      Ok_unit
    | Get key ->
      Ok_value (Option.map (fun e -> e.value) (Cmap.find_opt t.table key))
    | Delete key ->
      Cmap.remove t.table key;
      Ok_unit
    | Incr { key; by } ->
      let current =
        match Cmap.find_opt t.table key with
        | Some e -> (try int_of_string e.value with Failure _ -> 0)
        | None -> 0
      in
      let next = current + by in
      Cmap.set t.table key { value = string_of_int next; owner = None };
      Ok_int next
    | Expire_session s ->
      let doomed =
        Cmap.fold
          (fun k e acc -> if e.owner = Some s then k :: acc else acc)
          t.table []
      in
      List.iter (Cmap.remove t.table) doomed;
      Ok_int (List.length doomed)
    | List_keys prefix ->
      let keys =
        Cmap.fold
          (fun k _ acc ->
             if String.starts_with ~prefix k then k :: acc else acc)
          t.table []
      in
      Ok_keys (List.sort compare keys)

  let snapshot t =
    let w = Codec.W.create () in
    (* Deterministic order so snapshots are comparable across replicas. *)
    let bindings =
      List.sort compare (Cmap.fold (fun k e acc -> (k, e) :: acc) t.table [])
    in
    Codec.W.i32 w (List.length bindings);
    List.iter
      (fun (k, (e : entry)) ->
         Codec.W.string w k;
         Codec.W.string w e.value;
         match e.owner with
         | None -> Codec.W.bool w false
         | Some s ->
           Codec.W.bool w true;
           Codec.W.int_as_i64 w s)
      bindings;
    Codec.W.contents w

  let restore t b =
    let r = Codec.R.of_bytes b in
    let count = Codec.R.i32 r in
    Cmap.clear t.table;
    for _ = 1 to count do
      let k = Codec.R.string r in
      let value = Codec.R.string r in
      let owner = if Codec.R.bool r then Some (Codec.R.int_from_i64 r) else None in
      Cmap.set t.table k { value; owner }
    done

  let size t = Cmap.length t.table

end

let make () =
  let store = Store.create () in
  { Msmr_runtime.Service.execute =
      (fun req ->
         let reply =
           match decode_command req.payload with
           | cmd -> Store.apply store ~session:req.id.client_id cmd
           | exception (Codec.Underflow | Codec.Malformed _) ->
             Error "malformed command"
         in
         encode_reply reply);
    snapshot = (fun () -> Store.snapshot store);
    restore = (fun b -> Store.restore store b);
    conflict_keys =
      (fun req ->
         match decode_command req.payload with
         | cmd -> conflict_of_command cmd
         | exception (Codec.Underflow | Codec.Malformed _) ->
           (* Touches no state; conflicts with nothing. *)
           Msmr_runtime.Service.Keys []) }
