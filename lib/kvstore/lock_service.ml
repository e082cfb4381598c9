module Codec = Msmr_wire.Codec
module Cmap = Msmr_platform.Concurrent_map

type command =
  | Acquire of string
  | Release of string
  | Holder of string
  | Expire_session of int

type reply =
  | Granted
  | Busy of int
  | Released
  | Not_holder
  | Holder_is of int option
  | Expired of int
  | Error of string

let encode_command cmd =
  Codec.W.with_pool @@ fun w ->
  (match cmd with
   | Acquire name ->
     Codec.W.u8 w 1;
     Codec.W.string w name
   | Release name ->
     Codec.W.u8 w 2;
     Codec.W.string w name
   | Holder name ->
     Codec.W.u8 w 3;
     Codec.W.string w name
   | Expire_session s ->
     Codec.W.u8 w 4;
     Codec.W.int_as_i64 w s);
  Codec.W.to_bytes w

let decode_command b =
  let r = Codec.R.of_bytes b in
  let cmd =
    match Codec.R.u8 r with
    | 1 -> Acquire (Codec.R.string r)
    | 2 -> Release (Codec.R.string r)
    | 3 -> Holder (Codec.R.string r)
    | 4 -> Expire_session (Codec.R.int_from_i64 r)
    | n -> raise (Codec.Malformed (Printf.sprintf "lock command tag %d" n))
  in
  Codec.R.expect_end r;
  cmd

let encode_reply rep =
  Codec.W.with_pool @@ fun w ->
  (match rep with
   | Granted -> Codec.W.u8 w 1
   | Busy holder ->
     Codec.W.u8 w 2;
     Codec.W.int_as_i64 w holder
   | Released -> Codec.W.u8 w 3
   | Not_holder -> Codec.W.u8 w 4
   | Holder_is None -> Codec.W.u8 w 5
   | Holder_is (Some s) ->
     Codec.W.u8 w 6;
     Codec.W.int_as_i64 w s
   | Expired n ->
     Codec.W.u8 w 7;
     Codec.W.int_as_i64 w n
   | Error msg ->
     Codec.W.u8 w 8;
     Codec.W.string w msg);
  Codec.W.to_bytes w

let decode_reply b =
  let r = Codec.R.of_bytes b in
  let rep =
    match Codec.R.u8 r with
    | 1 -> Granted
    | 2 -> Busy (Codec.R.int_from_i64 r)
    | 3 -> Released
    | 4 -> Not_holder
    | 5 -> Holder_is None
    | 6 -> Holder_is (Some (Codec.R.int_from_i64 r))
    | 7 -> Expired (Codec.R.int_from_i64 r)
    | 8 -> Error (Codec.R.string r)
    | n -> raise (Codec.Malformed (Printf.sprintf "lock reply tag %d" n))
  in
  Codec.R.expect_end r;
  rep

(* Single-lock commands conflict only on the lock's name; session expiry
   scans every lock and is Global. *)
let conflict_of_command = function
  | Acquire name | Release name | Holder name ->
    Msmr_runtime.Service.Keys [ name ]
  | Expire_session _ -> Msmr_runtime.Service.Global

let make () =
  (* Sharded map so [apply] may run concurrently for different lock names
     under the parallel ServiceManager. Commands on the same name are
     serialised by executor routing, so the find-then-set sequences below
     are race-free without a per-name CAS. *)
  let locks : (string, int) Cmap.t = Cmap.create ~shards:16 () in
  let apply ~session cmd =
    match cmd with
    | Acquire name -> (
        match Cmap.find_opt locks name with
        | None ->
          Cmap.set locks name session;
          Granted
        | Some holder when holder = session -> Granted (* re-entrant *)
        | Some holder -> Busy holder)
    | Release name -> (
        match Cmap.find_opt locks name with
        | Some holder when holder = session ->
          Cmap.remove locks name;
          Released
        | Some _ | None -> Not_holder)
    | Holder name -> Holder_is (Cmap.find_opt locks name)
    | Expire_session s ->
      let doomed =
        Cmap.fold
          (fun name holder acc -> if holder = s then name :: acc else acc)
          locks []
      in
      List.iter (Cmap.remove locks) doomed;
      Expired (List.length doomed)
  in
  let snapshot () =
    let w = Codec.W.create () in
    let bindings =
      List.sort compare (Cmap.fold (fun k v acc -> (k, v) :: acc) locks [])
    in
    Codec.W.i32 w (List.length bindings);
    List.iter
      (fun (name, holder) ->
         Codec.W.string w name;
         Codec.W.int_as_i64 w holder)
      bindings;
    Codec.W.contents w
  in
  let restore b =
    let r = Codec.R.of_bytes b in
    Cmap.clear locks;
    let count = Codec.R.i32 r in
    for _ = 1 to count do
      let name = Codec.R.string r in
      let holder = Codec.R.int_from_i64 r in
      Cmap.set locks name holder
    done
  in
  { Msmr_runtime.Service.execute =
      (fun req ->
         let reply =
           match decode_command req.payload with
           | cmd -> apply ~session:req.id.client_id cmd
           | exception (Codec.Underflow | Codec.Malformed _) ->
             Error "malformed command"
         in
         encode_reply reply);
    snapshot;
    restore;
    conflict_keys =
      (fun req ->
         match decode_command req.payload with
         | cmd -> conflict_of_command cmd
         | exception (Codec.Underflow | Codec.Malformed _) ->
           Msmr_runtime.Service.Keys []) }
