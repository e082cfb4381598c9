module Codec = Msmr_wire.Codec
open Msmr_consensus

type event =
  | View of Types.view
  | Accepted of { iid : Types.iid; view : Types.view; value : Value.t }
  | Decided of { iid : Types.iid; view : Types.view }

let encode_event ev =
  let w = Codec.W.create () in
  (match ev with
   | View v ->
     Codec.W.u8 w 1;
     Codec.W.int_as_i64 w v
   | Accepted { iid; view; value } ->
     Codec.W.u8 w 2;
     Codec.W.int_as_i64 w iid;
     Codec.W.int_as_i64 w view;
     Value.encode w value
   | Decided { iid; view } ->
     Codec.W.u8 w 3;
     Codec.W.int_as_i64 w iid;
     Codec.W.int_as_i64 w view);
  Codec.W.contents w

let decode_event b =
  let r = Codec.R.of_bytes b in
  let ev =
    match Codec.R.u8 r with
    | 1 -> View (Codec.R.int_from_i64 r)
    | 2 ->
      let iid = Codec.R.int_from_i64 r in
      let view = Codec.R.int_from_i64 r in
      let value = Value.decode r in
      Accepted { iid; view; value }
    | 3 ->
      let iid = Codec.R.int_from_i64 r in
      let view = Codec.R.int_from_i64 r in
      Decided { iid; view }
    | n -> raise (Codec.Malformed (Printf.sprintf "wal event tag %d" n))
  in
  Codec.R.expect_end r;
  ev

type t = {
  dir : string;
  sync_policy : Wal.sync_policy;
  mutable wal : Wal.t;
  lock : Mutex.t;
  (* Store-level LSN: events logged through this handle. Unlike the
     WAL's per-handle record count it is monotone across the WAL swap a
     checkpoint performs, so callers can gate on it for the lifetime of
     the store. *)
  mutable lsn : int;
  mutable durable_lsn : int;
}

let checkpoint_path dir = Filename.concat dir "checkpoint"

let openw ?(sync = Wal.Sync_periodic) ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  { dir; sync_policy = sync; wal = Wal.openw ~dir ~sync ();
    lock = Mutex.create (); lsn = 0; durable_lsn = 0 }

(* The store lock orders appends/syncs against the WAL swap done by
   [checkpoint]. StableStorage contends on it with the checkpointing
   ServiceManager, so its paths ([log_batch], [sync]) account
   acquisition time as [Blocked], per the paper's profiling method. *)
let lock_acct ?st t =
  match st with
  | None -> Mutex.lock t.lock
  | Some st ->
    if Mutex.try_lock t.lock then ()
    else
      Msmr_platform.Thread_state.enter st Msmr_platform.Thread_state.Blocked
        (fun () -> Mutex.lock t.lock)

let log_event t ev =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  ignore (Wal.append t.wal (encode_event ev));
  t.lsn <- t.lsn + 1;
  (match t.sync_policy with
   | Wal.Sync_every_write -> t.durable_lsn <- t.lsn
   | Wal.Sync_periodic | Wal.No_sync -> ());
  t.lsn

let log_batch ?st t evs =
  lock_acct ?st t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  (match evs with
   | [] -> ()
   | evs ->
     (* One [Wal.append_many]: under [Sync_every_write] the whole batch
        shares a single fsync (group commit). *)
     ignore (Wal.append_many t.wal (List.map encode_event evs));
     t.lsn <- t.lsn + List.length evs;
     match t.sync_policy with
     | Wal.Sync_every_write -> t.durable_lsn <- t.lsn
     | Wal.Sync_periodic | Wal.No_sync -> ());
  t.lsn

let sync ?st t =
  lock_acct ?st t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  ignore (Wal.sync t.wal);
  t.durable_lsn <- t.lsn;
  t.durable_lsn

let lsn t = t.lsn
let durable_lsn t = t.durable_lsn

let close t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  Wal.close t.wal

let checkpoint ?(configs = []) t ~next_iid ~state =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let tmp = checkpoint_path t.dir ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let w = Codec.W.create ~initial:(Bytes.length state + 16) () in
  Codec.W.int_as_i64 w next_iid;
  Codec.W.bytes w state;
  (* Membership history (newest first), appended after the snapshot so
     pre-reconfiguration checkpoints (no trailing section) still read. *)
  if configs <> [] then Membership.encode_configs w configs;
  let payload = Codec.W.contents w in
  let frame = Bytes.create (8 + Bytes.length payload) in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length payload));
  Bytes.set_int32_be frame 4 (Crc32.digest_bytes payload);
  Bytes.blit payload 0 frame 8 (Bytes.length payload);
  let rec write_all ofs =
    if ofs < Bytes.length frame then
      write_all (ofs + Unix.write fd frame ofs (Bytes.length frame - ofs))
  in
  write_all 0;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp (checkpoint_path t.dir);
  (* All WAL records now describe instances the snapshot covers (the
     runtime checkpoints only decided-and-executed prefixes; later
     accepted-but-undecided entries are re-learnt via catch-up). The
     fsynced checkpoint supersedes the log, so everything logged so far
     counts as durable. *)
  Wal.close t.wal;
  Wal.reset ~dir:t.dir;
  t.wal <- Wal.openw ~dir:t.dir ~sync:t.sync_policy ();
  t.durable_lsn <- t.lsn

let read_checkpoint dir =
  let path = checkpoint_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let len = in_channel_length ic in
    if len < 8 then None
    else begin
      let frame = really_input_string ic len |> Bytes.of_string in
      let plen = Int32.to_int (Bytes.get_int32_be frame 0) in
      let crc = Bytes.get_int32_be frame 4 in
      if plen < 0 || 8 + plen > len then None
      else begin
        let payload = Bytes.sub frame 8 plen in
        if Crc32.digest_bytes payload <> crc then None
        else begin
          let r = Codec.R.of_bytes payload in
          let next_iid = Codec.R.int_from_i64 r in
          let state = Codec.R.bytes r in
          let configs =
            if Codec.R.remaining r = 0 then []
            else
              match Membership.decode_configs r with
              | cs -> cs
              | exception (Codec.Underflow | Codec.Malformed _) -> []
          in
          Some (next_iid, state, configs)
        end
      end
    end
  end

type recovered = {
  r_view : Types.view;
  r_accepted : (Types.iid * Types.view * Value.t) list;
  r_decided : (Types.iid * Types.view * Value.t) list;
  r_snapshot : (Types.iid * bytes) option;
  r_configs : (Types.iid * Membership.t) list;
}

let recover ~dir () =
  let ckpt = read_checkpoint dir in
  let snapshot = Option.map (fun (next, state, _) -> (next, state)) ckpt in
  let configs = match ckpt with Some (_, _, cs) -> cs | None -> [] in
  let low = match snapshot with Some (next, _) -> next | None -> 0 in
  let view = ref 0 in
  let accepted : (Types.iid, Types.view * Value.t) Hashtbl.t = Hashtbl.create 256 in
  let decided : (Types.iid, Types.view) Hashtbl.t = Hashtbl.create 256 in
  let count =
    Wal.replay ~dir (fun record ->
        match decode_event record with
        | View v -> if v > !view then view := v
        | Accepted { iid; view = v; value } ->
          if iid >= low then begin
            match Hashtbl.find_opt accepted iid with
            | Some (v0, _) when v0 >= v -> ()
            | Some _ | None -> Hashtbl.replace accepted iid (v, value)
          end
        | Decided { iid; view = v } ->
          if iid >= low then Hashtbl.replace decided iid v
        | exception (Codec.Underflow | Codec.Malformed _) ->
          (* CRC passed but the payload is from a future/unknown format:
             ignore the record. *)
          ())
  in
  ignore count;
  let r_decided =
    Hashtbl.fold
      (fun iid v acc ->
         match Hashtbl.find_opt accepted iid with
         | Some (_, value) -> (iid, v, value) :: acc
         | None -> acc)
      decided []
    |> List.sort compare
  in
  let r_accepted =
    Hashtbl.fold
      (fun iid (v, value) acc ->
         if Hashtbl.mem decided iid then acc else (iid, v, value) :: acc)
      accepted []
    |> List.sort compare
  in
  { r_view = !view; r_accepted; r_decided; r_snapshot = snapshot;
    r_configs = configs }
