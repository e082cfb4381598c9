let log_src = Logs.Src.create "msmr.wal" ~doc:"Write-ahead log"

module Log_ = (val Logs.src_log log_src : Logs.LOG)
module Metrics = Msmr_obs.Metrics

type sync_policy =
  | Sync_every_write
  | Sync_periodic
  | No_sync

type t = {
  dir : string;
  segment_bytes : int;
  sync_policy : sync_policy;
  lock : Mutex.t;
  labels : Metrics.labels;
  m_syncs : Metrics.counter;
  m_group : Msmr_platform.Histogram.t;
  mutable fd : Unix.file_descr;
  mutable seg_index : int;
  mutable seg_size : int;
  mutable records : int;
  mutable synced : int;
  mutable closed : bool;
}

let segment_name dir index = Filename.concat dir (Printf.sprintf "wal-%06d.log" index)

let list_segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun name ->
        if String.length name = 14
           && String.starts_with ~prefix:"wal-" name
           && String.ends_with ~suffix:".log" name
        then int_of_string_opt (String.sub name 4 6)
        else None)
    |> List.sort compare

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

(* Scan one segment; returns the clean length and feeds records to [f]. *)
let scan_segment path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let file_len = (Unix.fstat fd).Unix.st_size in
  let hdr = Bytes.create 8 in
  let read_exactly buf len =
    let rec go ofs =
      if ofs >= len then true
      else
        match Unix.read fd buf ofs (len - ofs) with
        | 0 -> false
        | n -> go (ofs + n)
    in
    go 0
  in
  let rec go pos count =
    if pos + 8 > file_len then (pos, count)
    else if not (read_exactly hdr 8) then (pos, count)
    else begin
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      let crc = Bytes.get_int32_be hdr 4 in
      if len < 0 || pos + 8 + len > file_len then (pos, count)
      else begin
        let payload = Bytes.create len in
        if not (read_exactly payload len) then (pos, count)
        else if Crc32.digest_bytes payload <> crc then (pos, count)
        else begin
          f payload;
          go (pos + 8 + len) (count + 1)
        end
      end
    end
  in
  let clean, count = go 0 0 in
  (clean, count, file_len)

let replay ~dir f =
  match list_segments dir with
  | [] -> 0
  | segments ->
    let total = ref 0 in
    let rec go = function
      | [] -> ()
      | index :: rest ->
        let path = segment_name dir index in
        let clean, count, file_len = scan_segment path f in
        total := !total + count;
        if clean < file_len then begin
          (* Torn suffix: truncate here and drop any later segments. *)
          Log_.warn (fun m ->
              m "wal: truncating %s at %d (file %d) and dropping %d later segment(s)"
                path clean file_len (List.length rest));
          Unix.truncate path clean;
          List.iter (fun i -> Sys.remove (segment_name dir i)) rest
        end
        else go rest
    in
    go segments;
    !total

(* fsync the directory itself, so that a segment file just created
   keeps its directory entry across a crash. *)
let sync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let open_segment dir index =
  let fd =
    Unix.openfile (segment_name dir index)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  sync_dir dir;
  fd

let openw ?(segment_bytes = 64 * 1024 * 1024) ~dir ~sync () =
  ensure_dir dir;
  let seg_index =
    match List.rev (list_segments dir) with [] -> 0 | last :: _ -> last
  in
  let fd = open_segment dir seg_index in
  let seg_size = (Unix.fstat fd).Unix.st_size in
  let labels = [ ("dir", dir) ] in
  { dir; segment_bytes; sync_policy = sync; lock = Mutex.create ();
    labels;
    m_syncs = Metrics.counter ~labels "msmr_wal_sync_total";
    m_group = Metrics.histogram ~labels "msmr_wal_group_size";
    fd; seg_index; seg_size; records = 0; synced = 0; closed = false }

let write_all fd buf len =
  let rec go ofs =
    if ofs < len then go (ofs + Unix.write fd buf ofs (len - ofs))
  in
  go 0

(* Lock held. One fsync covers every record appended since the last
   sync — [records - synced] is the group size. This holds because
   [rotate] syncs a segment before it leaves it, so the unsynced records
   are all in the current one. The last-sync gauge is refreshed even
   when there is nothing to flush, so an idle periodic syncer stays
   distinguishable from a dead one. *)
let sync_locked t =
  if t.records > t.synced then begin
    Unix.fsync t.fd;
    Metrics.incr t.m_syncs;
    Msmr_platform.Histogram.record t.m_group (float_of_int (t.records - t.synced));
    t.synced <- t.records
  end;
  Metrics.set_gauge ~labels:t.labels "msmr_wal_last_sync_ns"
    (Int64.to_float (Msmr_platform.Mclock.now_ns ()));
  t.synced

(* Lock held. *)
let rotate t =
  ignore (sync_locked t);
  Unix.close t.fd;
  t.seg_index <- t.seg_index + 1;
  t.fd <- open_segment t.dir t.seg_index;
  t.seg_size <- 0

(* Lock held. Frames [payload] and appends it; returns the record's
   LSN (1-based count of records appended through this handle). *)
let append_locked t payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (8 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.set_int32_be frame 4 (Crc32.digest_bytes payload);
  Bytes.blit payload 0 frame 8 len;
  if t.seg_size > 0 && t.seg_size + 8 + len > t.segment_bytes then rotate t;
  write_all t.fd frame (8 + len);
  t.seg_size <- t.seg_size + 8 + len;
  t.records <- t.records + 1;
  t.records

let append t payload =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.closed then invalid_arg "Wal.append: closed";
  let lsn = append_locked t payload in
  (match t.sync_policy with
   | Sync_every_write -> ignore (sync_locked t)
   | Sync_periodic | No_sync -> ());
  lsn

let append_many t payloads =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.closed then invalid_arg "Wal.append_many: closed";
  let lsn = List.fold_left (fun _ p -> append_locked t p) t.records payloads in
  (* Group commit: the sync policy is applied once for the whole batch,
     so under [Sync_every_write] a single fsync makes every record in
     [payloads] durable together. *)
  (match t.sync_policy with
   | Sync_every_write -> ignore (sync_locked t)
   | Sync_periodic | No_sync -> ());
  lsn

let sync t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.closed then t.synced else sync_locked t

let close t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Unix.close t.fd;
    Metrics.remove ~labels:t.labels "msmr_wal_sync_total";
    Metrics.remove ~labels:t.labels "msmr_wal_group_size";
    Metrics.remove ~labels:t.labels "msmr_wal_last_sync_ns"
  end

let appended t = t.records
let synced t = t.synced

let reset ~dir =
  List.iter (fun i -> Sys.remove (segment_name dir i)) (list_segments dir)
