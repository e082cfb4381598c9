type t = {
  cfg : Config.t;
  me : Types.node_id;
  (* Timestamps in ns, stored as [int] so that concurrent single-word
     stores from ReplicaIO threads are atomic (no tearing). *)
  last_recv : int array;
  last_send : int array;
  mutable view : Types.view;
  mutable suspect_armed_ns : int;  (* leader silence measured from here *)
  mutable membership : Membership.t;
      (* current epoch's member set: heartbeats go only to members, and
         a detector whose own node is not a member stays silent *)
}

let ns64 i64 = Int64.to_int i64

let create cfg ~me ~now_ns =
  let now = ns64 now_ns in
  { cfg; me;
    last_recv = Array.make cfg.n now;
    last_send = Array.make cfg.n now;
    view = 0;
    suspect_armed_ns = now;
    membership = Membership.initial cfg }

let note_recv t ~from ~now_ns =
  if from >= 0 && from < t.cfg.n then t.last_recv.(from) <- ns64 now_ns

let note_send t ~dest ~now_ns =
  if dest >= 0 && dest < t.cfg.n then t.last_send.(dest) <- ns64 now_ns

let set_view t ~view ~now_ns =
  t.view <- view;
  t.suspect_armed_ns <- ns64 now_ns

(* Re-arm the peer set on a membership change: removed nodes stop being
   heartbeaten (and stop suspecting anyone), joiners get a fresh grace
   period so they are not instantly suspected from stale timestamps. *)
let set_membership t m ~now_ns =
  let now = ns64 now_ns in
  List.iter
    (fun p ->
      if not (Membership.is_member t.membership p) then begin
        t.last_recv.(p) <- now;
        t.last_send.(p) <- now
      end)
    (Membership.members m);
  t.membership <- m;
  t.suspect_armed_ns <- now

type verdict =
  | Heartbeat_to of Types.node_id list
  | Suspect of Types.node_id

let leader t = Types.leader_of_view ~n:t.cfg.n t.view

let interval_ns t = Int64.to_int (Msmr_platform.Mclock.ns_of_s t.cfg.fd_interval_s)
let timeout_ns t = Int64.to_int (Msmr_platform.Mclock.ns_of_s t.cfg.fd_timeout_s)

let poll t ~now_ns =
  let now = ns64 now_ns in
  if not (Membership.is_member t.membership t.me) then
    (* Fenced: a removed node neither heartbeats nor elects. *)
    []
  else if leader t = t.me then begin
    let stale = ref [] in
    for p = t.cfg.n - 1 downto 0 do
      if
        p <> t.me
        && Membership.is_member t.membership p
        && now - t.last_send.(p) >= interval_ns t
      then stale := p :: !stale
    done;
    match !stale with [] -> [] | peers -> [ Heartbeat_to peers ]
  end
  else begin
    let ldr = leader t in
    let last_alive = max t.last_recv.(ldr) t.suspect_armed_ns in
    if now - last_alive >= timeout_ns t then begin
      (* Re-arm so the verdict fires once per timeout period. *)
      t.suspect_armed_ns <- now;
      [ Suspect ldr ]
    end
    else []
  end

let next_wake_ns t ~now_ns =
  let now = ns64 now_ns in
  let at =
    if not (Membership.is_member t.membership t.me) then
      (* Fenced: [poll] stays silent until the next membership change. *)
      max_int
    else if leader t = t.me then begin
      (* Only the peers [poll] heartbeats: a non-member's timestamp is
         never refreshed and would keep the wake due. *)
      let earliest = ref max_int in
      for p = 0 to t.cfg.n - 1 do
        if p <> t.me && Membership.is_member t.membership p then
          earliest := min !earliest (t.last_send.(p) + interval_ns t)
      done;
      if !earliest = max_int then now + interval_ns t else !earliest
    end
    else begin
      let ldr = leader t in
      let last_alive = max t.last_recv.(ldr) t.suspect_armed_ns in
      last_alive + timeout_ns t
    end
  in
  Int64.of_int (max at now)
