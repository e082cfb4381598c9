module Codec = Msmr_wire.Codec

type rtx_key =
  | Rtx_prepare of Types.view
  | Rtx_accept of Types.view * Types.iid

let pp_rtx_key ppf = function
  | Rtx_prepare v -> Format.fprintf ppf "rtx-prepare(v=%d)" v
  | Rtx_accept (v, i) -> Format.fprintf ppf "rtx-accept(v=%d,i=%d)" v i

type action =
  | Send of { dest : Types.node_id list; msg : Msg.t }
  | Execute of { iid : Types.iid; value : Value.t }
  | Schedule_rtx of { key : rtx_key; dest : Types.node_id list; msg : Msg.t }
  | Cancel_rtx of rtx_key
  | View_changed of {
      view : Types.view;
      leader : Types.node_id;
      i_am_leader : bool;
    }
  | Install_snapshot of { next_iid : Types.iid; state : bytes }
  | Membership_changed of {
      membership : Membership.t;
      effective_iid : Types.iid;
    }

let pp_action ppf = function
  | Send { dest; msg } ->
    Format.fprintf ppf "send[%s] %a"
      (String.concat "," (List.map string_of_int dest))
      Msg.pp msg
  | Execute { iid; value } ->
    Format.fprintf ppf "execute(%d, %a)" iid Value.pp value
  | Schedule_rtx { key; _ } -> Format.fprintf ppf "schedule %a" pp_rtx_key key
  | Cancel_rtx key -> Format.fprintf ppf "cancel %a" pp_rtx_key key
  | View_changed { view; leader; i_am_leader } ->
    Format.fprintf ppf "view_changed(v=%d, leader=%d%s)" view leader
      (if i_am_leader then ", me" else "")
  | Install_snapshot { next_iid; _ } ->
    Format.fprintf ppf "install_snapshot(next=%d)" next_iid
  | Membership_changed { membership; effective_iid } ->
    Format.fprintf ppf "membership_changed(%a, effective=%d)" Membership.pp
      membership effective_iid

type stats = {
  mutable decided : int;
  mutable noops_decided : int;
  mutable view_changes : int;
  mutable catchup_queries_sent : int;
  mutable msgs_in : int;
  mutable msgs_out : int;
}

type preparing = {
  p_view : Types.view;
  oks : (Types.node_id, Msg.log_entry list * Types.iid) Hashtbl.t;
}

type t = {
  cfg : Config.t;
  me : Types.node_id;
  mutable window : int; (* WND in force: cfg.window unless retuned online *)
  log : Log.t;
  mutable view : Types.view;
  mutable active : bool;             (* I lead [view] and Phase 1 is done *)
  mutable preparing : preparing option;
  mutable pending : Batch.t list;    (* proposals deferred by a full window,
                                        newest first *)
  mutable decided_hint : Types.iid;  (* 1 + highest instance known decided
                                        somewhere in the group *)
  mutable catchup_outstanding : int; (* ticks to wait before re-querying *)
  mutable snapshot : (Types.iid * bytes) option;
  live_rtx : (rtx_key, unit) Hashtbl.t;
      (* retransmissions scheduled and not yet cancelled; all are
         view-specific, so they are flushed when the view changes *)
  mutable configs : (Types.iid * Membership.t) list;
      (* membership history, newest first; each entry (s, m) means [m]
         governs instances iid >= s until a newer entry's start. The
         boot entry is (0, Membership.initial cfg) and the list is
         pruned once older configs govern only decided instances. *)
  mutable mchanges : (Membership.t * Types.iid) list;
      (* adopted-but-unreported config changes, oldest first; drained
         into Membership_changed actions at the public entry points *)
  mutable reconfig_pending : bool;
      (* a Value.Reconfig we opened is in flight; block further
         proposals until it executes so reconfigs serialize *)
  stats : stats;
}

let create ?(view0 = 0) cfg ~me =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error e -> invalid_arg ("Paxos.create: " ^ e));
  if me < 0 || me >= cfg.n then invalid_arg "Paxos.create: bad node id";
  if view0 < 0 then invalid_arg "Paxos.create: view0 must be >= 0";
  { cfg; me; window = cfg.window; log = Log.create (); view = view0;
    active = false; preparing = None;
    pending = []; decided_hint = 0; catchup_outstanding = 0; snapshot = None;
    live_rtx = Hashtbl.create 64;
    configs = [ (0, Membership.initial cfg) ];
    mchanges = [];
    reconfig_pending = false;
    stats =
      { decided = 0; noops_decided = 0; view_changes = 0;
        catchup_queries_sent = 0; msgs_in = 0; msgs_out = 0 } }

let me t = t.me
let view t = t.view
let leader t = Types.leader_of_view ~n:t.cfg.n t.view
let is_leader t = t.active && leader t = t.me
let log t = t.log
let stats t = t.stats
let window_in_use t = Log.in_flight t.log
let window t = t.window
let set_window t w = t.window <- max 1 w

(* ------------------------------------------------------------------ *)
(* Membership epochs (DESIGN.md section 17)                            *)

let newest_membership t = snd (List.hd t.configs)
let configs t = t.configs

(* The membership governing instance [iid]: the newest config whose
   start is <= iid (the boot entry starts at 0, so one always exists). *)
let membership_at t iid =
  let rec go = function
    | (s, m) :: _ when iid >= s -> m
    | _ :: rest -> go rest
    | [] -> snd (List.hd t.configs)
  in
  go t.configs

(* A decided Reconfig at instance d takes effect at d + alpha. The
   window invariant (a leader opens instance i only when everything
   below i - window + 1 .. is within its window of first_undecided)
   guarantees whoever opens instance d + alpha has already decided —
   and hence executed — instance d, so every replica switches at the
   same instance. Alpha is the *static* window, never a retuned one,
   which could diverge across replicas; the simulator therefore refuses
   a reconfiguration schedule while its controller retunes WND. *)
let alpha t = t.cfg.window

(* Drop configs that no longer govern any undecided instance. *)
let prune_configs t =
  let fu = Log.first_undecided t.log in
  let rec keep = function
    | ((s, _) as c) :: rest when s > fu -> c :: keep rest
    | c :: _ -> [ c ]
    | [] -> []
  in
  t.configs <- keep t.configs

(* Adopt a Reconfig as it *executes* (executions are strictly ordered,
   so epochs chain deterministically even when decides arrive out of
   log order). A node that is no longer a voter deactivates: it stops
   proposing, heartbeating and serving; see suspect_leader for the
   matching election fence. *)
let adopt_reconfig t ~decided_at m =
  t.reconfig_pending <- false;
  let cur = newest_membership t in
  if m.Membership.epoch = cur.Membership.epoch + 1 then begin
    let eff = decided_at + alpha t in
    t.configs <- (eff, m) :: t.configs;
    t.mchanges <- t.mchanges @ [ (m, eff) ];
    if t.active && not (Membership.is_voter m t.me) then t.active <- false
  end

let drain_mchanges t =
  let l = t.mchanges in
  t.mchanges <- [];
  List.map
    (fun (m, eff) -> Membership_changed { membership = m; effective_iid = eff })
    l

(* Tack adopted config changes onto an action list; the static path
   ([] changes) returns [acts] untouched. *)
let with_mchanges t acts =
  match t.mchanges with [] -> acts | _ -> acts @ drain_mchanges t

let others t =
  match t.configs with
  | [ (_, m) ] when Membership.n_voters m = t.cfg.n ->
    List.filter (fun p -> p <> t.me) (List.init t.cfg.n Fun.id)
  | configs ->
    let ms = List.concat_map (fun (_, m) -> Membership.members m) configs in
    List.filter (fun p -> p <> t.me) (List.sort_uniq compare ms)

let send t dest msg =
  t.stats.msgs_out <- t.stats.msgs_out + List.length dest;
  Send { dest; msg }

let schedule_rtx t key dest msg =
  Hashtbl.replace t.live_rtx key ();
  Schedule_rtx { key; dest; msg }

let cancel_rtx t key =
  Hashtbl.remove t.live_rtx key;
  Cancel_rtx key

(* View-specific retransmissions become junk when the view changes:
   receivers would ignore them, but the retransmitter would replay them
   forever. Cancel them all. *)
let cancel_all_rtx t =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.live_rtx [] in
  List.map (cancel_rtx t) keys

(* Drain contiguous decided instances into Execute actions. Reconfigs
   are adopted here, at their execution point, so the epoch chain is
   applied in strict log order on every replica. *)
let drain_executions t =
  let rec go acc =
    match Log.next_to_execute t.log with
    | None -> List.rev acc
    | Some (iid, value) ->
      Log.mark_executed t.log iid;
      (match value with
       | Value.Reconfig m -> adopt_reconfig t ~decided_at:iid m
       | Value.Noop | Value.Batch _ -> ());
      go (Execute { iid; value } :: acc)
  in
  go []

let self_ack_bit t = 1 lsl t.me

let popcount bits =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go bits 0

let decide_locally t iid view value =
  if Log.decide t.log iid view value then begin
    t.stats.decided <- t.stats.decided + 1;
    (match value with
     | Value.Noop -> t.stats.noops_decided <- t.stats.noops_decided + 1
     | Value.Batch _ | Value.Reconfig _ -> ());
    if iid + 1 > t.decided_hint then t.decided_hint <- iid + 1;
    (match t.configs with _ :: _ :: _ -> prune_configs t | _ -> ());
    true
  end
  else false

(* Propose [value] for [iid] in the current view: accept locally, count
   our own vote, broadcast Accept and schedule its retransmission. The
   quorum is the voter majority of the membership governing [iid]; our
   own vote counts only if we are a voter there. *)
let open_instance t iid value =
  (match value with
   | Value.Reconfig _ -> t.reconfig_pending <- true
   | Value.Noop | Value.Batch _ -> ());
  Log.accept t.log iid t.view value;
  let e = Log.get_or_create t.log iid in
  e.acks <- self_ack_bit t;
  let msg = Msg.Accept { view = t.view; iid; value } in
  let m = membership_at t iid in
  let self_votes = if Membership.is_voter m t.me then 1 else 0 in
  if Membership.quorum m <= self_votes then begin
    (* Singleton voter set: our own vote is a majority. Learners (if
       any) still get the stream so they can follow the log. *)
    ignore (decide_locally t iid t.view value);
    let learner_feed =
      match others t with
      | [] -> []
      | dests ->
        [ send t dests msg; send t dests (Msg.Decide { view = t.view; iid }) ]
    in
    learner_feed @ drain_executions t
  end
  else
    [ send t (others t) msg;
      schedule_rtx t (Rtx_accept (t.view, iid)) (others t) msg ]

let can_propose t =
  t.active && t.preparing = None && (not t.reconfig_pending)
  && Log.in_flight t.log < t.window
  && t.pending = []

(* Propose deferred batches while the window allows. *)
let flush_pending t =
  let rec go acc =
    if
      t.active && (not t.reconfig_pending)
      && Log.in_flight t.log < t.window
      && t.pending <> []
    then begin
      match List.rev t.pending with
      | [] -> acc
      | oldest :: rest_rev ->
        t.pending <- List.rev rest_rev;
        go (acc @ open_instance t (Log.next_unused t.log) (Value.Batch oldest))
    end
    else acc
  in
  go []

let propose t batch =
  let acts =
    if
      t.active && t.preparing = None && (not t.reconfig_pending)
      && Log.in_flight t.log < t.window
      && t.pending = []
    then open_instance t (Log.next_unused t.log) (Value.Batch batch)
    else begin
      t.pending <- batch :: t.pending;
      flush_pending t
    end
  in
  with_mchanges t acts

(* Adopt view [v] as a follower, cancelling everything specific to the
   previous view. Returns the actions to emit. *)
let enter_view t v =
  t.view <- v;
  t.active <- false;
  t.preparing <- None;
  t.reconfig_pending <- false;
  t.stats.view_changes <- t.stats.view_changes + 1;
  cancel_all_rtx t
  @ [ View_changed
        { view = v;
          leader = Types.leader_of_view ~n:t.cfg.n v;
          i_am_leader = false } ]

(* ------------------------------------------------------------------ *)
(* Phase 1                                                             *)

(* Phase 1 must gather a *joint* quorum: a voter majority of every
   membership that still governs some undecided instance (the config in
   force at first_undecided plus every newer one). With a single static
   config this degenerates to the classic majority of n. Learner and
   stranger replies are stored but never counted. *)
let prepare_quorum_met t (prep : preparing) =
  let fu = Log.first_undecided t.log in
  let rec relevant = function
    | [] -> []
    | (s, m) :: rest -> if s > fu then m :: relevant rest else [ m ]
  in
  List.for_all
    (fun m ->
      let votes =
        Hashtbl.fold
          (fun node _ acc ->
            if Membership.is_voter m node then acc + 1 else acc)
          prep.oks 0
        + (if Membership.is_voter m t.me then 1 else 0)
      in
      votes >= Membership.quorum m)
    (relevant t.configs)

let rec start_prepare t v =
  let cancels = cancel_all_rtx t in
  t.view <- v;
  t.active <- false;
  t.reconfig_pending <- false;
  t.stats.view_changes <- t.stats.view_changes + 1;
  let prep = { p_view = v; oks = Hashtbl.create 8 } in
  t.preparing <- Some prep;
  let from_iid = Log.first_undecided t.log in
  let msg = Msg.Prepare { view = v; from_iid } in
  let view_changed =
    View_changed { view = v; leader = t.me; i_am_leader = false }
  in
  if prepare_quorum_met t prep then
    (* Our own log alone is a joint quorum (singleton voter set). *)
    cancels @ (view_changed :: finish_prepare t)
  else
    cancels
    @ [ view_changed;
        send t (others t) msg;
        schedule_rtx t (Rtx_prepare v) (others t) msg ]

and finish_prepare t =
  let prep = Option.get t.preparing in
  let v = prep.p_view in
  t.preparing <- None;
  t.active <- true;
  (* Merge: first adopt every decision reported by the quorum, then
     re-propose, in view [v], the highest-view accepted value for every
     retained undecided instance (Noop where nothing was accepted). *)
  let decided_entries = ref [] in
  let best : (Types.iid, Types.view * Value.t) Hashtbl.t = Hashtbl.create 64 in
  let hi = ref (Log.next_unused t.log) in
  Hashtbl.iter
    (fun _node (entries, _fu) ->
       List.iter
         (fun (e : Msg.log_entry) ->
            if e.e_iid + 1 > !hi then hi := e.e_iid + 1;
            if e.e_decided then decided_entries := e :: !decided_entries
            else
              match Hashtbl.find_opt best e.e_iid with
              | Some (bv, _) when bv >= e.e_view -> ()
              | Some _ | None ->
                Hashtbl.replace best e.e_iid (e.e_view, e.e_value))
         entries)
    prep.oks;
  List.iter
    (fun (e : Msg.log_entry) ->
       ignore (decide_locally t e.e_iid e.e_view e.e_value))
    !decided_entries;
  let exec0 = drain_executions t in
  (* Re-propose everything undecided in [first_undecided, hi). *)
  let reproposals = ref [] in
  for iid = Log.first_undecided t.log to !hi - 1 do
    if not (Log.is_decided t.log iid) then begin
      let own =
        match Log.get t.log iid with
        | Some { accepted_view; value = Some value; _ } when accepted_view >= 0 ->
          Some (accepted_view, value)
        | Some _ | None -> None
      in
      let merged =
        match (own, Hashtbl.find_opt best iid) with
        | Some (ov, oval), Some (bv, bval) ->
          if ov >= bv then Some (ov, oval) else Some (bv, bval)
        | Some x, None -> Some x
        | None, Some x -> Some x
        | None, None -> None
      in
      let value = match merged with Some (_, v) -> v | None -> Value.Noop in
      reproposals := List.rev_append (open_instance t iid value) !reproposals
    end
  done;
  let became =
    View_changed { view = v; leader = t.me; i_am_leader = true }
  in
  (cancel_rtx t (Rtx_prepare v) :: became :: exec0)
  @ List.rev !reproposals
  @ flush_pending t

let suspect_leader t =
  if
    (* Epoch fence: only a voter of the newest membership may run for
       leadership. Learners (joiners still catching up) and removed
       nodes never activate a view, so a stale or half-caught-up node
       can never become leader. *)
    not (Membership.is_voter (newest_membership t) t.me)
  then []
  else if is_leader t then []
  else if
    (* Already racing for leadership of a view we proposed. *)
    match t.preparing with Some p -> p.p_view >= t.view | None -> false
  then []
  else begin
    let v = Types.next_view_led_by ~n:t.cfg.n ~after:t.view t.me in
    with_mchanges t (start_prepare t v)
  end

(* ------------------------------------------------------------------ *)
(* Catch-up                                                            *)

let catchup_reply_max_entries = 200

(* Snapshots travel with the membership history so a joiner that
   installs one also learns the epoch chain it skipped over. The
   service-state bytes are wrapped engine-side (and unwrapped in
   handle_catchup_reply), keeping the Msg wire format untouched. *)
let wrap_snapshot t state =
  let w = Codec.W.create () in
  Membership.encode_configs w t.configs;
  Codec.W.bytes w state;
  Codec.W.to_bytes w

let unwrap_snapshot b =
  let r = Codec.R.of_bytes b in
  let configs = Membership.decode_configs r in
  let state = Codec.R.bytes r in
  (configs, state)

let make_catchup_reply t ~from_iid ~to_iid =
  let lo = max from_iid (Log.low_mark t.log) in
  let to_iid = min to_iid (lo + catchup_reply_max_entries) in
  let entries = Log.decided_range t.log ~from_iid:lo ~to_iid in
  let snapshot =
    match t.snapshot with
    | Some (next_iid, state) when from_iid < Log.low_mark t.log
                                  && next_iid > from_iid ->
      Some (next_iid, wrap_snapshot t state)
    | Some _ | None -> None
  in
  Msg.Catchup_reply { entries; snapshot }

let catchup_due t =
  t.catchup_outstanding > 0
  || (t.decided_hint > Log.first_undecided t.log && not (is_leader t))

let tick_catchup t =
  if t.catchup_outstanding > 0 then begin
    t.catchup_outstanding <- t.catchup_outstanding - 1;
    []
  end
  else begin
    let fu = Log.first_undecided t.log in
    if t.decided_hint > fu && not (is_leader t) then begin
      t.stats.catchup_queries_sent <- t.stats.catchup_queries_sent + 1;
      (* Allow a few ticks for the reply before asking again. *)
      t.catchup_outstanding <- 3;
      let target = leader t in
      let target = if target = t.me then (t.me + 1) mod t.cfg.n else target in
      (* Query a current member: the universe-based fallback above can
         point at a node outside the membership (e.g. a removed one). *)
      let target =
        let m = newest_membership t in
        if Membership.is_member m target then target
        else
          match List.filter (fun p -> p <> t.me) (Membership.members m) with
          | p :: _ -> p
          | [] -> target
      in
      [ send t [ target ]
          (Msg.Catchup_query { from_iid = fu; to_iid = t.decided_hint }) ]
    end
    else []
  end

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)

let handle_prepare t ~from ~view:v ~from_iid =
  if v < t.view then []
  else begin
    let pre = if v > t.view || t.active then enter_view t v else [] in
    t.view <- v;
    let reply =
      Msg.Prepare_ok
        { view = v;
          first_undecided = Log.first_undecided t.log;
          entries = Log.entries_from t.log from_iid }
    in
    pre @ [ send t [ from ] reply ]
  end

let handle_prepare_ok t ~from ~view:v ~first_undecided ~entries =
  match t.preparing with
  | Some prep when prep.p_view = v ->
    if not (Hashtbl.mem prep.oks from) then
      Hashtbl.replace prep.oks from (entries, first_undecided);
    if prepare_quorum_met t prep then finish_prepare t else []
  | Some _ | None -> []

let handle_accept t ~from ~view:v ~iid ~value =
  if v < t.view then []
  else begin
    let pre = if v > t.view then enter_view t v else [] in
    if iid > t.decided_hint then t.decided_hint <- iid;
    if iid < Log.low_mark t.log then pre
    else begin
      if not (Log.is_decided t.log iid) then Log.accept t.log iid v value;
      pre @ [ send t [ from ] (Msg.Accepted { view = v; iid }) ]
    end
  end

let handle_accepted t ~from ~view:v ~iid =
  if not (t.active && v = t.view) then []
  else
    match Log.get t.log iid with
    | Some e when (not e.decided) && e.accepted_view = v ->
      e.acks <- e.acks lor (1 lsl from);
      let m = membership_at t iid in
      if
        popcount (e.acks land Membership.voter_mask m) >= Membership.quorum m
      then begin
        let value = Option.get e.value in
        ignore (decide_locally t iid v value);
        let decide_msg = Msg.Decide { view = v; iid } in
        (* Drain before flushing: executing a Reconfig clears the
           proposal barrier, and the batches queued behind it must
           resume now, not at the next event. *)
        let cancel = cancel_rtx t (Rtx_accept (v, iid)) in
        let execs = drain_executions t in
        let flushed = flush_pending t in
        (cancel :: send t (others t) decide_msg :: execs) @ flushed
      end
      else []
    | Some _ | None -> []

let handle_decide t ~from ~view:v_chosen ~iid =
  if iid + 1 > t.decided_hint then t.decided_hint <- iid + 1;
  if Log.is_decided t.log iid then []
  else
    match Log.get t.log iid with
    | Some { accepted_view; value = Some value; _ }
      when accepted_view = v_chosen ->
      ignore (decide_locally t iid v_chosen value);
      let execs = drain_executions t in
      execs @ flush_pending t
    | Some _ | None ->
      (* We never accepted the chosen value: fetch it. *)
      if t.catchup_outstanding > 0 then []
      else begin
        t.catchup_outstanding <- 3;
        t.stats.catchup_queries_sent <- t.stats.catchup_queries_sent + 1;
        [ send t [ from ]
            (Msg.Catchup_query
               { from_iid = Log.first_undecided t.log; to_iid = iid + 1 }) ]
      end

let handle_catchup_reply t ~entries ~snapshot =
  t.catchup_outstanding <- 0;
  let snap_actions =
    match snapshot with
    | Some (next_iid, wrapped) when next_iid > Log.first_unexecuted t.log ->
      let configs, state = unwrap_snapshot wrapped in
      (match configs with
       | (eff, m_new) :: _
         when m_new.Membership.epoch
              > (newest_membership t).Membership.epoch ->
         (* Adopt the sender's (strictly newer) epoch chain wholesale:
            the instances that would have walked us there are below the
            snapshot point. *)
         t.configs <- configs;
         t.mchanges <- t.mchanges @ [ (m_new, eff) ];
         if t.active && not (Membership.is_voter m_new t.me) then
           t.active <- false
       | _ -> ());
      Log.fast_forward t.log next_iid;
      [ Install_snapshot { next_iid; state } ]
    | Some _ | None -> []
  in
  List.iter
    (fun (e : Msg.log_entry) ->
       if e.e_decided then
         ignore (decide_locally t e.e_iid e.e_view e.e_value))
    entries;
  let execs = drain_executions t in
  snap_actions @ execs @ flush_pending t

let receive t ~from msg =
  t.stats.msgs_in <- t.stats.msgs_in + 1;
  with_mchanges t
  @@
  match msg with
  | Msg.Prepare { view; from_iid } -> handle_prepare t ~from ~view ~from_iid
  | Msg.Prepare_ok { view; first_undecided; entries } ->
    handle_prepare_ok t ~from ~view ~first_undecided ~entries
  | Msg.Accept { view; iid; value } -> handle_accept t ~from ~view ~iid ~value
  | Msg.Accepted { view; iid } -> handle_accepted t ~from ~view ~iid
  | Msg.Decide { view; iid } -> handle_decide t ~from ~view ~iid
  | Msg.Catchup_query { from_iid; to_iid } ->
    [ send t [ from ] (make_catchup_reply t ~from_iid ~to_iid) ]
  | Msg.Catchup_reply { entries; snapshot } ->
    handle_catchup_reply t ~entries ~snapshot
  | Msg.Heartbeat { view; first_undecided } ->
    if first_undecided > t.decided_hint then t.decided_hint <- first_undecided;
    if view > t.view then enter_view t view else []
  (* Lease traffic is handled entirely by the runtime's Lease manager
     (before the engine sees peer messages); the clock-free engine
     ignores it so a stray delivery is harmless. *)
  | Msg.Lease_ping _ | Msg.Lease_grant _ -> []

(* Activating the initial view's leader without Phase 1 is safe on a
   fresh group: nothing can have been accepted in an earlier view (with
   [view0 = 0] there is no earlier view; a multi-group [view0 = gid]
   starts the whole group at that view). *)
let bootstrap t =
  let view = t.view in
  let leader = Types.leader_of_view ~n:t.cfg.n view in
  if t.me = leader && Membership.is_voter (newest_membership t) t.me then begin
    t.active <- true;
    [ View_changed { view; leader; i_am_leader = true } ]
  end
  else [ View_changed { view; leader; i_am_leader = false } ]

let recover ?configs:(configs0 = []) cfg ~me ~view ~accepted ~decided ~snapshot
    =
  let t = create cfg ~me in
  (match configs0 with [] -> () | l -> t.configs <- l);
  t.view <- view;
  t.active <- false;
  (match snapshot with
   | Some (next_iid, state) ->
     t.snapshot <- Some (next_iid, state);
     Log.fast_forward t.log next_iid
   | None -> ());
  List.iter (fun (iid, v, value) -> Log.accept t.log iid v value) accepted;
  List.iter (fun (iid, v, value) -> ignore (decide_locally t iid v value)) decided;
  let replays =
    (match snapshot with
     | Some (next_iid, state) -> [ Install_snapshot { next_iid; state } ]
     | None -> [])
    @ drain_executions t
  in
  let view_changed =
    View_changed
      { view; leader = Types.leader_of_view ~n:cfg.Config.n view;
        i_am_leader = false }
  in
  (* If this node used to lead, it must re-run Phase 1 before proposing;
     start immediately rather than waiting for someone to suspect the
     silent old view. *)
  let restart =
    if
      Types.leader_of_view ~n:cfg.Config.n view = me
      && Membership.is_voter (newest_membership t) me
    then start_prepare t (Types.next_view_led_by ~n:cfg.Config.n ~after:view me)
    else []
  in
  (t, with_mchanges t ((view_changed :: replays) @ restart))

(* Order a membership change through the log. Only the active leader —
   itself a voter of the newest epoch — may open one; [m] must be the
   next epoch (as built by Membership.add_learner/promote/remove from
   the current membership). Returns [] when the change cannot be opened
   right now (not leader, window full, a reconfig already in flight, or
   a stale epoch) — callers retry. *)
let propose_reconfig t m =
  let cur = newest_membership t in
  if
    t.active && t.preparing = None
    && (not t.reconfig_pending)
    && Log.in_flight t.log < t.window
    && m.Membership.epoch = cur.Membership.epoch + 1
    && Membership.is_voter cur t.me
  then
    with_mchanges t
      (* A singleton voter set decides (and executes) the Reconfig
         inside [open_instance]; batches queued behind the barrier must
         resume immediately, hence the trailing flush. *)
      (let opened = open_instance t (Log.next_unused t.log) (Value.Reconfig m) in
       opened @ flush_pending t)
  else []

let membership t = newest_membership t
let reconfig_in_flight t = t.reconfig_pending
let reconfig_alpha t = alpha t

let note_snapshot t ~next_iid ~state =
  (match t.snapshot with
   | Some (existing, _) when existing >= next_iid -> ()
   | Some _ | None ->
     t.snapshot <- Some (next_iid, state);
     Log.truncate_below t.log (max 0 (next_iid - t.cfg.log_retain)));
  []
