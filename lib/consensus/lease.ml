type t = {
  cfg : Config.t;
  me : int;
  mutable view : int;
  (* Holder side: the in-flight renewal round and the lease it earned. *)
  mutable round_t0 : int;       (* t0 of the current round; -1 = none *)
  mutable grants : int list;    (* nodes whose grant named [round_t0] *)
  mutable last_ping_ns : int;   (* when the last round was started *)
  mutable held_until : int;     (* expiry on our clock; 0 = not held *)
  mutable renewal_count : int;
  (* Grantor side: at most one exclusive promise. *)
  mutable granted_to : int;     (* -1 = no promise ever made *)
  mutable promised_until : int;
}

let duration_ns cfg = int_of_float (cfg.Config.lease_duration_s *. 1e9)
let skew_ns cfg = int_of_float (cfg.Config.clock_skew_bound_s *. 1e9)

(* Renew at a third of the duration: two full rounds can be lost before
   the lease lapses. *)
let renew_every_ns cfg = duration_ns cfg / 3

let create cfg ~me ~view =
  {
    cfg;
    me;
    view;
    round_t0 = -1;
    grants = [];
    last_ping_ns = min_int;
    held_until = 0;
    renewal_count = 0;
    granted_to = -1;
    promised_until = 0;
  }

let set_view t ~view =
  if view <> t.view then begin
    t.view <- view;
    t.round_t0 <- -1;
    t.grants <- [];
    t.last_ping_ns <- min_int;
    t.held_until <- 0
  end

(* [last_ping_ns = min_int] means "never pinged" and must be tested
   explicitly: [now_ns - min_int] overflows to a negative number. *)
let ping_due t ~now_ns =
  t.last_ping_ns = min_int || now_ns - t.last_ping_ns >= renew_every_ns t.cfg

let next_ping_ns t =
  if t.last_ping_ns = min_int then min_int
  else t.last_ping_ns + renew_every_ns t.cfg

let make_ping t ~now_ns =
  t.round_t0 <- now_ns;
  t.grants <- [ t.me ];
  t.last_ping_ns <- now_ns;
  (* A singleton group is its own quorum: the lease is held the moment
     the round starts. *)
  if (t.cfg.Config.n / 2) + 1 <= 1 then begin
    t.held_until <-
      max t.held_until (now_ns + duration_ns t.cfg - skew_ns t.cfg);
    t.renewal_count <- t.renewal_count + 1
  end;
  Msg.Lease_ping { view = t.view; t0_ns = now_ns }

let on_ping t ~from ~view ~t0_ns ~now_ns =
  if view <> t.view then None
  else if from <> Types.leader_of_view ~n:t.cfg.Config.n view then None
  else if from = t.me then None
  else if
    (* Exclusive promise: while one is active, only its beneficiary may
       renew. Otherwise two nodes could hold overlapping leases. *)
    t.granted_to <> -1 && t.granted_to <> from && now_ns < t.promised_until
  then None
  else begin
    t.granted_to <- from;
    t.promised_until <- max t.promised_until (now_ns + duration_ns t.cfg);
    Some (Msg.Lease_grant { view; t0_ns })
  end

let on_grant t ~from ~view ~t0_ns ~quorum =
  if view <> t.view || t0_ns <> t.round_t0 || List.mem from t.grants then false
  else begin
    t.grants <- from :: t.grants;
    if List.length t.grants = quorum then begin
      (* [round_t0] predates every ping of this round, so each granting
         follower promises until at least [round_t0 + duration] on its
         own clock; padding our expiry by the skew bound keeps it inside
         every such promise. *)
      t.held_until <-
        max t.held_until (t.round_t0 + duration_ns t.cfg - skew_ns t.cfg);
      t.renewal_count <- t.renewal_count + 1;
      true
    end
    else false
  end

let held t ~now_ns = now_ns < t.held_until
let held_until_ns t = t.held_until
let promise_until_ns t = t.promised_until

let promise_blocks t ~candidate ~now_ns =
  t.granted_to <> -1 && t.granted_to <> candidate && now_ns < t.promised_until

let renewals t = t.renewal_count
