type t = {
  n : int;
  window : int;
  max_batch_bytes : int;
  max_batch_delay_s : float;
  retransmit_interval_s : float;
  fd_interval_s : float;
  fd_timeout_s : float;
  catchup_interval_s : float;
  snapshot_every : int;
  log_retain : int;
  lease_enabled : bool;
  lease_duration_s : float;
  clock_skew_bound_s : float;
  members0 : int list;
}

let default ~n =
  {
    n;
    window = 10;
    max_batch_bytes = 1300;
    max_batch_delay_s = 0.05;
    retransmit_interval_s = 0.1;
    fd_interval_s = 0.1;
    fd_timeout_s = 0.5;
    catchup_interval_s = 0.05;
    snapshot_every = 10_000;
    log_retain = 1_000;
    lease_enabled = false;
    lease_duration_s = 2.0;
    clock_skew_bound_s = 0.1;
    members0 = [];
  }

(* The float checks in [validate_ranges] have the form [x <= 0.], which
   NaN passes, so [validate] refuses non-finite values first. *)
let non_finite t =
  List.find_map
    (fun (name, x) -> if Float.is_finite x then None else Some name)
    [ ("max_batch_delay_s", t.max_batch_delay_s);
      ("retransmit_interval_s", t.retransmit_interval_s);
      ("fd_interval_s", t.fd_interval_s);
      ("fd_timeout_s", t.fd_timeout_s);
      ("catchup_interval_s", t.catchup_interval_s);
      ("lease_duration_s", t.lease_duration_s);
      ("clock_skew_bound_s", t.clock_skew_bound_s) ]

let validate_ranges t =
  if t.n < 1 then Error "n must be >= 1"
  else if t.window < 1 then Error "window must be >= 1"
  else if t.max_batch_bytes < 1 then Error "max_batch_bytes must be >= 1"
  else if t.max_batch_delay_s <= 0. then Error "max_batch_delay_s must be > 0"
  else if t.retransmit_interval_s <= 0. then
    Error "retransmit_interval_s must be > 0"
  else if t.fd_interval_s <= 0. then Error "fd_interval_s must be > 0"
  else if t.fd_timeout_s <= t.fd_interval_s then
    Error "fd_timeout_s must exceed fd_interval_s"
  else if t.catchup_interval_s <= 0. then Error "catchup_interval_s must be > 0"
  else if t.snapshot_every < 0 then Error "snapshot_every must be >= 0"
  else if t.log_retain < 0 then Error "log_retain must be >= 0"
  else if t.lease_enabled && t.lease_duration_s <= 0. then
    Error "lease_duration_s must be > 0 when lease_enabled"
  else if t.lease_enabled && t.clock_skew_bound_s < 0. then
    Error "clock_skew_bound_s must be >= 0 when lease_enabled"
  else if t.lease_enabled && not (t.clock_skew_bound_s < t.lease_duration_s)
  then Error "clock_skew_bound_s must be < lease_duration_s when lease_enabled"
  (* Renewals run on their own deadline, every lease_duration_s / 3
     (Lease.next_ping_ns); the bound keeps that period longer than the
     leader's heartbeat interval. *)
  else if t.lease_enabled && not (t.lease_duration_s > 3. *. t.fd_interval_s)
  then
    Error
      "lease_duration_s must exceed 3 * fd_interval_s when lease_enabled \
       (the renewal period, lease_duration_s / 3, must exceed the \
       heartbeat interval)"
  else if
    t.members0 <> []
    && not
         (List.sort_uniq compare t.members0 = t.members0
         && List.for_all (fun p -> p >= 0 && p < t.n) t.members0)
  then Error "members0 must be sorted, unique node ids within [0, n)"
  else if t.members0 <> [] && not (List.mem 0 t.members0) then
    Error "members0 must contain node 0, the initial leader, so bootstrap \
           can activate"
  else Ok ()

let validate t =
  match non_finite t with
  | Some name -> Error (name ^ " must be finite")
  | None -> validate_ranges t

let f t = (t.n - 1) / 2
