module Ch = Msmr_platform.Channel
module Thread_state = Msmr_platform.Thread_state
module Counter = Msmr_platform.Rate_meter.Counter

(* Work-stealing pool. Naively stealing *requests* from a sibling's
   queue would break the ordering contract (two same-key requests could
   run concurrently on two executors), so stealing is done at lane
   granularity:

   - Requests are sharded over [n_lanes >> n_exec] SPSC lane rings; the
     scheduler is the only producer of every lane.
   - A lane with work is represented by a unique *token* (the lane id)
     sitting in exactly one executor's MPMC token ring. The token is
     minted when [lane_pending] goes 0 -> 1 and dies when the draining
     executor brings it back to 0; the fetch-and-add transitions make
     mint/retire atomic, so a lane never has two tokens.
   - Only the token holder pops the lane. Executors steal *tokens* —
     half of a victim's ring — so a hot shard's lanes spread over idle
     siblings while each lane (hence each key) stays single-consumer,
     in decide order.

   Items are pushed to the lane ring *before* the [lane_pending]
   increment, so a freshly minted or re-checked token always finds its
   items published.

   Waiting is [Channel]'s park. A full lane parks the scheduler in
   [put] until the token holder pops. An executor whose ring is empty
   makes one steal scan, then parks in [take] on its own ring, so only
   a token landing there wakes it. Steal semantics are those of the
   condvar broadcast this replaced: that woke every parked executor,
   but each parked again unless its own ring had filled, so the wake a
   thief sent after stealing never had an effect. *)
type 'a t = {
  n_exec : int;
  n_lanes : int;
  lanes : 'a Ch.t array;
  lane_pending : int Atomic.t array;
  token_qs : int Ch.t array; (* lane ids; one ring per executor *)
  seeds : int array; (* per-executor LCG state for victim choice *)
  (* Quiescence barrier state: dispatched-but-unfinished requests. *)
  pending : int Atomic.t;
  mu : Mutex.t;
  cv : Condition.t;
  dispatched : Counter.t;
  barriers : Counter.t;
  steals : Counter.t;
  steal_fails : Counter.t;
  mutable rr : int; (* round-robin lane cursor; scheduler-private *)
}

(* Lanes per executor: enough that a hot executor's lanes can be split
   among siblings, few enough that the token rings and the scheduler's
   routing table stay tiny. *)
let lanes_per_exec = 8

let lane_capacity = 1024

let create ~n_exec () =
  if n_exec < 1 then invalid_arg "Exec_pool.create: n_exec < 1";
  let n_lanes = lanes_per_exec * n_exec in
  {
    n_exec;
    n_lanes;
    lanes =
      Array.init n_lanes (fun _ -> Ch.create ~name:"exec_lane" ~kind:Ch.Spsc ~capacity:lane_capacity);
    lane_pending = Array.init n_lanes (fun _ -> Atomic.make 0);
    (* Every live token could in principle sit in one ring. *)
    token_qs =
      Array.init n_exec (fun _ -> Ch.create ~name:"exec_tokens" ~kind:Ch.Mpmc ~capacity:n_lanes);
    seeds = Array.init n_exec (fun i -> (i * 2654435761) lor 1);
    pending = Atomic.make 0;
    mu = Mutex.create ();
    cv = Condition.create ();
    dispatched = Counter.create ();
    barriers = Counter.create ();
    steals = Counter.create ();
    steal_fails = Counter.create ();
    rr = 0;
  }

let n_exec t = t.n_exec
let lanes t = t.n_lanes
let dispatched t = Counter.get t.dispatched
let barriers t = Counter.get t.barriers
let steals t = Counter.get t.steals
let steal_fails t = Counter.get t.steal_fails

let idle t = Atomic.get t.pending = 0

let depth t = Array.fold_left (fun acc l -> acc + Ch.length l) 0 t.lanes

(* Executor-side completion: the last in-flight request wakes the
   scheduler if it is blocked in a barrier. The broadcast takes the
   mutex, and the scheduler re-checks the counter under it, so the
   wake-up cannot be lost. *)
let complete t =
  if Atomic.fetch_and_add t.pending (-1) = 1 then begin
    Mutex.lock t.mu;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu
  end

(* Quiescence barrier: wait until every dispatched request has executed.
   Run only from the scheduler thread, which is also the only
   dispatcher, so the counter cannot grow while we wait. *)
let quiesce t st =
  Counter.incr t.barriers;
  if Atomic.get t.pending > 0 then
    Thread_state.enter st Thread_state.Waiting (fun () ->
        Mutex.lock t.mu;
        while Atomic.get t.pending > 0 do
          Condition.wait t.cv t.mu
        done;
        Mutex.unlock t.mu)

(* Token rings are sized for every live token, so a push fails only
   once the pool is closed; [false] then tells the caller to drain the
   lane itself or drop its work. *)
let push_token t ~ring lane =
  match Ch.try_put t.token_qs.(ring) lane with
  | _ -> true
  | exception Ch.Closed -> false

let send ?st t ~lane v =
  Atomic.incr t.pending;
  Counter.incr t.dispatched;
  match Ch.put ?st t.lanes.(lane) v with
  | () ->
    (* 0 -> 1: the lane just became non-empty; give it a token in its
       home executor's ring. *)
    if
      Atomic.fetch_and_add t.lane_pending.(lane) 1 = 0
      && not (push_token t ~ring:(lane mod t.n_exec) lane)
    then ignore (Atomic.fetch_and_add t.pending (-1))
  | exception Ch.Closed ->
    (* Shutdown mid-dispatch: the request is dropped (as the serial loop
       drops queued decisions), but the counter must not leak. *)
    ignore (Atomic.fetch_and_add t.pending (-1))

let send_rr ?st t v =
  t.rr <- (t.rr + 1) mod t.n_lanes;
  send ?st t ~lane:t.rr v

(* --- executor bodies ------------------------------------------------ *)

(* How many requests one token grant may drain before the lane is
   re-queued behind the executor's other tokens (keeps one hot lane from
   starving the rest of the ring). *)
let drain_budget = 64

let executor_loop t ~idx ~exec ~st =
  let my_tokens = t.token_qs.(idx) in
  (* Drain [lane] while holding its token. Returns with the token either
     retired (lane empty) or re-queued (budget exhausted). *)
  let drain lane =
    let pend = t.lane_pending.(lane) in
    let rec go budget =
      match Ch.try_take t.lanes.(lane) with
      | None ->
        (* While [lane_pending] > 0 the token guarantees published items
           (pushes precede increments and only we decrement), so a miss
           should mean the lane is drained; re-check defensively. *)
        if Atomic.get pend > 0 then begin
          Thread.yield ();
          go budget
        end
      | Some v ->
        (match exec v with
         | () -> ()
         | exception e ->
           (* Dying executor: unwedge both counters before propagating
              (the worker failure takes the replica down anyway). *)
           ignore (Atomic.fetch_and_add pend (-1));
           complete t;
           raise e);
        (* Order matters: retire the lane slot only after the request
           finished, so a successor token (minted on the next 0 -> 1)
           can never run a same-lane request concurrently with us. *)
        let rem = Atomic.fetch_and_add pend (-1) - 1 in
        complete t;
        if rem > 0 then
          if budget > 0 then go (budget - 1)
          else if not (push_token t ~ring:idx lane) then go drain_budget
    in
    go drain_budget
  in
  (* Steal up to half of some victim's tokens: keep one to drain, move
     the rest into our own ring. *)
  let try_steal () =
    t.seeds.(idx) <- (t.seeds.(idx) * 25214903917 + 11) land max_int;
    let start = t.seeds.(idx) mod t.n_exec in
    let found = ref None in
    for off = 0 to t.n_exec - 1 do
      if !found = None then begin
        let v = (start + off) mod t.n_exec in
        if v <> idx then begin
          let k = Ch.length t.token_qs.(v) in
          if k > 0 then begin
            let want = max 1 ((k + 1) / 2) in
            let got = ref [] in
            for _ = 1 to want do
              match Ch.try_take t.token_qs.(v) with
              | Some l -> got := l :: !got
              | None -> ()
            done;
            match List.rev !got with
            | [] -> ()
            | first :: rest ->
              List.iter
                (fun l -> if not (push_token t ~ring:idx l) then drain l)
                rest;
              Counter.incr t.steals;
              found := Some first
          end
        end
      end
    done;
    if !found = None then Counter.incr t.steal_fails;
    !found
  in
  let continue = ref true in
  while !continue do
    match Ch.try_take my_tokens with
    | Some lane -> drain lane
    | None -> (
        match try_steal () with
        | Some lane -> drain lane
        | None -> (
            (* Raises [Closed] once the pool is closed and our ring is
               drained: the executor's clean exit. *)
            match Ch.take ~st my_tokens with
            | lane -> drain lane
            | exception Ch.Closed -> continue := false))
  done

let close t =
  Array.iter Ch.close t.lanes;
  Array.iter Ch.close t.token_qs
