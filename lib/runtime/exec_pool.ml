module Lf = Msmr_platform.Lf_queue
module Thread_state = Msmr_platform.Thread_state
module Waitstats = Msmr_platform.Waitstats
module Backoff = Msmr_platform.Backoff
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
   items published. *)
type 'a t = {
  n_exec : int;
  n_lanes : int;
  lanes : 'a Lf.Spsc.t array;
  lane_pending : int Atomic.t array;
  token_qs : int Lf.Mpmc.t array; (* lane ids; one ring per executor *)
  work_mu : Mutex.t;
  work_cv : Condition.t;
  work_sleepers : int Atomic.t;
  closed : bool Atomic.t;
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
    lanes = Array.init n_lanes (fun _ -> Lf.Spsc.create ~capacity:lane_capacity);
    lane_pending = Array.init n_lanes (fun _ -> Atomic.make 0);
    (* Every live token could in principle sit in one ring. *)
    token_qs = Array.init n_exec (fun _ -> Lf.Mpmc.create ~capacity:n_lanes);
    work_mu = Mutex.create ();
    work_cv = Condition.create ();
    work_sleepers = Atomic.make 0;
    closed = Atomic.make false;
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

let depth t = Array.fold_left (fun acc l -> acc + Lf.Spsc.length l) 0 t.lanes

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

let wake_executors t =
  if Atomic.get t.work_sleepers > 0 then begin
    Mutex.lock t.work_mu;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.work_mu
  end

(* Mint the lane's token into its home executor's ring. The ring is
   sized for every live token, so the push cannot fail. *)
let mint_token t lane =
  ignore (Lf.Mpmc.try_push t.token_qs.(lane mod t.n_exec) lane);
  wake_executors t

let send ?st t ~lane v =
  Atomic.incr t.pending;
  Counter.incr t.dispatched;
  (* Shutdown mid-dispatch: the request is dropped (as the serial loop
     drops queued decisions), but the counter must not leak. *)
  if Atomic.get t.closed then ignore (Atomic.fetch_and_add t.pending (-1))
  else begin
    let bo = Backoff.create () in
    let rec push () =
      if Lf.Spsc.try_push t.lanes.(lane) v then begin
        (* 0 -> 1: the lane just became non-empty; give it a token. *)
        if Atomic.fetch_and_add t.lane_pending.(lane) 1 = 0 then
          mint_token t lane
      end
      else if Atomic.get t.closed then
        ignore (Atomic.fetch_and_add t.pending (-1))
      else begin
        (* Lane ring full: its token is live somewhere, so an executor
           is (or will be) draining it — back off and retry. *)
        Waitstats.note_spin ();
        Backoff.once ?st bo;
        push ()
      end
    in
    push ()
  end

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
      match Lf.Spsc.try_pop t.lanes.(lane) with
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
          else ignore (Lf.Mpmc.try_push my_tokens lane)
    in
    go drain_budget
  in
  (* Steal up to half of some victim's tokens: keep one to drain, move
     the rest into our own ring (and wake siblings — we just became a
     victim worth robbing). *)
  let try_steal () =
    t.seeds.(idx) <- (t.seeds.(idx) * 25214903917 + 11) land max_int;
    let start = t.seeds.(idx) mod t.n_exec in
    let found = ref None in
    for off = 0 to t.n_exec - 1 do
      if !found = None then begin
        let v = (start + off) mod t.n_exec in
        if v <> idx then begin
          let k = Lf.Mpmc.length t.token_qs.(v) in
          if k > 0 then begin
            let want = max 1 ((k + 1) / 2) in
            let got = ref [] in
            for _ = 1 to want do
              match Lf.Mpmc.try_pop t.token_qs.(v) with
              | Some l -> got := l :: !got
              | None -> ()
            done;
            match List.rev !got with
            | [] -> ()
            | first :: rest ->
              List.iter
                (fun l -> ignore (Lf.Mpmc.try_push my_tokens l))
                rest;
              if rest <> [] then wake_executors t;
              Counter.incr t.steals;
              found := Some first
          end
        end
      end
    done;
    if !found = None then Counter.incr t.steal_fails;
    !found
  in
  let next_token () =
    match Lf.Mpmc.try_pop my_tokens with
    | Some lane -> Some lane
    | None -> try_steal ()
  in
  let continue = ref true in
  while !continue do
    match next_token () with
    | Some lane -> drain lane
    | None ->
      if Atomic.get t.closed then continue := false
      else begin
        (* Spin briefly, then park. Parking re-checks only our own ring
           under the mutex: any token minted or re-queued after we bump
           [work_sleepers] broadcasts, and one minted before is either in
           our ring (seen by the re-check) or owned by a sibling. *)
        let rec spin n =
          if n = 0 then None
          else begin
            Waitstats.note_spin ();
            Thread.yield ();
            match next_token () with
            | Some lane -> Some lane
            | None -> spin (n - 1)
          end
        in
        match spin 16 with
        | Some lane -> drain lane
        | None ->
          if Atomic.get t.closed then continue := false
          else begin
            Atomic.incr t.work_sleepers;
            Mutex.lock t.work_mu;
            Fun.protect
              ~finally:(fun () ->
                Mutex.unlock t.work_mu;
                Atomic.decr t.work_sleepers)
              (fun () ->
                while
                  (not (Atomic.get t.closed))
                  && Lf.Mpmc.length my_tokens = 0
                do
                  Waitstats.note_park ();
                  Thread_state.enter st Thread_state.Waiting (fun () ->
                      Condition.wait t.work_cv t.work_mu)
                done)
          end
      end
  done

let close t =
  Atomic.set t.closed true;
  Mutex.lock t.work_mu;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.work_mu
