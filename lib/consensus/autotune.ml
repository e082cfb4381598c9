(* Online AIMD controller for BSZ (batch bytes) and WND (pipeline
   window). Pure policy: the driver owns the clock and the epoch
   cadence, this module only folds one epoch's signals into the next
   epoch's tuned values. See the .mli for the rule.

   The controller steers on *structural* signals (how batches seal,
   window occupancy, queue depth, commit latency) rather than on the
   measured throughput. Per-epoch throughput readings are unusable as a
   control signal at this granularity: closed-loop clients complete in
   convoys — hundreds of replies in one epoch, near-zero for the next
   dozen — so any epoch-scale "did throughput rise after that move?"
   comparison blames probes for phantom regressions (or credits them
   with phantom wins) depending on where the convoy boundary fell.
   The structural signals are stable epoch over epoch and point at the
   same optimum; DESIGN.md §11 records the measured evidence. *)

type params = {
  bsz_min : int;
  bsz_max : int;
  wnd_min : int;
  wnd_max : int;
  latency_bound_s : float;
  queue_high : int;
  bsz_grow : float;
  bsz_shrink : float;
  wnd_step : int;
  backoff : float;
}

let default_params =
  {
    bsz_min = 256;
    bsz_max = 65536;
    wnd_min = 1;
    wnd_max = 64;
    latency_bound_s = 0.05;
    queue_high = 512;
    bsz_grow = 1.25;
    bsz_shrink = 0.8;
    wnd_step = 3;
    backoff = 0.7;
  }

type signals = {
  s_window_in_use : int;
  s_proposal_queue : int;
  s_log_queue : int;
  s_seals_size : int;
  s_seals_delay : int;
  s_batch_fill : float;
  s_throughput : float;
  s_commit_latency_s : float;
}

(* Epochs WND stays frozen after a multiplicative backoff, so the
   congestion that triggered it can drain before growth resumes. *)
let cooldown_epochs = 3

(* Minimum size-sealed batches per epoch for BSZ to keep growing — see
   the pipeline-starvation comment in [tick]. *)
let min_seals = 4

type t = {
  p : params;
  mutable bsz : int;
  mutable wnd : int;
  mutable cool_wnd : int;
  mutable ticks : int;
}

let clamp lo hi v = max lo (min hi v)

let create ?(params = default_params) ~bsz0 ~wnd0 () =
  let p = params in
  {
    p;
    bsz = clamp p.bsz_min p.bsz_max bsz0;
    wnd = clamp p.wnd_min p.wnd_max wnd0;
    cool_wnd = 0;
    ticks = 0;
  }

let bsz t = t.bsz
let wnd t = t.wnd
let ticks t = t.ticks

let tick t (s : signals) =
  t.ticks <- t.ticks + 1;
  if t.cool_wnd > 0 then t.cool_wnd <- t.cool_wnd - 1;
  let p = t.p in
  let congested =
    (s.s_commit_latency_s > 0. && s.s_commit_latency_s > p.latency_bound_s)
    || s.s_log_queue >= p.queue_high
  in
  if congested then begin
    (* AIMD safety valve: pipelining depth is the congestion lever —
       both commit latency and durability backlog scale with the number
       of in-flight instances. *)
    let w = max p.wnd_min (int_of_float (float_of_int t.wnd *. p.backoff)) in
    if w < t.wnd then begin
      t.wnd <- w;
      t.cool_wnd <- cooldown_epochs
    end
  end
  else begin
    let sealed_any = s.s_seals_size + s.s_seals_delay > 0 in
    let size_limited =
      (* most batches hit the size limit — the bottleneck shape BSZ can
         fix. No fill-ratio guard here: fill is *low* exactly when
         requests pack badly against the limit (e.g. 1024-byte requests
         against BSZ 1300 seal singleton batches at fill 0.79), and that
         is where growing BSZ helps the most. *)
      sealed_any && s.s_seals_size > s.s_seals_delay
    in
    let saturated =
      (* the window is (nearly) exhausted or proposals queue behind it:
         more pipelining depth would admit more work *)
      s.s_window_in_use >= t.wnd - 1 || s.s_proposal_queue >= 2
    in
    (* BSZ and WND trade off: a bigger batch amortises more cost only
       while enough batches are still in flight to keep the pipeline
       busy. Growing BSZ past the epoch's offered load folds the whole
       client population into one batch at a time — the window drains,
       clients lock-step, and throughput degenerates to one RTT per
       batch. Seals-per-epoch is the alias-free way to see this (the
       instantaneous window sample reads 0 between lock-step bursts
       regardless of BSZ): batches sealing on size but fewer than
       [min_seals] times an epoch mean one batch swallows the epoch's
       demand, so growth stops; at most one seal an epoch means BSZ has
       overshot and shrinks back. The band between is hysteresis. *)
    let seals = s.s_seals_size + s.s_seals_delay in
    if size_limited && seals >= min_seals && t.bsz < p.bsz_max then
      t.bsz <-
        min p.bsz_max
          (max (t.bsz + 1) (int_of_float (float_of_int t.bsz *. p.bsz_grow)))
    else if size_limited && seals <= 1 && t.bsz > p.bsz_min then
      t.bsz <- max p.bsz_min (int_of_float (float_of_int t.bsz *. p.bsz_shrink))
    else if
      (* demand shrink: everything flushes on the delay cap well
         underfull — BSZ is far above the offered load, so close batches
         earlier; throughput is unaffected (batches were delay-bound
         anyway) and latency drops *)
      sealed_any
      && s.s_seals_delay > s.s_seals_size
      && s.s_batch_fill > 0. && s.s_batch_fill < 0.5
      && t.bsz > p.bsz_min
    then
      t.bsz <- max p.bsz_min (int_of_float (float_of_int t.bsz *. p.bsz_shrink));
    if
      saturated && t.cool_wnd = 0 && t.wnd < p.wnd_max
      && s.s_commit_latency_s <= p.latency_bound_s
    then t.wnd <- min p.wnd_max (t.wnd + p.wnd_step)
  end

let pp fmt t =
  Format.fprintf fmt "autotune{bsz=%d wnd=%d ticks=%d}" t.bsz t.wnd t.ticks
