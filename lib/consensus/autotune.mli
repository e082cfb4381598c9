(** Online feedback controller for BSZ and WND (pure policy).

    The paper hand-picks its two headline knobs — BSZ (batch bytes) and
    WND (pipeline window) — per deployment (Section VI: WND = 10,
    BSZ = 1300 for the 24-core cluster). This controller tunes them
    online instead, from signals every driver already has: window
    occupancy, queue depths, how batches seal (on size vs on the delay
    cap) and how full they are, and the commit throughput/latency of the
    previous epoch.

    The rule is AIMD on structural signals:

    - {b grow BSZ} (multiplicatively, ~25%/epoch) while batches
      predominantly seal on size — the batcher is size-limited, so a
      bigger batch amortises more per-batch and per-instance cost;
    - {b grow WND} (additively) while the window is saturated (occupancy
      at the limit, or proposals queuing behind it) and commit latency
      stays under the bound;
    - {b back off WND multiplicatively} when commit latency exceeds the
      bound or the durability LogQueue backs up — pipelining depth is
      the congestion lever — then cool that dimension for a few epochs
      so the congestion can drain;
    - {b shrink BSZ toward demand} when batches persistently flush
      underfull on the delay cap — a lower seal threshold closes batches
      earlier and cuts latency without costing throughput.

    The measured throughput is deliberately {e not} a steering input:
    closed-loop clients complete in convoys, so per-epoch throughput
    readings swing by an order of magnitude and any epoch-scale
    before/after comparison attributes phantom regressions to whichever
    knob moved last (DESIGN.md §11 shows the measured trajectories). The
    structural signals above are stable epoch over epoch and identify
    the same optimum.

    The module is pure state-machine policy: no clock, no threads, no
    I/O. Drivers decide the epoch cadence and feed {!tick}; identical
    signal sequences produce identical trajectories (the simulator's
    determinism tests rely on this). The simulator ([Params.auto_tune])
    is the only driver: the controller is kept there as a prediction.
    The live runtime has no controller; its batching scales BSZ with the
    mean request size instead (DESIGN.md §11). *)

type params = {
  bsz_min : int;
  bsz_max : int;
  wnd_min : int;
  wnd_max : int;
  latency_bound_s : float;
      (** commit-latency budget; WND never grows above it and backs off
          multiplicatively beyond it *)
  queue_high : int;
      (** LogQueue backlog treated as congestion (durable mode) *)
  bsz_grow : float;    (** multiplicative BSZ growth factor (> 1) *)
  bsz_shrink : float;  (** BSZ demand-shrink factor (< 1) *)
  wnd_step : int;      (** additive WND growth per epoch *)
  backoff : float;     (** multiplicative decrease factor (< 1) *)
}

val default_params : params
(** bounds 256..65536 bytes / 1..64 instances, 50 ms latency bound,
    LogQueue high mark 512, grow ×1.25 / +3, shrink ×0.8, backoff ×0.7. *)

type signals = {
  s_window_in_use : int;   (** {!Paxos.window_in_use} at the tick *)
  s_proposal_queue : int;  (** ProposalQueue depth at the tick *)
  s_log_queue : int;       (** StableStorage LogQueue depth; 0 if none *)
  s_seals_size : int;      (** batches sealed on the size limit this epoch *)
  s_seals_delay : int;     (** batches flushed on the delay cap this epoch *)
  s_batch_fill : float;
      (** mean sealed-bytes ÷ BSZ over this epoch's batches (can exceed
          1 for oversized singletons); 0 when no batch sealed *)
  s_throughput : float;
      (** requests committed per second this epoch — reported for
          observability and logging, not a steering input (see above) *)
  s_commit_latency_s : float;
      (** mean propose→decide latency this epoch; 0 when nothing decided *)
}

type t

val create : ?params:params -> bsz0:int -> wnd0:int -> unit -> t
(** Start from [bsz0]/[wnd0] (clamped into the bounds). *)

val bsz : t -> int
val wnd : t -> int
val ticks : t -> int
(** Epochs observed so far. *)

val tick : t -> signals -> unit
(** Close one epoch: update the tuned BSZ/WND from [signals]. *)

val pp : Format.formatter -> t -> unit
