(** Auto-tuning: pick the best (schedule, configuration) pair by scoring
    lowered kernels on the simulated-GPU cost model (§6.5).

    The candidates arrive already lowered: {!Auto_scheduler.run} lowers
    once per (schedule, unit-block mask) and instantiates every feasible
    configuration's kernel from that ({!Lower.lowerer}), so tuning never
    lowers. Candidates are costed in parallel ({!Parallel.map}) with a
    shared atomic incumbent cost used for cross-domain pruning: before
    costing a configuration, an analytic lower bound
    ({!Gpu.Cost.time_lower_bound} over the graph's mandatory DRAM traffic,
    GEMM flops and the configuration's grid size) is compared against the
    incumbent, and configurations that provably cannot beat it are skipped
    without being costed — these are what {!Cstats.t.n_early_quit} counts.

    Determinism guarantee: the selected (schedule, cfg) is identical across
    serial, parallel, pruned and unpruned runs. Ties are broken by the
    stable candidate order (schedule order, then {!Schedule.enum_cfgs}
    order), never by arrival order; and because pruning requires the lower
    bound to {i strictly} exceed a monotonically decreasing incumbent, no
    candidate costing as little as the final best is ever pruned. *)

val alpha : float
(** α = 0.25, the paper's §6.5 early-quit threshold: sequential hardware
    tuning abandons a candidate once its accumulated measurement exceeds
    [best / α]. The 1/α slack compensates for measurements being partial.
    This reproduction's analytic pruning needs no slack — the bound is a
    certain lower bound, so it prunes at [bound > best] directly — but α is
    kept (and swept by [bench --only ablate]) to emulate the paper's rule. *)

val kernel_cost : Gpu.Arch.t -> Gpu.Device.t -> Gpu.Kernel.t -> float
(** Simulated seconds for one kernel on a fresh L2. *)

val lower_bound : Gpu.Arch.t -> Schedule.t -> Schedule.cfg -> float
(** The pruning bound for one candidate, computed without costing it.
    Never above {!kernel_cost} of the lowered kernel (exposed for tests and
    the bench ablation). *)

val pick_best :
  ?stats:Cstats.t ->
  ?prune:bool ->
  Gpu.Arch.t ->
  Gpu.Device.t ->
  Auto_scheduler.scheduled list ->
  (Schedule.t * Schedule.cfg * Gpu.Kernel.t * float) option
(** Best candidate over every schedule's feasible configurations and their
    kernels. The device must have every touched tensor's shape declared.
    [prune] (default true) enables lower-bound pruning; disabling it costs
    every candidate (used to validate that pruning never changes the
    selection). *)
