(** Auto-tuning: pick the best (schedule, configuration) pair by scoring
    lowered kernels on the simulated-GPU cost model (§6.5).

    The candidates arrive already lowered: {!Auto_scheduler.enumerate}
    lowers once per (schedule, unit-block mask) and instantiates every
    feasible configuration's kernel from that ({!Lower.lowerer}), so
    tuning never lowers. ({!Spacefusion.compile} does not tune a
    sub-graph whose structure it tuned earlier in the same compile; it
    reuses that decision.) Candidates are folded one after another
    against a running best: before taking a configuration's cost, an
    analytic lower bound
    ({!Gpu.Cost.time_lower_bound} over the graph's mandatory DRAM traffic,
    GEMM flops and the configuration's grid size) is compared against the
    best cost so far, and configurations that provably cannot beat it are
    skipped — these are what {!Cstats.t.n_early_quit} counts. The paper's
    α = 0.25 early-quit threshold (§6.5) gives partial hardware
    measurements a [best / α] slack; an analytic bound is certain, so it
    prunes at [bound > best] with none. [bench --only ablate] emulates the
    paper's rule over its own list of α values.

    Called from the main domain with at least 64 candidates, the tuner
    first costs all of them on up to {!Parallel.default_jobs} domains
    (helpers spawned and joined within the call), then runs the same fold
    over those costs on the calling domain; elsewhere, and for smaller
    sets, it costs each candidate when the fold reaches it. Costs are pure,
    so the selection and the costed/pruned counts are the same either way,
    and the tuning phase still runs on the calling domain between the
    others. Spreading the costing over domains keeps a cold compile's wall
    time steady on a host whose cores slow down one at a time.

    Determinism guarantee: the selected (schedule, cfg) is identical across
    pruned and unpruned runs and across job counts. Ties go to the
    earliest candidate in the stable order (schedule order, then
    {!Schedule.enum_cfgs} order); and because pruning requires the lower
    bound to {i strictly} exceed the best cost so far, no candidate
    costing as little as the final best is ever pruned. *)

val kernel_cost : Gpu.Arch.t -> Gpu.Device.t -> Gpu.Kernel.t -> float
(** Simulated seconds for one kernel on a fresh L2, with its transfers
    costed in the order the kernel's stages first touch each tensor
    (reads and writes apart; one tensor's several transfers by their
    counts) rather than in {!Gpu.Exec.run}'s hash-table order. So the
    cost is a function of the kernel's structure: kernels that differ
    only in tensor names cost the same bits, which is what makes
    {!Spacefusion.compile}'s reuse of tuning decisions exact.
    {!Gpu.Exec.run} keeps its order, because a plan's kernels share one
    L2 model and that order carries from kernel to kernel. *)

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
    kernels. The device must have every touched tensor's shape declared,
    and must not change while the call runs: helper domains read it.
    [prune] (default true) enables lower-bound pruning; disabling it costs
    every candidate (used to validate that pruning never changes the
    selection). *)
