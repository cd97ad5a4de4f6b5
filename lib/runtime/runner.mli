(** Plan execution: runs a plan's kernels in order on a device, summing
    simulated GPU time, per-kernel CPU dispatch overhead, and the cache/
    memory counters (one L2 residency state spans the whole plan, so
    producer→consumer reuse between adjacent kernels is captured). *)

type result = Exec_stats.t
(** One {!Exec_stats.t} per executed plan — the same record
    {!Model_runner} aggregates, so per-plan and per-model numbers share
    their serialization. *)

val run_plan :
  ?mode:Gpu.Exec.mode ->
  arch:Gpu.Arch.t ->
  dispatch_us:float ->
  Gpu.Device.t ->
  Gpu.Plan.t ->
  result
(** [mode] defaults to [Analytic] (benchmarking); use [Full] to also
    compute real values on the device. Declares the plan's tensors.
    Emits an [execute] span when tracing is enabled and feeds the
    [run.plans] / [run.kernels] / [run.sim_seconds] metrics; a [Full] run
    also counts one [run.functional_execs].

    An [Analytic] run folds the plan's memoised walk on [arch]
    ({!Gpu.Plan.walk}, walked on the plan's first Analytic run there) and
    launches no kernel; a plan with no memo on [arch] (its fault-free walk
    raised) walks each kernel with {!Gpu.Exec.run}, as a [Full] run
    always does. Both give bit-identical results.

    With a fault injector attached to [device], each launch may raise
    {!Fault.Plan.Injected} (propagated to the caller mid-plan), and
    injected latency spikes multiply that kernel's simulated time. The
    memoised fold consults the injector before each kernel, so the same
    launch faults and the injector ends in the same state. *)

val pp : Format.formatter -> result -> unit
