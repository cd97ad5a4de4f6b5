(** End-to-end model inference (§6.2): compile each distinct subprogram once
    (the paper's repetitive-subprogram caching), benchmark its plan on the
    simulator and aggregate latency over repetition counts. *)

type result = {
  m_model : string;
  m_backend : string;
  m_arch : string;
  m_devices : int;  (** device count the workload ran as *)
  m_shard : Core.Shard.decision option;
      (** the dominant subprogram's sharding decision; [None] on a
          single-device workload *)
  m_exec : Exec_stats.t;
      (** per-forward-pass totals (latency, launches, flops, counters) in
          the same record {!Runner.run_plan} returns per plan *)
  m_compile_s : float;
      (** wall-clock spent compiling; cache hits contribute zero *)
  m_cache_hits : int;  (** subprogram lookups served from the plan cache *)
  m_cache_misses : int;  (** subprogram lookups that compiled *)
}

val run_workload_r :
  ?cache:Plan_cache.t ->
  ?inject:Fault.Inject.t ->
  ?functional:[ `Auto | `Never ] ->
  Workload.t ->
  (result, Core.Spacefusion.Error.t) Stdlib.result
(** The canonical entry point: [Error (Unsupported _)] when the backend
    does not run on the workload's arch, [Error (Unschedulable _)] when
    compilation fails. With [cache], repeated subprograms (within or
    across models — e.g. Bert and Albert share every block shape) compile
    once (keyed by the workload's device count); a cache hit reports zero
    compile time. Emits a [run_model] span with one [subprogram] child per
    distinct subprogram when tracing is enabled.

    With [devices > 1] each subprogram additionally runs the
    {!Core.Shard} scheduler over an NVLink-style {!Gpu.Node} of that
    size: the reported simulated time is rescaled by the picked sharding
    plan's speedup (compute + collective, possibly 1x when sharding does
    not pay), the dominant subprogram's decision lands in [m_shard], and
    work counters stay unscaled — the node does the same work, faster.

    With [inject], every device the run creates carries that fault
    injector, so a kernel launch may raise {!Fault.Plan.Injected} — it
    propagates as an exception (one injection stream models one logical
    device; classify with {!classify_exn}).

    [functional] selects the execution mode per subprogram. [`Never] (the
    default) runs the analytic walk only — counters without data, the mode
    paper-scale benchmarks need. [`Auto] is the serving policy: a plan's
    first run executes the functional interpreter, inside the cache's
    single flight ({!Plan_cache.lookup}'s [first_run]), so identical
    concurrent requests compile once and run it once; once it completes,
    the entry is stamped verified and every hit takes the analytic walk.
    Each subprogram that runs functionally counts one
    [run.functional_execs] (in {!Runner.run_plan}); each verified hit
    that skips it counts one [run.warm_fast_path]. [`Auto] without
    [cache] always runs functionally. A first run that raises (an
    injected fault) leaves the plan unverified, and the next [`Auto]
    request runs it again.

    Device buffers and kernel tile stores are drawn from — and returned
    to — the ambient {!Tensor.Arena} when one is installed, so a warm
    serving loop reaches a steady state that allocates nothing per
    request. *)

type fault_action =
  | Retry  (** transient: retry the same path *)
  | Reroute  (** the device is dead: rerun on a fresh stream/device *)
  | Degrade  (** resource pressure: prefer the cheaper unfused path *)
  | Isolate
      (** the request payload is poisoned: fail only that member, never
          the batch it rode in *)
  | No_fault  (** not an injected fault *)

val classify_exn : exn -> fault_action
(** Map an exception escaping a model run to the serving layer's recovery
    action (severity of {!Fault.Plan.Injected}; [No_fault] otherwise). *)

val supported : arch:Gpu.Arch.t -> Backends.Policy.t -> bool

val to_json : result -> Obs.Json.t
val pp : Format.formatter -> result -> unit
