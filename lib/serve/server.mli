(** Concurrent inference server over {!Runtime.Model_runner}.

    The runtime the ROADMAP's "heavy traffic" north star needs on top of
    the one-shot entry points: a bounded FIFO admission {!Queue} feeding a pool
    of worker domains, each request compiled through a shared
    {!Runtime.Plan_cache} (the paper's §5 repetitive-subprogram caching is
    exactly what makes a serving workload cheap after warm-up) and
    simulated on its own device. Every run is [`Auto]
    ({!Runtime.Model_runner.run_workload_r}): a plan's first execution
    goes through the functional interpreter once, inside the plan cache's
    single flight, and verified hits take the analytic fast path.

    Request lifecycle — every submitted request resolves to {e exactly
    one} outcome:
    - [Rejected] at admission when the queue is full (["queue full"]) or
      the server has shut down (["server shut down"]), or after admission
      when the (backend, arch) pair is unsupported;
    - [Timed_out] when its deadline passed while it sat in the backlog
      (decided by the worker that dequeues it), or when the run that
      carried it was abandoned at its batch's deadline;
    - [Done] when it was served — possibly batched with requests of its
      key that were queued behind it ({!Batcher}), and possibly degraded;
    - [Failed] when transient errors survived every retry.

    Degradation: an attempt is served from the unfused
    {!Backends.Baselines.pytorch} plan instead of failing when its fused
    compile is [Unschedulable], when the fused path's breaker is open, or
    when the fused run takes a [Degraded]-severity fault — an injected
    shared-memory eviction, or a resource exhaustion (an injected one or
    an [arena_budget_bytes] trip) of a solo run; a batched run's resource
    exhaustion is bisected instead. Cold and warm requests take the same
    path: the runner's one plan-cache lookup tells them apart.

    Transient failures (any exception that is not a typed pipeline error)
    are retried with capped exponential backoff. The backoff is
    deadline-aware: a retry never sleeps past the request's absolute
    deadline — the request resolves [Timed_out] immediately instead of
    timing out while the server holds it.

    Self-healing (see DESIGN.md, "Fault model & self-healing"): each
    (backend, arch) fused path runs under a circuit {!Breaker}. Enough
    consecutive fused failures open the breaker; while it is open,
    requests degrade to the unfused baseline instead of burning retries on
    a failing path, and after a cooldown a single half-open probe decides
    whether the fused path closed again. Injected device deaths
    ({!Fault.Plan.Device_death}) skip the backoff and reroute immediately
    to a fresh injection stream — the simulated analogue of rescheduling
    onto another device. With [fault_plan] set, every serving attempt runs
    under a deterministic {!Fault.Inject} injector on stream
    [(request stream << 8) | attempt].

    Continuous batching (see DESIGN.md, "Shape classes & continuous
    batching"): every request the worker pops leads a {!Batcher} batch.
    A row-sliceable request under a [Pow2] shape policy gathers, oldest
    first, every queued request with its shape-class-aware workload
    digest whose rows still fit under the shape-class row boundary, and
    the batch runs one stacked class-representative execution at once —
    no worker ever waits for joiners. A request that does not fit stays
    queued and leads the next batch. Each member is handed its own row slice. A non-sliceable
    request, or one that finds nothing to gather, is a one-member batch;
    identical concurrent requests then compile once through the plan
    cache's single flight. Every member — leader included — times out
    against {e its own} absolute deadline at delivery; batch membership
    never substitutes the leader's deadline.

    Every member takes the outcome of the (sub-)run that carried its
    rows: those rows rode each of the run's attempts, so a gathered
    member shares the run's retry budget and its failure, and a run
    abandoned at the batch's deadline times out every member it carried.
    Two paths re-execute, one per kind of failure: retries with backoff
    for faults no member caused, and bisection for poison and memory
    pressure.

    Overload control & blast radius (see DESIGN.md): with
    [shed_deadlines] the server estimates deadline feasibility at
    admission (charged backlog seconds plus a per-shape-class
    service-time EWMA, {!Shed}) and resolves infeasible requests [Shed]
    immediately. A poisoned member ({!Fault.Plan.Poison_request}) or a
    stacked run's {!Fault.Plan.Resource_exhausted} arena-budget trip
    {e bisects} the batch ({!Batcher.execute}): halves retry
    independently, so every clean member is served and only genuinely
    poisoned members fail. Repeat poison offenders are quarantined by request key
    ([quarantine_threshold]) and resolve [Quarantined] without
    executing. Memory pressure additionally halves the batch-admission
    cap (recovering one doubling per 32 clean runs, solo or stacked).

    The pool of worker domains is the only parallelism axis: a request's
    compile runs on the worker domain that took it. *)

type config = {
  workers : int;  (** worker domains, clamped to [\[1, 24\]] *)
  queue_capacity : int;
  max_retries : int;  (** transient-failure retries per request *)
  backoff_s : float;  (** retry [k] sleeps [backoff_s * 2^k] ... *)
  backoff_cap_s : float;  (** ... capped at this *)
  clock : unit -> float;  (** injectable for deterministic tests *)
  fault_plan : Fault.Plan.t option;
      (** deterministic fault injection for every serving attempt *)
  breaker : Breaker.config;  (** per-(backend, arch) circuit breakers *)
  devices : int;
      (** simulated devices behind the server. With [devices > 1] the
          server becomes a device-fleet router: each request is placed on
          a device by plan locality then least load ({!Fleet}), workloads
          submitted through {!submit} are sized to the fleet (so the
          sharding scheduler in {!Runtime.Model_runner} prices them), each
          device runs its own persistent fault-injection stream, and a
          device that takes a {!Fault.Plan.Device_death} is marked dead
          and routed around for the rest of the server's life. *)
  shapes : Runtime.Shape_class.policy;
      (** shape-bucketing policy for workloads built by {!submit}. [Exact]
          (the default) keeps one plan per concrete shape and serves every
          request as a one-member batch; [Pow2] compiles one plan per
          power-of-two batch bucket and row-batches queued in-class
          requests. *)
  shed_deadlines : bool;
      (** estimate deadline feasibility at admission and resolve
          infeasible requests [Shed] instead of queueing them (default
          [false]) *)
  quarantine_threshold : int;
      (** poison offenses per request key before the key resolves
          [Quarantined] without executing; [0] disables (default 3) *)
  arena_budget_bytes : int option;
      (** hard per-attempt byte budget on the worker's tensor arena; an
          attempt allocating past it takes a typed
          {!Fault.Plan.Resource_exhausted} fault — batched runs split,
          solo runs fall back to the unfused baseline (default [None]) *)
}

val default_config : unit -> config
(** [workers = Core.Parallel.default_jobs ()] (so [SPACEFUSION_JOBS]
    sizes the pool), [queue_capacity = 256], [max_retries = 2],
    [backoff_s = 1e-3], [backoff_cap_s = 0.05],
    [clock = Unix.gettimeofday], [fault_plan = None],
    [breaker = Breaker.default_config], [devices = 1], [shapes = Exact],
    [shed_deadlines = false], [quarantine_threshold = 3],
    [arena_budget_bytes = None]. *)

type response = {
  r_result : Runtime.Model_runner.result;
  r_latency_s : float;  (** submit to resolution, on the server clock *)
  r_queue_s : float;  (** of which: backlog wait *)
  r_coalesced : bool;  (** gathered into a batch led by another request *)
  r_degraded : bool;  (** served from the unfused baseline *)
  r_retries : int;  (** transient-failure retries the serving run needed *)
  r_batch : int;  (** members in the delivering batch; 1 = served solo *)
  r_rows : (int * int) option;
      (** [(offset, len)] — this request's row slice of the batched
          execution ([None] for a non-sliceable request) *)
}

type outcome =
  | Done of response
  | Rejected of string
  | Timed_out
  | Failed of string
  | Shed of string
      (** shed at admission: the deadline was infeasible given the
          backlog and this key's service-time estimate; the request never
          executed *)
  | Quarantined
      (** the request key exceeded its poison offense threshold; resolved
          without executing *)

type t
type ticket

val start : ?cache:Runtime.Plan_cache.t -> ?config:config -> unit -> t
(** Spawn the worker pool. Without [cache] the server creates its own
    unbounded one; pass a shared cache to pool plans across servers (or
    pre-warm it). *)

val submit_w : t -> ?deadline_s:float -> Runtime.Workload.t -> ticket
(** The canonical entry point: never blocks — either admits the request
    or resolves the ticket [Rejected] immediately (["queue full"] at
    capacity, ["server shut down"] after {!shutdown}). [deadline_s] is
    relative to now. The request key ({!Runtime.Workload.digest}) and
    batch space are the workload's own fields, derived once by
    {!Runtime.Workload.make}: submitting a workload value again derives
    nothing, so build a value once per distinct request and reuse it.
    Its graphs must not change until the request resolves. The workload
    carries its own device count and placement hint; a
    {!Runtime.Workload.Pin} placement is honored until that device dies,
    after which the request fails rather than silently moving. *)

val submit :
  t ->
  ?deadline_s:float ->
  arch:Gpu.Arch.t ->
  Backends.Policy.t ->
  Ir.Models.model ->
  ticket
(** Legacy positional spelling: {!submit_w} on a workload sized to the
    server's fleet ([Workload.make ~devices:cfg.devices]). *)

val await : ticket -> outcome
(** Block until the request resolves. Idempotent. *)

val peek : ticket -> outcome option

val stats : t -> Stats.snapshot
val latencies : t -> float list
(** Submit-to-done latency of the most recent [Done] requests, oldest
    first: a fixed ring of {!Stats.latency_capacity} (65 536), so a
    long-lived server's memory does not grow with its traffic. *)

val queue_depth : t -> int

val shed : t -> Shed.t
(** The server's admission-control state: service-time estimates,
    backlog charge, quarantine offenses. *)

val batch_cap_shift : t -> int
(** Current memory-pressure halvings of the batch-admission cap
    (effective cap = class boundary [lsr] shift). *)

val pause : t -> unit
(** Stop workers from dequeuing or gathering (admission continues). With
    the queue paused, shed decisions are a pure function of submit
    order, and so, with one worker, is batch formation after {!resume}
    — the deterministic way to stage a storm. *)

val resume : t -> unit
(** Undo {!pause}. *)

val breaker_state_w : t -> ?device:int -> Runtime.Workload.t -> Breaker.state
(** Current breaker state of the workload's (backend, arch) fused path
    ([Closed] if never exercised). In fleet mode each device guards its
    own breaker; pass [device] to inspect one device's path. *)

val breaker_trips_w : t -> ?device:int -> Runtime.Workload.t -> int
(** How many times that path's breaker has opened. *)

val fleet_alive : t -> int option
(** Devices still alive; [None] on a single-device server. *)

val fleet_json : t -> Obs.Json.t option
(** Deterministic fleet snapshot (device count, dead devices, per-device
    served counts, reroutes); [None] on a single-device server. *)

val shutdown : t -> unit
(** Stop admitting, serve the backlog, and join the workers. Idempotent. *)
