(** Cross-device SMG sharding (ROADMAP open item 1).

    Given a compiled plan and a {!Gpu.Node}, enumerate (device count,
    strategy) candidates, cost each as compute + collective time — the
    collective priced exactly like any other space mapping, one memory
    tier further out — and pick the cheapest with the same machinery the
    single-device tuner uses: a deterministic argmin, with analytic
    lower-bound pruning against the exact one-device baseline.

    Two sharding strategies:
    - [Data_parallel]: every kernel's block grid is split round-robin
      across the devices (the residue classes {!Gpu.Exec.run}'s [shard]
      argument executes); a written tensor is all-gathered only when a
      downstream kernel reads it broadcast-style (requested bytes exceed
      unique bytes — tiles re-reading an activation) or when nothing
      downstream reads it (a subprogram output to assemble). An aligned
      partitioned read stays device-local. Compute scales with [1/d];
      the crossing collectives are the price of the cut.
    - [Pipeline]: the plan's kernel list is split into [d] contiguous
      stages balanced by single-device kernel time; each boundary pays a
      point-to-point transfer, and [reps] repetitions (the subprogram's
      [count]) overlap so steady-state cost is the bottleneck stage. *)

type strategy = Data_parallel | Pipeline

type decision = {
  d_node : Gpu.Node.t;
  d_devices : int;  (** chosen device count, 1 = do not shard *)
  d_strategy : strategy;
  d_time : float;  (** simulated seconds per pass under the choice *)
  d_compute_s : float;  (** of which: on-device compute + dispatch *)
  d_collective_s : float;  (** of which: interconnect collectives *)
  d_baseline_s : float;  (** exact one-device time (the incumbent) *)
  d_candidates : int;  (** candidates fully evaluated *)
  d_pruned : int;  (** candidates cut by the collective lower bound *)
}

val speedup : decision -> float
(** [d_baseline_s /. d_time] (1.0 when the pick is one device). *)

val scale_kstats : devices:int -> Gpu.Exec.kstats -> Gpu.Exec.kstats
(** One device's share of a kernel under round-robin block sharding:
    [ceil (blocks / devices)] blocks, flops and walked bytes scaled by
    the block fraction; transfer summaries scale the same way except
    broadcast-style reads ([tr_requested > tr_unique] — e.g. a weight
    every block re-reads), whose unique footprint every device still
    touches in full. Exposed for the cost tests. *)

val best :
  ?reps:int ->
  ?dispatch_us:float ->
  Gpu.Node.t ->
  Gpu.Plan.t ->
  decision
(** Enumerate device counts (powers of two up to the node size, plus the
    node size itself) crossed with strategies, cost each candidate
    analytically, and return the deterministic argmin (ties break toward
    fewer devices, then [Data_parallel]). A candidate whose collective
    time alone (exact, cheap to compute) already exceeds the one-device
    baseline is pruned before its compute cost is evaluated. [reps]
    (default 1) is the subprogram repetition count — it only affects
    [Pipeline], whose fill cost amortizes over repetitions. [dispatch_us]
    (default 3.0) is the per-launch CPU overhead, as in
    {!Spacefusion.compile}'s plan comparison. Emits [shard.*] metrics.

    Per-kernel counters come from the plan's memoised walk on the node's
    arch ({!Gpu.Plan.walk}; a warm plan is not walked again). A plan with
    no memo there is walked arch-free, so a kernel over that arch's
    budget is still costed. *)

val run_functional : ?arch:Gpu.Arch.t -> Gpu.Device.t -> Gpu.Plan.t -> devices:int -> unit
(** Execute the plan functionally as [devices] data-parallel devices
    would: for each kernel, run every device's residue class
    ({!Gpu.Exec.run} with [shard]) against the shared tensor table —
    the post-all-gather globally-visible state. The differential oracle
    asserts this is bit-identical to the unsharded full walk. *)

val strategy_name : strategy -> string
val to_json : decision -> Obs.Json.t
val pp : Format.formatter -> decision -> unit
