(** Deterministic, seed-driven fault model.

    A plan is a pure function from [(seed, stream, seq)] to a per-launch
    {!decision}: it never holds mutable state, so the complete fault
    schedule of any execution stream can be recomputed, replayed, or
    compared across runs — the property the chaos soak gate and the
    determinism tests are built on. Stateful bookkeeping (launch counters,
    a dead device staying dead) lives in {!Inject}.

    The taxonomy follows what fused mega-kernels actually raise the blast
    radius of (FusionStitching, Neptune): a launch that never starts, a
    transient device error, a device that dies and stays dead, on-chip
    memory pressure that evicts a resident tile, and latency spikes that
    slow a kernel without failing it. *)

type severity =
  | Transient  (** retry the same path; the next attempt may succeed *)
  | Fatal  (** the device is gone; reroute to a fresh device/path *)
  | Degraded  (** resource pressure; prefer the cheaper unfused path *)
  | Poisoned
      (** the request payload itself is bad: retrying or rerouting cannot
          help, and in a batch only the poisoned member should fail *)

type kind =
  | Launch_failure  (** the kernel never started ([Transient]) *)
  | Device_error  (** transient ECC-style execution error ([Transient]) *)
  | Device_death  (** persistent: every later launch on the stream fails ([Fatal]) *)
  | Smem_eviction  (** shared-memory pressure killed the tile ([Degraded]) *)
  | Poison_request  (** member-attributable bad payload ([Poisoned]) *)
  | Resource_exhausted
      (** a memory budget was exceeded; shrink the work, don't retry it
          at the same size ([Degraded]) *)

val severity_of_kind : kind -> severity
val kind_to_string : kind -> string

type fault = {
  f_kind : kind;
  f_kernel : string;  (** kernel name at the faulting launch *)
  f_seq : int;  (** launch index within the injection stream *)
}

exception Injected of fault
(** The typed error every layer above the simulator classifies on. *)

val fault_to_string : fault -> string

type rates = {
  launch_failure : float;  (** per-launch probability of {!Launch_failure} *)
  device_error : float;
  device_death : float;
  smem_eviction : float;
  latency_spike : float;  (** per-launch probability of a slowdown *)
  spike_mult : float;  (** latency multiplier of a spike (>= 1) *)
  resource_exhausted : float;  (** per-launch probability of {!Resource_exhausted} *)
  poison_request : float;
      (** per-{e request} probability of {!Poison_request} — drawn once per
          request id via {!poisoned}, never per launch *)
}

val zero_rates : rates
(** All probabilities zero: a plan with these rates decides [Pass] for
    every launch without drawing, so an execution is bit-identical to one
    with no plan attached at all. *)

val storm : ?spike_mult:float -> ?poison:float -> ?resource:float -> rate:float -> unit -> rates
(** Split one total per-launch fault probability across the legacy taxonomy
    in fixed proportions (40% launch failure, 25% device error, 5% device
    death, 10% smem eviction, 20% latency spike) — the mix the [chaos]
    CLI and bench drive. [spike_mult] defaults to 4. [poison] and
    [resource] (both default 0) are additive rates for the two newer
    kinds; leaving them at 0 keeps the storm bit-identical to one built
    before those kinds existed. *)

val total_rate : rates -> float
(** Sum of the per-launch probabilities (poison is per-request and not
    included). *)

type t

val make : ?rates:rates -> seed:int -> unit -> t
(** [rates] defaults to {!zero_rates}. Raises [Invalid_argument] when any
    probability is negative, their sum exceeds 1, or [spike_mult < 1]. *)

val seed : t -> int
val rates : t -> rates

type decision =
  | Pass
  | Slow of float  (** execute, but this launch takes [m]x its time *)
  | Fail of kind

val decide : t -> stream:int -> seq:int -> decision
(** The decision for launch [seq] of [stream]: a pure, stateless draw —
    the same triple always yields the same decision. A plan whose total
    rate is zero short-circuits to [Pass] without hashing. *)

val schedule : t -> stream:int -> n:int -> decision list
(** The first [n] decisions of a stream — the reproducible fault schedule
    (determinism tests compare two of these for equality). *)

val poisoned : t -> request:int -> bool
(** Whether request [request] carries a poisoned payload: a pure draw on a
    dedicated stream namespace disjoint from every launch-injection
    stream, so the same seed always poisons the same request ids and a
    zero [poison_request] rate returns [false] without hashing. *)
