(** The one description of "what to run, where": backend policy,
    architecture, model, plus multi-device placement hints.

    Before this record existed the [(backend, arch, model)] positional
    triple was repeated at every layer — runner, server, breaker
    accessors, cache digests, store stamps — each with its own argument
    order. A workload is built once at the edge and threaded through
    {!Model_runner.run_workload_r} and [Serve.Server.submit_w]; the one
    positional spelling left, [Serve.Server.submit], is a thin wrapper
    (see DESIGN.md "Multi-device node & fleet routing"). *)

type placement =
  | Auto  (** the fleet router picks by plan locality and device load *)
  | Pin of int  (** always serve on this device index *)

type t = {
  backend : Backends.Policy.t;
  arch : Gpu.Arch.t;
  model : Ir.Models.model;
  devices : int;
      (** device count the plan is compiled/costed for; 1 = classic
          single-device behavior, bit-identical to the legacy API *)
  placement : placement;
  shapes : Shape_class.policy;
      (** shape-bucketing policy; [Exact] (the default) is bit-identical
          to the legacy per-shape behavior *)
}

val make :
  ?devices:int ->
  ?placement:placement ->
  ?shapes:Shape_class.policy ->
  arch:Gpu.Arch.t ->
  Backends.Policy.t ->
  Ir.Models.model ->
  t
(** [devices] defaults to 1, [placement] to [Auto]. Raises
    [Invalid_argument] on [devices < 1] or [Pin i] outside
    [\[0, devices)]. *)

val digest : t -> string
(** Hex MD5 identity of the workload: policy, architecture, device count
    and the digest of every subprogram — two workloads with equal digests
    are interchangeable end to end. This is the serving layer's request
    key — batching, service-time estimates, quarantine and fleet
    locality all use it (the same identity a warm plan cache sees).
    Under [Pow2], sliceable subprograms contribute their
    (shape class, canonical graph) instead of the concrete shape, so
    every in-class shape shares one digest — the batch-admission key. *)

val batch_space : t -> (int * int) option
(** [Some (rows, cap)] when the workload is row-sliceable under its
    bucketing policy: [rows] is its concrete leading (batch) dim and
    [cap] the {e next} shape-class boundary (twice the class
    representative) — concurrent in-class requests stack rows into one
    batch until the total would cross [cap]. A multi-member batch's total
    always lands one class up (each member's rows exceed half its class
    representative), so the stacked run executes at [cap] — one cached
    plan per boundary. [None] under [Exact] or for non-sliceable models:
    the server runs such a request as a one-member batch. *)

val rebatch : t -> rows:int -> t
(** The same workload with every subprogram's leading (batch) dimension
    replayed at [rows] — what a batch leader executes when members
    stacked their rows past its own dim. Raises [Invalid_argument] when
    {!batch_space} is [None]. *)

val path_key : t -> string
(** The ["backend|arch"] fused-path identity a circuit breaker guards
    (device-suffixed per-device keys are derived by the fleet router). *)

val describe : t -> string
(** Human-readable one-liner, e.g. ["bert/spacefusion@ampere x4"]. *)

val to_json : t -> Obs.Json.t
