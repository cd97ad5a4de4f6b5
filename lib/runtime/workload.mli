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

type sub = private {
  sp : Ir.Models.subprogram;  (** the request's own subprogram: concrete graph, count *)
  name : string;  (** its plan name, [model_name ^ "." ^ sp_name] *)
  cls : Shape_class.t option;
      (** its shape class under [Pow2] when it slices by rows; [None] =
          exact (unclassed) *)
  graph : Ir.Graph.t;
      (** the graph its plan is compiled, verified and run at: the class
          representative ({!Shape_class.plan_graph}) when classed, [sp]'s
          own graph otherwise *)
  digest : Digest.t;  (** {!Plan_cache.graph_digest} of [graph] *)
}
(** A subprogram with its identity, derived once by {!make}. *)

type t = private {
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
  subs : sub list;  (** [model]'s subprograms with their identities, in order *)
  key : string;  (** what {!digest} returns *)
  space : (int * int) option;  (** what {!batch_space} returns *)
}
(** Private: only {!make} and {!rebatch} build one, so the identity
    fields ([subs], [key], [space]) always match the rest of the record.
    They are computed eagerly, not lazily: a workload is read from many
    domains at once, and forcing one lazy value from two domains raises.

    A workload's graphs must not change after {!make}: {!Ir.Graph.t} is
    mutable, and the identity derived from them is not derived again
    (nor is it between a request's submit and its run). *)

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
    [\[0, devices)]. Derives the workload's identity here, once: each
    subprogram's shape class, canonical graph, graph digest and plan name,
    then the workload's {!digest} and {!batch_space}. Every reader —
    the runner's plan-cache lookups, the server's batching, shedding and
    fleet placement — reads these fields instead of serializing, hashing
    or rebatching a graph again. *)

val digest : t -> string
(** Hex MD5 identity of the workload: policy, architecture, device count
    and the digest of every subprogram — two workloads with equal digests
    are interchangeable end to end. This is the serving layer's request
    key — batching, service-time estimates, quarantine and fleet
    locality all use it (the same identity a warm plan cache sees).
    Under [Pow2], sliceable subprograms contribute their
    (shape class, canonical graph) instead of the concrete shape, so
    every in-class shape shares one digest — the batch-admission key.
    A field read: computed by {!make}. *)

val batch_space : t -> (int * int) option
(** [Some (rows, cap)] when the workload is row-sliceable under its
    bucketing policy: [rows] is its concrete leading (batch) dim and
    [cap] the {e next} shape-class boundary (twice the class
    representative) — concurrent in-class requests stack rows into one
    batch until the total would cross [cap]. A multi-member batch's total
    always lands one class up (each member's rows exceed half its class
    representative), so the stacked run executes at [cap] — one cached
    plan per boundary. [None] under [Exact] or for non-sliceable models:
    the server runs such a request as a one-member batch. A field read:
    computed by {!make}. *)

val rebatch : t -> rows:int -> t
(** The same workload with every subprogram's leading (batch) dimension
    replayed at [rows] — what a batch leader executes when members
    stacked their rows past its own dim. Its identity is derived afresh,
    as {!make} derives it for the rebatched model: one derivation per
    stacked run. Raises [Invalid_argument] when {!batch_space} is
    [None]. *)

val path_key : t -> string
(** The ["backend|arch"] fused-path identity a circuit breaker guards
    (device-suffixed per-device keys are derived by the fleet router). *)

val describe : t -> string
(** Human-readable one-liner, e.g. ["bert/spacefusion@ampere x4"]. *)

val to_json : t -> Obs.Json.t
