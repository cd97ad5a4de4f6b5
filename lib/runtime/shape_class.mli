(** Shape-class plan compilation (ROADMAP item 1).

    Real traffic has varying batch sizes; compiling one plan per concrete
    shape makes every new shape a cold compile. A {e shape class} buckets
    the dynamic leading (batch) dimension into power-of-two intervals with
    an explicit guard predicate, so one plan — compiled at the class
    {e representative} (the bucket's upper bound) — serves every shape
    inside the bucket. A shape whose class has no compiled plan is a
    {e guard miss}: the runtime falls back to compile-and-insert under the
    classed key, never an error.

    Classing is only sound for {e batch-sliceable} graphs: every output
    row must depend on exactly the matching input row (no axis-0
    reductions over activations, no matmul whose B operand derives from
    an activation). {!plan_graph} performs that dataflow analysis and
    returns [None] for graphs that must keep exact-shape plans. *)

type policy = Exact | Pow2
(** [Exact] is a complete bypass: legacy unclassed keys, byte-identical
    workload digests, per-shape plans. [Pow2] buckets the leading batch
    dim into power-of-two classes. *)

val policy_of_string : string -> policy option
val policy_to_string : policy -> string

type t = { c_lo : int; c_hi : int }
(** The class of every dim [d] with [c_lo < d <= c_hi]; [c_hi] is a power
    of two (or 1) and [c_lo = c_hi / 2] (0 for the first class). *)

val classify : int -> t
(** Total over [d >= 1]: the unique class whose guard admits [d].
    Raises [Invalid_argument] on [d <= 0]. *)

val guard : t -> int -> bool
(** [guard c d] is [c.c_lo < d && d <= c.c_hi]. *)

val representative : t -> int
(** The dim the class's plan is compiled at: [c_hi], an upper bound for
    every in-class shape. *)

val id : t -> string
(** Stable cache-key component, e.g. ["p2:17-32"]. The unclassed (exact)
    key component is ["-"] by convention (see {!Plan_cache}). *)

val ladder : max_hi:int -> t list
(** All classes with [c_hi <= max_hi], smallest first — the full partition
    of [1..max_hi]. Used by the guard-totality property test. *)

val slice_dim : Ir.Graph.t -> int option
(** [Some d] when the graph is batch-sliceable along a leading dimension
    [d] shared by every input: each output row [i] is a function of input
    rows [i] only, so executing at any [R >= d] and slicing the first [d]
    rows is exact. Conservative — returns [None] on any construct whose
    row-independence is not guaranteed (axis-0 reduction over an
    activation-derived value, [keepdims:false] reductions, matmul with an
    activation-derived B operand, rank changes along the carrier path). *)

val rebatch : Ir.Graph.t -> rows:int -> Ir.Graph.t
(** Replay the graph with every input's leading dimension set to [rows];
    all downstream shapes are recomputed by the builders. Raises whatever
    the builders raise if the resized graph is ill-typed (callers treat
    that as "not sliceable"). *)

val canonical : Ir.Graph.t -> rows:int -> (t * Ir.Graph.t) option
(** For a graph that slices along a leading dim of [rows] (its
    {!slice_dim}): the class of [rows] and the {e canonical} graph
    rebatched to the class representative (the graph the plan is compiled
    and verified against; the graph itself when [rows] is already the
    representative). [None] when rebatching fails. *)

val plan_graph : policy:policy -> Ir.Graph.t -> (t * Ir.Graph.t) option
(** Under [Pow2], for a sliceable graph: {!canonical} at its
    {!slice_dim}. [None] under [Exact], for non-sliceable graphs, or when
    rebatching fails. {!Workload.make} derives this once per subprogram
    and stores it. *)
