(** Nested phase spans over the compile/run pipeline.

    Tracing is process-global and {e off by default}: with tracing disabled
    {!with_span} is a single atomic load followed by a direct call — no
    allocation, no clock read — so instrumentation can live on compile-time
    hot paths (lowering, tuning) without perturbing benchmarks.

    When enabled, each domain keeps its own current-span cursor (domain-
    local storage), and completed spans attach to their parent under one
    collector mutex, so concurrent serving workers can trace at once: each
    worker's spans nest under that worker's own open span. *)

type span = {
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start : float;  (** seconds since the trace epoch ({!reset}) *)
  mutable sp_dur : float;  (** seconds, clamped to >= 0 *)
  mutable sp_children : span list;  (** completion order, newest first *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all collected spans and restart the epoch. Call only while no
    span is open (between pipeline runs). *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a span. The span is attached to its parent (or the
    root list) when the thunk returns, also on raise. Disabled mode calls
    the thunk directly. *)

val roots : unit -> span list
(** Completed top-level spans, oldest first. *)

(** {1 Flame-style aggregation}

    Raw traces of a model compile hold one span per lowered candidate —
    thousands of nodes. The exported profile merges spans with the same
    name under the same parent path (exactly a flame graph's folding), so
    the tree stays proportional to the number of distinct pipeline phases,
    and its shape is deterministic: children sort by name, counts and
    totals are sums. *)

type agg = {
  a_name : string;
  a_count : int;  (** spans folded into this node *)
  a_total_s : float;  (** summed duration (concurrent workers' roots may overlap) *)
  a_children : agg list;  (** sorted by name *)
}

val aggregate : span list -> agg list
val agg_paths : agg list -> string list
(** Every distinct ["a/b/c"] path in the aggregated tree, sorted. *)

val agg_to_json : agg list -> Json.t
val pp_agg : Format.formatter -> agg list -> unit
