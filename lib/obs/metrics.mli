(** Process-wide registry of named counters, gauges and histograms.

    This is the single sink that absorbs the pipeline's previously ad-hoc
    counters: plan-cache hits/misses, {!Core.Cstats} phase times
    and tuner prune/evaluation counts, fuzzing statistics. Handles are
    interned by name — asking twice for the same counter returns the same
    cell — and updates are lock-free for counters/gauges (atomics) and a
    per-histogram mutex otherwise, so instrumented code may update from any
    domain (the serving tier's workers update concurrently).

    Unlike tracing there is no off switch: a metric update is an atomic
    add, cheap enough to leave on everywhere.

    Naming convention (see DESIGN.md's metric table): dot-separated,
    [<subsystem>.<quantity>], seconds suffixed [_seconds]. *)

type counter
type gauge
type histogram

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { h_count : int; h_sum : float; h_min : float; h_max : float }

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram
(** Find-or-create by name. Raises [Invalid_argument] if the name is
    already registered as a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit

val add : gauge -> float -> unit
(** Atomic relative update (CAS loop) — for gauges tracking a population
    (e.g. open circuit breakers) rather than a sampled level. *)

val observe : histogram -> float -> unit

val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name. *)

val find : string -> value option

val reset : unit -> unit
(** Zero every registered metric {e in place}: existing handles remain
    valid (a removed cell would silently detach cached handles). *)

val value_to_json : value -> Json.t

val to_json : unit -> Json.t
(** Flat object: counters and gauges as numbers, histograms as
    [{"count","sum","min","max"}] objects. *)

val pp : Format.formatter -> unit -> unit
