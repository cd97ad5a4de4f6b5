(** Compilation cache — the paper's program-preprocessing notes that "most
    of these subprograms are repetitive. SpaceFusion compiles the repetitive
    ones only once" (§5).

    Keys are (policy, architecture, plan-name-prefix, graph): tensor names
    are baked into plans, and {!Ir.Parse.to_dsl} is deterministic and
    name-stable, so its MD5 digest identifies the graph — the cache stores a
    16-byte digest per entry instead of the whole DSL text.

    The cache is safe to share across domains (a mutex guards the table;
    compilation itself runs outside the lock so distinct misses overlap),
    and optionally bounded: with [capacity] set, the least-recently-used
    plan is evicted once the table exceeds it. Hit/miss/eviction counters
    are reported through {!Core.Cstats}.

    A caller tells warm from cold only through the lookup that also
    hands it the plan ({!compile_hit}), so each request builds each key
    once. *)

type t

val create : ?capacity:int -> ?store:Store.Plan_store.t -> unit -> t
(** Unbounded unless [capacity] is given. Raises [Invalid_argument] on
    [capacity < 1].

    With [store], the cache is backed by the on-disk plan store: every
    entry the store holds is loaded on create (with its persisted
    [verified] stamp, so a restarted process keeps its warm fast path),
    each fresh compile is written behind, and [mark_verified] re-stamps
    the entry on disk. Eviction only drops residency — the plan stays in
    the store. *)

val compile :
  t ->
  ?devices:int ->
  ?cls:Shape_class.t ->
  Backends.Policy.t ->
  Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t
(** Like the policy's [compile], memoized. A lookup that compiles counts as
    one miss; a lookup served from the table counts as one hit and marks the
    entry most-recently-used. Events are mirrored into {!Obs.Metrics}
    ([cache.hits] / [cache.misses] / [cache.evictions] counters, the
    [cache.size] gauge) and the compile itself runs under a
    [cache_compile] span.

    [devices] (default 1) is part of the key on every entry point here: a
    plan placed for a 4-device node and the same graph's single-device
    plan are distinct cache entries (and distinct store files), so a
    sharding decision never leaks across device counts.

    [cls] adds a shape class to the key (default unclassed, spelled ["-"]).
    A classed entry is compiled from the class's {e canonical} graph (the
    representative shape) and serves every in-class shape; pass the
    canonical graph, not the request's concrete one. Classed and exact
    keys never collide even at the representative shape. *)

val compile_hit :
  t ->
  ?devices:int ->
  ?cls:Shape_class.t ->
  Backends.Policy.t ->
  Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t * bool
(** {!compile}, also reporting whether this lookup was served from the
    table ([true] = hit, including being handed another domain's in-flight
    result). {!Model_runner} uses this to attribute compile wall-clock only
    to lookups that actually compiled. *)

val compile_hit_verified :
  t ->
  ?devices:int ->
  ?cls:Shape_class.t ->
  Backends.Policy.t ->
  Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t * bool * bool
(** {!compile_hit}, additionally reporting the entry's [verified] stamp.
    On a miss this is the {e content} stamp: recompiling a digest whose
    plan was already verified (then evicted) reports [true], because the
    key digests the graph and equal content means equal semantics. A
    verified warm hit licenses
    {!Model_runner}'s fast path: the plan's functional execution already
    completed once, so an [`Auto] run may skip it and take the analytic
    walk. *)

val mark_verified :
  t ->
  ?devices:int ->
  ?cls:Shape_class.t ->
  Backends.Policy.t ->
  Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  unit
(** Stamp this key's plan {e content} as functionally verified: the
    resident entry (if any) is stamped now, and — because the key digests
    the graph — the stamp survives eviction and in-flight recompiles,
    re-applying itself on the next insert of the same key instead of
    being silently dropped. Persisted when the cache has a store. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val length : t -> int
(** Plans currently resident (<= capacity when one is set). *)

