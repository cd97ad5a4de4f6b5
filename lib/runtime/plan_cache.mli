(** Compilation cache — the paper's program-preprocessing notes that "most
    of these subprograms are repetitive. SpaceFusion compiles the repetitive
    ones only once" (§5).

    Keys are (policy, architecture, plan-name-prefix, graph): tensor names
    are baked into plans, and {!Ir.Parse.to_dsl} is deterministic and
    name-stable, so its MD5 digest ({!graph_digest}) identifies the graph —
    the cache stores a 16-byte digest per entry instead of the whole DSL
    text. A served request does not serialize its graphs again: its
    {!Workload} derived each subprogram's digest once, at [make], and
    {!lookup} takes it from there.

    An entry is a plan and its [verified] stamp: a first functional run of
    the plan completed. The cache is safe to share across domains: a mutex
    guards the table, and a single flight claims a key for the work it
    needs — the compile, and for a caller that passes one, the first run —
    which runs outside the lock, so distinct keys overlap. The claimer is
    the only writer of its key's entry (and store file). *)

type t

type 'a found = {
  plan : Gpu.Plan.t;
  hit : bool;  (** the plan came from the table: this lookup compiled nothing *)
  compile_s : float;  (** wall-clock of this lookup's compile; [0.0] on a hit *)
  first : 'a option;  (** [first_run]'s result, when this lookup ran it *)
}

val graph_digest : Ir.Graph.t -> Digest.t
(** MD5 of the graph's canonical DSL text: the one content digest of a
    graph, in every cache key, every store key (its hex) and
    {!Workload.digest}. *)

val create : ?store:Store.Plan_store.t -> unit -> t
(** With [store], the cache is backed by the on-disk plan store: every
    entry the store holds is loaded on create (with its persisted
    [verified] stamp, so a restarted process keeps its warm fast path),
    and the claimer of a key writes the entry it settles, once. *)

val lookup :
  t ->
  ?devices:int ->
  ?cls:Shape_class.t ->
  ?first_run:(Gpu.Plan.t -> 'a) ->
  Backends.Policy.t ->
  Gpu.Arch.t ->
  name:string ->
  digest:Digest.t ->
  Ir.Graph.t ->
  'a found
(** The policy's [compile], memoized, with an optional single-flight first
    run. [digest] must be [graph_digest graph]: the key is built from it,
    and the graph is only read to compile it. A {!Workload} stores it per
    subprogram, so a warm lookup hashes nothing. A lookup that compiles
    counts one miss; any other counts one hit. Events are mirrored into
    {!Obs.Metrics} ([cache.hits] / [cache.misses] counters, the
    [cache.size] gauge; a classed lookup also counts [shape_class.hits] /
    [shape_class.guard_misses]) and the compile itself runs under a
    [cache_compile] span.

    A resident entry is served at once when it is verified or when the
    caller passes no [first_run]: one lock, one table lookup. Otherwise
    the first caller claims the key; callers racing on it wait for the
    claim's release and then look again. The claimer compiles the plan if
    the key is absent (or takes the resident, unverified entry), runs
    [first_run plan] on its own domain outside the lock, then inserts the
    entry — stamped verified when [first_run] returned — writes the store
    once and releases the claim. So identical concurrent lookups compile
    once and run [first_run] once; the others are verified hits
    ([first = None]).

    The claim is released on every exit. A compile that raises leaves the
    key absent; a [first_run] that raises leaves the entry resident and
    unstamped, so the next lookup with a [first_run] runs it again.
    [first_run] must not look up this cache: its key is claimed.

    [devices] (default 1) is part of the key: a plan placed for a
    4-device node and the same graph's single-device plan are distinct
    cache entries (and distinct store files), so a sharding decision never
    leaks across device counts.

    [cls] adds a shape class to the key (default unclassed, spelled ["-"]).
    A classed entry is compiled from the class's {e canonical} graph (the
    representative shape) and serves every in-class shape; pass the
    canonical graph, not the request's concrete one. Classed and exact
    keys never collide even at the representative shape. *)

val compile :
  t ->
  ?devices:int ->
  ?cls:Shape_class.t ->
  Backends.Policy.t ->
  Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t
(** {!lookup} without a first run: the plan only. It derives the key's
    digest from the graph ({!graph_digest}). *)

val hits : t -> int
val misses : t -> int

val length : t -> int
(** Plans currently resident. *)
