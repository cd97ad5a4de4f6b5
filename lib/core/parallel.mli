(** The default domain count: serving workers, and the helper domains
    of {!tabulate}.

    This count sizes the pools of callers that run whole requests
    concurrently ([Serve.Server]'s worker domains, the CLI's [--workers]
    default). Called from the main domain, two callers also spread
    independent work over up to this many domains through {!tabulate}: a
    compile costs a large tuner candidate set ({!Tuner.pick_best}), and
    [Runtime.Verify.verify_plan] checks a large graph's seeds. Inside any
    other domain, such as a serving worker, that work stays on its domain.

    Resolution, in priority order:
    + a {!with_jobs} override installed by the caller;
    + the [SPACEFUSION_JOBS] environment variable (>= 1; anything else is
      ignored);
    + [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** The resolved count (see resolution order above), clamped to
    [\[1, 64\]]. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the default count forced to [max 1 n],
    restoring the previous setting afterwards (also on raise). The
    override is process-global: install it from the main domain only. *)

val tabulate : ?stop:('a -> bool) -> jobs:int -> int -> (int -> 'a) -> int -> 'a
(** [tabulate ~jobs n f] is a lookup equal to [f] on [\[0, n)].

    Called from the main domain with [min jobs n > 1], it evaluates the
    indices before returning, on the calling domain and [min jobs n - 1]
    helper domains that take them in increasing order from one atomic
    counter; the helpers are spawned and joined inside this call. Once an
    index's value satisfies [stop] (default: none does), no further index
    is started. The lookup returns an evaluated
    index's value, or re-raises its exception (with its backtrace), only
    when that index is asked for, and evaluates an index that was never
    started on the spot. Otherwise [tabulate] returns [f] itself, which
    evaluates on demand. So [f] must be safe to run on several domains at
    once, and a caller that asks for indices in a fixed order sees the
    same values and the same first exception either way. *)
