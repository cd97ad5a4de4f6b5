(** The default domain count: serving workers, and tuner costing domains.

    This count sizes the pools of callers that run whole requests
    concurrently ([Serve.Server]'s worker domains, the CLI's [--workers]
    default). A compile called from the main domain also costs a large
    candidate set on up to this many domains ({!Tuner.pick_best}); a
    compile inside any other domain, such as a serving worker, stays on
    that domain.

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
