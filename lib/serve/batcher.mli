(** Batch formation, bisection and delivery.

    A batch is the request a worker popped (its leader) plus the requests
    with the leader's key that the worker gathered from the backlog. The
    key is the request's shape-class-aware {!Runtime.Workload.digest},
    so "same key" means "same backend,
    architecture, model and shape class". A non-sliceable request, or a
    sliceable one that finds nothing to gather, is a one-member batch.
    A batch is sealed as it forms: members stack their rows in admission
    order, the leader first, nothing joins later and nobody waits for
    joiners. Every member is a callback, never a blocked worker.

    {!execute} runs the batch with bisection-on-failure and then delivers:
    the caller's [run] either serves a subset of members whole or asks for
    a [`Split] because the failure is member- or size-attributable.
    Bisection retries halves recursively; a singleton that still splits is
    {e isolated} — the failure is delivered to that member alone, and
    every other member is served by some passing sub-run. Each member is
    handed its own row slice [\[sl_off, sl_off+sl_len)] of the sub-run
    that served it, and expires against {e its own} absolute deadline —
    joining a batch never substitutes the leader's.

    Bisection is pure control flow over the caller's callback: the same
    members and the same run verdicts always produce the same sub-run
    tree — which is what lets same-seed chaos storms replay their
    bisections byte-identically.

    Metrics: [batch.closed] (batches delivered), [batch.boundary_closes]
    (batches whose rows reached the cap), [batch.bisections] (splits
    performed) and [batch.isolated] (singletons that still failed after
    full isolation). The last two count only inside batches of more than
    one member. *)

type 'r slot = {
  sl_result : 'r;  (** the result of the (sub-)run that served this member *)
  sl_members : int;  (** members served by that run *)
  sl_rows : int;  (** total rows of that run (0 for a non-sliceable member) *)
  sl_off : int;  (** this member's first row within that run *)
  sl_len : int;  (** this member's row count (0 for a non-sliceable member) *)
  sl_expired : bool;
      (** this member's own absolute deadline had passed at delivery *)
}

type 'r member = {
  m_rows : int;
      (** the member's leading-dimension rows; 0 for a non-sliceable
          request, which is always alone in its batch *)
  m_deadline : float option;  (** absolute, on the delivery clock *)
  m_tag : int;
      (** opaque per-member id — the server passes the request's
          injection-stream id, so poison draws are member-attributable *)
  m_cb : 'r slot -> unit;  (** runs exactly once, at delivery *)
}

type 'r t

val form : cap:int -> 'r member list -> 'r t
(** A sealed batch of the members in the given order (the leader first),
    each assigned the next [m_rows] rows of the stacked space, so slices
    are disjoint and in admission order. The caller chose the members so
    their rows fit under the class boundary [cap]. Raises
    [Invalid_argument] on an empty list, a member without rows in a batch
    of several, or a row total above [cap]. *)

val members : 'r t -> int

val run_deadline : 'r t -> float option
(** The absolute deadline the execution should honor: the slackest
    member's ([None] if any member is deadline-free). Members past their
    own deadline expire individually at delivery. *)

val execute :
  'r t ->
  clock:(unit -> float) ->
  run:('r member list -> rows:int -> [ `Served of 'r | `Split of 'r ]) ->
  unit
(** Run the batch, bisecting on failure, then deliver it. [run ms ~rows]
    executes the contiguous subset [ms] (the whole batch first) restacked
    to [rows] total rows. [`Served r] serves every member of [ms] from
    [r], at offsets assigned cumulatively in subset order. [`Split r] asks
    for a bisection: the first ⌈n/2⌉ members run again, then the rest,
    recursively; at a singleton, [r] is delivered to that member as its
    own (failure) result. After the last run every member's callback runs
    once, in admission order, with [sl_expired] judged on [clock]. *)
