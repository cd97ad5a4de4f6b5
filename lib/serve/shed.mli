(** Adaptive overload control for the serving tier.

    Two cooperating defenses, both deterministic given a deterministic
    caller (frozen clock, fixed submit order):

    {b Admission feasibility.} The server {!observe}s each completed
    run's {e simulated} service time (the cost model's
    [Exec_stats.x_time], never the wall clock, so estimates replay
    bit-identically) into a per-request-key EWMA (smoothing factor 0.3),
    and charges every admitted request's estimate to a running backlog.
    {!admit} then judges a new arrival at the door: if the estimated
    queue wait (backlog / workers) plus the key's estimated service time
    already exceeds the relative deadline, the request is infeasible and
    is shed {e now} — a distinct [Shed] outcome, resolved without
    executing — instead of timing out after burning queue and worker
    time. Keys never seen before admit optimistically: cold starts must
    not shed on ignorance.

    {b Quarantine.} Each confirmed poisoned payload counts an
    {!offense} against its request key; once a key reaches the offense
    threshold, {!quarantined} flags it and the server resolves further
    requests on that key as [Quarantined] without executing them.
    Threshold 0 disables quarantine.

    Metrics: [shed.backlog_seconds] (gauge), [shed.offenses] (counter).
    The [Shed] / [Quarantined] terminal outcomes themselves are counted
    by {!Stats}. *)

type t

val create : ?workers:int -> ?quarantine_threshold:int -> unit -> t
(** [workers] is the consumer parallelism used to turn backlog seconds
    into estimated wait (default 1); [quarantine_threshold] the offense
    count at which a key is quarantined (default 0 = disabled). Raises
    [Invalid_argument] on out-of-range values. *)

(** {1 Service-time estimation} *)

val observe : t -> key:string -> service_s:float -> unit
(** Fold one completed run's simulated service time into the key's EWMA
    (first observation initialises it). Negative/NaN values are ignored. *)

val estimate : t -> key:string -> float option

(** {1 Admission feasibility} *)

val admit : t -> key:string -> ?deadline_rel:float -> unit -> [ `Admit of float | `Shed of string ]
(** Judge an arrival. [`Admit charge] means feasible (or no basis to
    judge): [charge] seconds were added to the backlog and the caller
    must {!drain} exactly that amount when the request leaves the queue
    (popped, gathered, or expired). [`Shed reason] means the deadline is
    already infeasible; nothing was charged and the caller should
    resolve the request as shed without enqueueing it. [deadline_rel] is
    relative (seconds from now); absent means no deadline and always
    admits. *)

val drain : t -> float -> unit
(** Remove a previously charged admission from the backlog (clamped at
    zero). Charges of 0 are free. *)

val backlog_seconds : t -> float

(** {1 Quarantine} *)

val offense : t -> key:string -> int
(** Record a confirmed poisoned payload against a key; returns the new
    offense count. *)

val offenses : t -> key:string -> int

val quarantined : t -> key:string -> bool
(** Whether the key has reached the quarantine threshold (always [false]
    when the threshold is 0). *)
