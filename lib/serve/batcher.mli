(** Growing-batch admission — the continuous-batching upgrade of in-flight
    request coalescing.

    Concurrent requests for the same key (the server derives it from a
    shape-class-aware {!Runtime.Workload.digest}, so "same key" means
    "same backend, architecture, model and shape class") join {e one}
    batch instead of each executing. The first request to {!admit} a key
    leads the batch: it alone executes and {b must} eventually
    {!deliver}, on every path including failure. Requests admitted
    meanwhile register a callback and never block a worker domain — the
    scheme stays deadlock-free by construction, exactly as the coalescer
    it replaces.

    Two batch modes:

    - [Shared] — identical requests (same digest, same concrete shape, or
      a non-sliceable model). The batch stays joinable until the leader
      delivers; every member receives the {e same} result value. This is
      the legacy single-flight dedup, now with per-member deadlines.
    - [Sliced { rows; cap }] — row-sliceable requests of one shape class.
      Members stack their [rows] into one execution at the class
      representative; the batch closes (stops admitting) when the leader's
      {!grow} window elapses, when a member's deadline is imminent, or
      when the row total would cross the shape-class boundary [cap].
      Each member is handed its own row slice [\[sl_off, sl_off+sl_len)]
      of the batched result space.

    Per-request latency is charged from admission: delivery hands every
    member enough to account its own queue wait and batch residency, and
    each member's [sl_expired] is decided against {e its own} absolute
    deadline — joining a batch never substitutes the leader's. *)

type mode = Shared | Sliced of { rows : int; cap : int }

type 'r slot = {
  sl_result : 'r;  (** the batch's one result, physically shared *)
  sl_members : int;  (** batch size at delivery *)
  sl_rows : int;  (** total rows executed (0 for [Shared]) *)
  sl_off : int;  (** this member's first row in the batched space *)
  sl_len : int;  (** this member's row count (0 for [Shared]) *)
  sl_expired : bool;
      (** this member's own absolute deadline had passed at delivery *)
}

type 'r t
type 'r batch

val create : ?window_s:float -> ?clock:(unit -> float) -> unit -> 'r t
(** [window_s] (default 2 ms) bounds how long a [Sliced] leader's {!grow}
    waits for joiners; the server keeps the default, so it is a test
    seam, like [clock] (the server passes its own). Raises
    [Invalid_argument] on a negative window. *)

val admit :
  'r t ->
  key:string ->
  mode:mode ->
  ?deadline:float ->
  ?tag:int ->
  ('r slot -> unit) ->
  [ `Lead of 'r batch | `Join ]
(** [`Lead b]: the caller opened the batch and must {!grow} then
    {!deliver} (or {!deliver_each}) it. [`Join]: the callback was
    registered on the open batch and will run, on the leader's domain, at
    delivery. The leader's own callback is registered too and runs first.
    [tag] (default 0) is an opaque per-member id surfaced by
    {!member_views} — the server passes the request's injection-stream id
    so the bisection layer can attribute poison draws to members. *)

val grow : 'r t -> 'r batch -> unit
(** Leader only, before executing. [Shared]: returns immediately (the
    batch keeps admitting while the run is in flight). [Sliced]: sleeps in
    small quanta until the window elapses, the row total reaches the
    class boundary, or the tightest member deadline is reached — then
    seals the batch and unmaps the key so the next request leads afresh. *)

val deliver : 'r t -> 'r batch -> 'r -> int
(** Seal (if still open), unmap the key, and run every member's callback
    in admission order with its {!slot}; returns the number of non-leader
    members. Callbacks run outside the internal lock (one may re-admit). *)

type member_view = {
  mv_index : int;  (** admission index, 0 = leader *)
  mv_rows : int;  (** this member's row contribution (0 for [Shared]) *)
  mv_off : int;  (** row offset assigned at admission *)
  mv_deadline : float option;
  mv_tag : int;  (** the [tag] passed to {!admit} *)
}

val member_views : 'r t -> 'r batch -> member_view list
(** The batch's members in admission order. Leaders call this after
    {!grow} (membership is frozen once a [Sliced] batch seals) to plan a
    per-member delivery — the bisection path. *)

type 'r delivery = {
  dv_result : 'r;  (** the sub-run result this member is served from *)
  dv_batch : int;  (** members sharing that sub-run *)
  dv_rows : int;  (** total rows of that sub-run *)
  dv_off : int;  (** this member's first row within the sub-run *)
  dv_len : int;  (** this member's row count *)
}

val deliver_each : 'r t -> 'r batch -> 'r delivery array -> int
(** Like {!deliver}, but each member gets its own result and slice —
    how a bisected batch hands different sub-run results to different
    members. [deliveries.(i)] goes to admission index [i]; raises
    [Invalid_argument] when the array length does not match the member
    count. Returns the number of non-leader members. *)

val run_deadline : 'r batch -> float option
(** The absolute deadline the {e execution} should honor: the leader's
    own for [Shared] (joiners inherit the run, not its budget), the
    slackest member's for [Sliced] ([None] if any member is
    deadline-free). *)

val members : 'r batch -> int
val rows : 'r batch -> int

val in_flight : 'r t -> int
(** Keys currently mapped to an admitting batch. *)
