(** Batch formation and delivery — the continuous-batching upgrade of
    in-flight request coalescing.

    Requests with the same key (the server derives it from a
    shape-class-aware {!Runtime.Workload.digest}, so "same key" means
    "same backend, architecture, model and shape class") are served by
    {e one} execution. Exactly one member leads: it alone executes and
    {b must} eventually {!deliver}, on every path including failure.
    Every other member is a callback and never blocks a worker domain —
    the scheme is deadlock-free by construction, exactly as the
    coalescer it replaces.

    Two batch modes:

    - [Shared] — identical requests (same digest, same concrete shape, or
      a non-sliceable model). The first request to {!admit} a key leads;
      the batch stays joinable until the leader delivers, and every
      member receives the {e same} result value.
    - [Sliced] — row-sliceable requests of one shape class, stacked into
      one execution at the class representative. The leader forms the
      batch complete with {!sliced} from the requests already queued
      behind it, so nothing joins later and nobody waits for joiners.
      Each member is handed its own row slice [\[sl_off, sl_off+sl_len)]
      of the batched result space.

    Per-request latency is charged from admission: delivery hands every
    member enough to account its own queue wait and batch residency, and
    each member's [sl_expired] is decided against {e its own} absolute
    deadline — joining a batch never substitutes the leader's. *)

type mode = Shared | Sliced

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

val create : ?clock:(unit -> float) -> unit -> 'r t
(** [clock] judges member expiry at delivery (the server passes its
    own). *)

val admit :
  'r t -> key:string -> ?deadline:float -> ?tag:int -> ('r slot -> unit) -> [ `Lead of 'r batch | `Join ]
(** [Shared] single-flight. [`Lead b]: the caller opened the batch and
    must {!deliver} it. [`Join]: the callback was registered on the
    key's in-flight batch and will run, on the leader's domain, at
    delivery. The leader's own callback is registered too and runs first.
    [tag] (default 0) is an opaque per-member id surfaced by
    {!member_views}. *)

type 'r joiner = {
  j_rows : int;  (** the member's leading-dimension rows, [>= 1] *)
  j_deadline : float option;  (** absolute, on the batcher's clock *)
  j_tag : int;
      (** opaque per-member id — the server passes the request's
          injection-stream id so the bisection layer can attribute
          poison draws to members *)
  j_cb : 'r slot -> unit;
}

val sliced : cap:int -> 'r joiner list -> 'r batch
(** A complete [Sliced] batch, sealed as it forms: the members in the
    given order (the leader first), each assigned the next [j_rows] rows
    of the stacked space, so slices are disjoint and in admission order.
    The caller chose the members so their rows fit under the class
    boundary [cap]. Raises [Invalid_argument] on an empty list, a member
    with [j_rows < 1], or a row total above [cap]. *)

val deliver : 'r t -> 'r batch -> 'r -> int
(** Seal a [Shared] batch (unmap the key), and run every member's
    callback in admission order with its {!slot}; returns the number of
    non-leader members. Callbacks run outside the internal lock (one may
    re-admit). *)

type member_view = {
  mv_index : int;  (** admission index, 0 = leader *)
  mv_rows : int;  (** this member's row contribution (0 for [Shared]) *)
  mv_off : int;  (** row offset assigned at formation *)
  mv_deadline : float option;
  mv_tag : int;  (** the member's tag *)
}

val member_views : 'r t -> 'r batch -> member_view list
(** The batch's members in admission order. A [Sliced] batch's
    membership is fixed when it forms; its leader calls this to plan a
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
val mode : 'r batch -> mode

val in_flight : 'r t -> int
(** Keys currently mapped to a joinable [Shared] batch. *)
