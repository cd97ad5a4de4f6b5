(** Per-server request accounting, mirrored into the process-wide
    {!Obs.Metrics} registry under the [serve.*] namespace.

    Every request resolves to exactly one terminal event, so the snapshot
    obeys a conservation law ({!conserved}) that the stress suite and the
    CI smoke gate assert:

    {v submitted = done + rejected + timed_out + failed + shed + quarantined v}

    Event taxonomy (one terminal event per request, plus annotations):
    - [Submitted] — {!Serve.Server.submit} was called (counted always).
    - [Admitted] — the request entered the queue (complement: an
      admission-time [Rejected]).
    - terminal: [Done] | [Rejected] (queue full, submitted after
      shutdown, or unsupported backend/arch) | [Timed_out] (deadline
      passed in the backlog, or before the run that carried the request
      delivered — a retry's backoff would have outlived the batch's
      deadline) | [Failed] (retries exhausted, or a poisoned payload) | [Shed]
      (admission control judged the deadline infeasible; resolved without
      executing) | [Quarantined] (the request key exceeded its poison
      offense threshold; resolved without executing).
    - annotations (orthogonal to the terminal event): [Coalesced]
      (gathered from the backlog into a batch led by another request),
      [Batched] (delivered from a run of 2+ members — counted once per
      member, leader included), [Degraded] (served from the unfused
      baseline), [Retried] (one per retry attempt).

    Global metric names: [serve.submitted], [serve.admitted],
    [serve.rejected], [serve.timed_out], [serve.done], [serve.failed],
    [serve.coalesced], [serve.batched], [serve.degraded], [serve.retries],
    [serve.shed], [serve.quarantined] (counters);
    [serve.queue_depth] (gauge); [serve.latency_seconds],
    [serve.queue_wait_seconds] (histograms). The registry is process-wide
    and additive across servers; per-server numbers come from
    {!snapshot}. *)

type t

type event =
  | Submitted
  | Admitted
  | Rejected
  | Timed_out
  | Done
  | Failed
  | Coalesced
  | Batched
  | Degraded
  | Retried
  | Shed
  | Quarantined

type snapshot = {
  s_submitted : int;
  s_admitted : int;
  s_rejected : int;
  s_timed_out : int;
  s_done : int;
  s_failed : int;
  s_coalesced : int;
  s_batched : int;
  s_degraded : int;
  s_retries : int;
  s_shed : int;
  s_quarantined : int;
}

val create : unit -> t
(** Also interns every [serve.*] metric so an idle server still shows them
    at zero in a profile. *)

val record : t -> event -> unit

val observe_latency : t -> queue_s:float -> total_s:float -> unit
(** Record one completed request's backlog wait and submit-to-done
    latency, both into the global histograms and the per-server latency
    ring ({!latencies}). *)

val set_queue_depth : t -> int -> unit

val snapshot : t -> snapshot

val conserved : snapshot -> bool
(** [submitted = done + rejected + timed_out + failed + shed +
    quarantined]. *)

val latency_capacity : int
(** How many latencies the per-server ring keeps: 65 536. A server's
    memory must not grow with the requests it has served. *)

val latencies : t -> float list
(** The most recent [min observed latency_capacity] latencies passed to
    {!observe_latency}, oldest first. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100], by nearest-rank on a sorted
    copy; 0 on the empty list. *)

val snapshot_to_json : snapshot -> Obs.Json.t

val pp_snapshot : Format.formatter -> snapshot -> unit
