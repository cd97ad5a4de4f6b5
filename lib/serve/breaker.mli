(** Per-(backend, arch) circuit breakers for the serving path.

    Classic three-state machine, keyed by execution path:

    - [Closed] — normal operation; consecutive failures are counted, and
      reaching [threshold] trips the breaker open.
    - [Open] — the path is short-circuited ({!acquire} answers
      [`Short_circuit]) until [cooldown_s] has elapsed, then the next
      acquire becomes the half-open probe.
    - [Half_open] — exactly one in-flight probe ([`Probe]); its success
      closes the breaker, its failure reopens it and restarts the
      cooldown. Non-probe acquires keep short-circuiting.

    A [cooldown_s] of zero makes transitions purely event-driven (trip on
    failure, probe on the very next acquire) — the configuration the
    deterministic chaos soak runs, since no decision then depends on the
    clock.

    Transitions are mirrored into {!Obs.Metrics} under [breaker.*]:
    [breaker.opened], [breaker.half_opened], [breaker.closed],
    [breaker.short_circuits], [breaker.probes] (counters) and
    [breaker.open] (gauge: breakers currently not closed). *)

type config = {
  threshold : int;  (** consecutive failures that trip the breaker (>= 1) *)
  cooldown_s : float;  (** open dwell before the half-open probe (>= 0) *)
}

val default_config : config
(** threshold 5, cooldown 50 ms. *)

type state = Closed | Open | Half_open

type t

val create : ?clock:(unit -> float) -> config -> t
(** One registry of breakers, lazily keyed by {!acquire}'s [key]. [clock]
    defaults to [Unix.gettimeofday] (injectable for tests). Raises
    [Invalid_argument] on a non-positive threshold or negative cooldown. *)

val acquire : t -> key:string -> [ `Proceed | `Probe | `Short_circuit ]
(** Ask to send one request through [key]'s path. [`Proceed] (closed),
    [`Probe] (this caller is the half-open probe — it must report back via
    {!success} or {!failure} with [probe:true]), or [`Short_circuit] (open,
    or half-open with the probe slot taken: don't attempt the path). *)

val success : t -> key:string -> probe:bool -> unit
(** Report a successful attempt: resets the consecutive-failure count; a
    probe success closes the breaker. *)

val failure : t -> key:string -> probe:bool -> unit
(** Report a failed attempt: a probe failure reopens the breaker; a closed
    breaker counts it and trips at [threshold]. *)

val state : t -> key:string -> state
(** [Closed] for keys never acquired. *)

val trips : t -> key:string -> int
(** How many times [key]'s breaker has opened. *)
