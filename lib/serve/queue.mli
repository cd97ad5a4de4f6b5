(** Bounded multi-producer/multi-consumer FIFO admission queue with
    per-item deadlines — the serving runtime's backpressure point.

    Capacity is a hard bound: {!push} never blocks and never grows the
    backlog past [capacity]; an arrival that finds the queue full is
    refused immediately (the server maps that to a [Rejected] outcome).
    Items leave in admission order. A deadline is an absolute clock
    reading: an item whose deadline has passed by the time a consumer
    takes it is surfaced as [`Expired] rather than [`Item], so expiry is
    decided exactly once, by exactly one consumer.

    The [clock] is injectable so tests can drive expiry deterministically
    with a fake clock; it defaults to [Unix.gettimeofday]. *)

type 'a t

type 'a popped = {
  p_payload : 'a;
  p_deadline : float option;  (** absolute, on the queue's clock *)
  p_queued_s : float;  (** time spent in the backlog *)
}

val create : ?clock:(unit -> float) -> capacity:int -> unit -> 'a t
(** Raises [Invalid_argument] on [capacity < 1]. *)

val length : 'a t -> int
(** Items currently in the backlog (<= capacity, always). *)

val push : 'a t -> ?deadline:float -> 'a -> [ `Queued | `Full | `Closed ]
(** Admit an item ([`Queued]), or say why it was not enqueued: [`Closed]
    after {!close}, whatever the backlog, else [`Full] at capacity. Never
    blocks. *)

val pop : 'a t -> [ `Item of 'a popped | `Expired of 'a popped | `Closed ]
(** Take the oldest item, blocking while the queue is empty and open.
    After {!close}, the backlog keeps draining through [`Item]/[`Expired]
    and consumers get [`Closed] only once it is empty. *)

val take :
  'a t -> (expired:bool -> 'a -> bool) -> [ `Item of 'a popped | `Expired of 'a popped ] list
(** [take q f] atomically removes every queued item [f] accepts and
    returns them oldest first; the rest keep their order. [f] sees every
    queued item once, oldest first, so it may keep state — a batch leader
    counts the rows it has gathered. [expired] tells [f] whether the
    item's deadline has passed; a taken expired item comes back as
    [`Expired], exactly as {!pop} would report it. Never blocks; while
    the queue is paused (and open) it takes nothing and does not call
    [f]. *)

val close : 'a t -> unit
(** Stop admitting ({!push} returns [`Closed] from now on) and wake every
    blocked consumer. Idempotent. *)

val pause : 'a t -> unit
(** Hold items back from {!pop} and {!take} (consumers block as if the
    queue were empty) while {!push} keeps admitting. Used to build a static backlog
    whose admission decisions are a pure function of submit order —
    the overload determinism gates depend on it. {!close} overrides a
    pause so shutdown never hangs. Idempotent. *)

val resume : 'a t -> unit
(** Undo {!pause} and wake every blocked consumer. Idempotent. *)
