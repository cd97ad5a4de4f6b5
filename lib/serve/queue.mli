(** Bounded multi-producer/multi-consumer admission queue with priorities
    and per-item deadlines — the serving runtime's backpressure point.

    Capacity is a hard bound: {!push} never blocks and never grows the
    backlog past [capacity]; an arrival that finds the queue full is
    refused immediately (the server maps that to a [Rejected] outcome).
    Within one priority class items leave in FIFO order; across classes a
    lower number always leaves first. A deadline is an absolute clock
    reading: an item whose deadline has passed by the time a consumer
    takes it is surfaced as [`Expired] rather than [`Item], so expiry is
    decided exactly once, by exactly one consumer.

    The [clock] is injectable so tests can drive expiry deterministically
    with a fake clock; it defaults to [Unix.gettimeofday]. *)

type 'a t

type 'a popped = {
  p_payload : 'a;
  p_priority : int;
  p_deadline : float option;  (** absolute, on the queue's clock *)
  p_queued_s : float;  (** time spent in the backlog *)
}

val create : ?clock:(unit -> float) -> ?priorities:int -> capacity:int -> unit -> 'a t
(** [priorities] is the number of classes (default 1); {!push} clamps its
    [priority] argument into [\[0, priorities - 1\]], 0 being the most
    urgent. Raises [Invalid_argument] on [capacity < 1] or
    [priorities < 1]. *)

val length : 'a t -> int
(** Items currently in the backlog (<= capacity, always). *)

val push : 'a t -> ?priority:int -> ?deadline:float -> 'a -> bool
(** Admit an item; [false] when the queue is full or closed (the item was
    not enqueued). Never blocks. *)

val pop : 'a t -> [ `Item of 'a popped | `Expired of 'a popped | `Closed ]
(** Take the oldest item of the most urgent non-empty class, blocking
    while the queue is empty and open. After {!close}, the backlog keeps
    draining through [`Item]/[`Expired] and consumers get [`Closed] only
    once it is empty. *)

val take :
  'a t -> (expired:bool -> 'a -> bool) -> [ `Item of 'a popped | `Expired of 'a popped ] list
(** [take q f] atomically removes every queued item [f] accepts and
    returns them in pop order (most urgent class first, FIFO within a
    class); the rest keep their order. [f] sees every queued item once,
    in that order, so it may keep state — a batch leader counts the rows
    it has gathered. [expired] tells [f] whether the item's deadline has
    passed; a taken expired item comes back as [`Expired], exactly as
    {!pop} would report it. Never blocks; while the queue is paused (and
    open) it takes nothing and does not call [f]. *)

val close : 'a t -> unit
(** Stop admitting ({!push} returns [false] from now on) and wake every
    blocked consumer. Idempotent. *)

val pause : 'a t -> unit
(** Hold items back from {!pop} and {!take} (consumers block as if the
    queue were empty) while {!push} keeps admitting. Used to build a static backlog
    whose admission decisions are a pure function of submit order —
    the overload determinism gates depend on it. {!close} overrides a
    pause so shutdown never hangs. Idempotent. *)

val resume : 'a t -> unit
(** Undo {!pause} and wake every blocked consumer. Idempotent. *)

val flush : 'a t -> 'a popped list
(** Remove and return the whole backlog, oldest-first within each class,
    most urgent class first. Used by non-draining shutdown to fail the
    backlog explicitly; concurrent {!pop}s and a [flush] partition the
    items (nothing is delivered twice). *)
