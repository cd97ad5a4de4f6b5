(** Device-fleet state for the serving router: one slot per simulated
    device, tracking liveness, in-flight load and served counts.

    Placement is locality-then-load: a request's plan digest hashes to a
    preferred device (so identical workloads keep landing where their
    plans and caches are warm), and the router falls back to the
    least-loaded alive device when the preferred one is dead or busier
    than the fleet average. A device that takes an injected
    {!Fault.Plan.Device_death} is marked dead and never placed again;
    with a [fault_plan], each device carries its own persistent
    {!Fault.Inject} stream, so a death latches for the whole storm —
    exactly like a real device falling out of a node.

    Fleet events are mirrored into {!Obs.Metrics} ([fleet.placements],
    [fleet.locality_hits], [fleet.reroutes], [fleet.dead_devices]). *)

type t

val create : ?fault_plan:Fault.Plan.t -> devices:int -> unit -> t
(** Raises [Invalid_argument] on [devices < 1]. With [fault_plan],
    device [i] gets a persistent injector on stream [(1 lsl 30) lor i]
    (disjoint from the per-attempt request streams). *)

val devices : t -> int
val alive_count : t -> int

val place : t -> key:string -> int option
(** Pick a device for a request with identity [key]: the locality
    preference if alive and not overloaded, else the least-loaded alive
    device (ties to the lowest index — deterministic). [None] when every
    device is dead. *)

val acquire : t -> int -> unit
(** Count a request in-flight on the device (and one placement). *)

val release : t -> int -> unit

val injector : t -> int -> Fault.Inject.t option
(** The device's persistent fault stream, if the fleet has a plan. *)

val mark_dead : t -> int -> unit
(** Idempotent; emits [fleet.dead_devices] and a reroute count is the
    caller's business. *)

val is_dead : t -> int -> bool
val note_reroute : t -> unit

val to_json : t -> Obs.Json.t
(** Deterministic snapshot: device count, dead list, per-device served
    counts, reroutes. *)
