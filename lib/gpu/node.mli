(** Simulated multi-device node: N identical devices joined by an
    NVLink-style interconnect.

    The paper's space-mapping formalism describes data movement inside one
    device as mappings between spaces; a cross-device collective is the
    same idea one tier up — an [All_to_one] mapping is a reduce/gather, a
    [One_to_all] mapping is a broadcast, and [All_to_all] is the
    ring-reduction pattern NCCL uses. Pricing them here lets the scheduler
    treat an inter-device cut exactly the way {!Cost} treats a shared-memory
    spill: one more memory tier, with its own bandwidth and latency.

    All times are seconds; all sizes are bytes. The model is deliberately
    closed-form (ring algorithms on [nd_links] shared links with a simple
    contention factor) so candidate sharding plans can be enumerated and
    pruned analytically, just like single-device tuner candidates. *)

type t = {
  nd_arch : Arch.t;  (** every device in the node is this architecture *)
  nd_devices : int;  (** device count, >= 1 *)
  nd_link_bw : float;  (** per-link unidirectional bandwidth, bytes/sec *)
  nd_link_latency_s : float;  (** per-hop latency, seconds *)
  nd_links : int;  (** physical links shared by all concurrent transfers *)
}

val make :
  ?link_bw:float ->
  ?link_latency_s:float ->
  ?links:int ->
  Arch.t ->
  devices:int ->
  t
(** Raises [Invalid_argument] on [devices < 1], [links < 1] or
    non-positive bandwidth/latency. Defaults model a 4th-gen NVLink-class
    interconnect: 200 GB/s per link, 3 us per hop, [devices] links (a
    fully-ringed node). *)

val nvlink : Arch.t -> devices:int -> t
(** [make] with the NVLink-style defaults spelled out — the standard node
    used by the sharding scheduler, benchmarks and CLI. *)

val single : Arch.t -> t
(** A degenerate one-device node: every collective on it costs zero. *)

(** A cross-device space mapping, i.e. a collective. [bytes] arguments
    below are the {e full logical tensor} size (NCCL's convention: in an
    all-reduce every device holds the whole buffer; in an all-gather each
    contributes a [bytes/d] shard and ends holding all of it). *)
type mapping =
  | One_to_all  (** broadcast: one device's tile becomes every device's *)
  | All_to_one  (** reduce/gather: every device's partials land on one *)
  | All_to_all  (** all-reduce / all-gather ring: everyone ends with all *)

val contention : t -> float
(** Slowdown factor when [nd_devices] concurrent transfers share
    [nd_links] physical links: [max 1 (devices / links)]. *)

val mapping_time : t -> mapping -> bytes:float -> float
(** Time for one collective over a [bytes]-sized tensor. Zero on a
    one-device node or for [bytes <= 0]. Ring formulas:
    - [All_to_all] (all-reduce): [2(d-1)/d * bytes / bw * contention
      + 2(d-1) * latency]
    - [All_to_one] (reduce): [(d-1)/d * bytes / bw * contention
      + (d-1) * latency]
    - [One_to_all] (broadcast): [bytes / bw * contention
      + (d-1) * latency] *)

val all_reduce_time : t -> bytes:float -> float
(** [mapping_time t All_to_all ~bytes]. *)

val all_gather_time : t -> bytes:float -> float
(** Ring all-gather: [(d-1)/d * bytes / bw * contention + (d-1) * lat] —
    the payload moves once instead of twice, otherwise like all-reduce. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit
