(** Lowering a fusion schedule to the tile-level kernel IR (§5.4).

    Memory-hierarchy placement follows the paper: tiles loaded once per
    block (One-to-All sources re-read across the serial loop) go to shared
    memory; streaming tiles, intermediate One-to-One values and reduction
    states (All-to-One sinks, GEMM accumulators) live in registers. A
    liveness-based pooling pass then shares buffers with disjoint live
    ranges, which is what lets long fused chains (e.g. 20 MLP layers) stream
    their weights through a constant-size on-chip footprint. *)

exception Unlowerable of string

val lower :
  ?pool:bool ->
  Schedule.t ->
  Schedule.cfg ->
  name:string ->
  tensor_of:(Ir.Graph.node_id -> string) ->
  Gpu.Kernel.t
(** [tensor_of] maps the graph's leaves and outputs to global tensor names.
    Raises {!Unlowerable} when the schedule cannot be expressed with 2-D
    tiles (e.g. a blocked batch axis or a row-direction reduction). *)

val lowerer :
  Schedule.t ->
  name:string ->
  tensor_of:(Ir.Graph.node_id -> string) ->
  Schedule.cfg ->
  Gpu.Kernel.t
(** [lowerer sched ~name ~tensor_of] behaves as [fun cfg -> lower sched cfg
    ~name ~tensor_of] — same kernels, same {!Unlowerable} verdicts — but
    lowers only once per unit-block mask (which of [cfg]'s blocked dims
    have block 1). A kernel depends on its cfg only through that mask, the
    grid blocks and the temporal tile, so every other cfg is instantiated
    from its mask's kernel by substituting the blocks and the tile. The
    returned function memoizes and is not safe to share across domains. *)

val pool_buffers : Gpu.Kernel.t -> Gpu.Kernel.t
(** Shares same-shape, same-scope buffers whose live ranges do not overlap.
    Exposed for testing; [lower] already applies it. *)
