(** Resource-aware slicing — Algorithm 1.

    Spatial slicing first, then temporal slicing on the highest-priority
    feasible dimension; every candidate block-size configuration is lowered
    (once per unit-block mask, see {!Lower.lowerer}) and checked against
    the architecture's shared-memory/register budgets, and only feasible
    (schedule, configuration) pairs survive, each with its kernel. An empty
    result means the SMG is unschedulable and must be partitioned
    (Algorithm 2). *)

type scheduled = {
  schedule : Schedule.t;
  cfgs : (Schedule.cfg * Gpu.Kernel.t) list;
      (** feasible configurations in {!Schedule.enum_cfgs} order, each with
          its lowered kernel *)
}

type variant = {
  use_temporal : bool;
  use_uta : bool;
      (** allow temporal plans that need intra-operator dependency
          transformation (update functions, postposed raw aggregation,
          two-pass recompute); tile-graph baselines like Welder can slice
          serially but cannot transform dependencies *)
  use_tuning : bool;
  fixed_block : int;  (** block size used when tuning is disabled *)
  fixed_tile : int;  (** temporal tile used when tuning is disabled *)
}

val full : variant

val base_ss : variant
(** Spatial slicing only, fixed expert configuration. *)

val base_as : variant
(** Spatial slicing + auto-scheduling. *)

val base_ts : variant
(** Spatial + temporal slicing, fixed configuration. *)

val feasible :
  Gpu.Arch.t -> Schedule.t -> Schedule.cfg -> name:string -> tensor_of:(Ir.Graph.node_id -> string)
  -> Gpu.Kernel.t option
(** Lower and check resource bounds; [None] when unlowerable or over
    budget. *)

val run :
  ?variant:variant ->
  ?stats:Cstats.t ->
  Gpu.Arch.t ->
  Smg.t ->
  name:string ->
  tensor_of:(Ir.Graph.node_id -> string) ->
  scheduled list
(** The feasible schedules for this SMG (spatial-only and, when a dimension
    qualifies, temporally sliced). Empty when unschedulable. With
    [use_tuning = false], each schedule keeps only the fixed expert
    configuration (64-element blocks/tiles, clamped to feasibility). *)

val exists_feasible :
  ?variant:variant -> Gpu.Arch.t -> Smg.t -> name:string
  -> tensor_of:(Ir.Graph.node_id -> string) -> bool
(** Cheap schedulability probe for Algorithm 2: stops at the first feasible
    configuration. *)
