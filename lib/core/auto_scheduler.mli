(** Resource-aware slicing — Algorithm 1.

    Spatial slicing first, then temporal slicing on the highest-priority
    feasible dimension; every candidate block-size configuration is lowered
    (once per unit-block mask, see {!Lower.lowerer}) and checked against
    the architecture's shared-memory/register budgets, and only feasible
    (schedule, configuration) pairs survive, each with its kernel. An empty
    result means the SMG is unschedulable and must be partitioned
    (Algorithm 2).

    The two halves are separate calls: {!schedules} derives the schedule
    families by analysis alone, and {!enumerate} lowers one family's
    configurations. {!run} is both; {!Spacefusion.compile} calls them
    apart, so that a sub-graph whose tuning decision it remembers derives
    its schedules and lowers only the remembered configuration. *)

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

val schedules : ?variant:variant -> ?stats:Cstats.t -> Smg.t -> Schedule.t list
(** Algorithm 1's schedule families for this SMG, in the tuner's order:
    the spatial-only schedule, then (when a dimension qualifies) the one
    temporally sliced on the highest-priority dimension whose dependency
    chain simplifies. Analysis only — nothing is lowered; its time counts
    as {!Cstats.Ss} and {!Cstats.Ts}. Empty for an inconsistent SMG. A
    schedule's position in this list is stable for a given SMG, which is
    what lets {!Spacefusion.compile} remember a tuning decision by
    position. *)

val enumerate :
  ?variant:variant ->
  ?stats:Cstats.t ->
  Gpu.Arch.t ->
  Schedule.t ->
  name:string ->
  tensor_of:(Ir.Graph.node_id -> string) ->
  scheduled
(** One schedule's feasible configurations, each lowered (timed as
    {!Cstats.Enum}). With [use_tuning = false], only the fixed expert
    configuration (64-element blocks/tiles, clamped to feasibility). Its
    [cfgs] may be empty. *)

val run :
  ?variant:variant ->
  ?stats:Cstats.t ->
  Gpu.Arch.t ->
  Smg.t ->
  name:string ->
  tensor_of:(Ir.Graph.node_id -> string) ->
  scheduled list
(** {!enumerate} over {!schedules}, keeping the schedules with at least
    one feasible configuration. Empty when unschedulable. *)

val exists_feasible :
  ?variant:variant -> Gpu.Arch.t -> Smg.t -> name:string
  -> tensor_of:(Ir.Graph.node_id -> string) -> bool
(** Cheap schedulability probe for Algorithm 2: searches {!schedules} and
    stops at the first feasible configuration. *)
