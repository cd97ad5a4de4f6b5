(** SpaceFusion's end-to-end compilation pipeline (Fig 9):

    program preprocessing (the caller segments models into subprograms) →
    SMG building → auto-scheduling, iterating between the slicing state
    (Algorithm 1) and the partitioning state (Algorithm 2, with the §5.3
    candidate-schedule exploration arbitrated by the tuner) → lowering →
    an executable {!Gpu.Plan.t}. *)

type kernel_choice = {
  kc_kernel : Gpu.Kernel.t;
  kc_schedule : Schedule.t;
  kc_cfg : Schedule.cfg;
  kc_cost : float;  (** tuned simulated seconds *)
}

type compiled = {
  c_name : string;
  c_plan : Gpu.Plan.t;
  c_choices : kernel_choice list;  (** one per emitted kernel, launch order *)
  c_stats : Cstats.t;
  c_smg : Smg.t;  (** the SMG of the whole (pre-partitioning) subprogram *)
}

exception Unschedulable of string

(** Typed pipeline errors: the one error surface shared by {!compile_r},
    {!Backends.Policy.compile_r} and
    {!Runtime.Model_runner.run_workload_r}, so call sites match on
    constructors instead of catching exceptions.

    The [result]-typed [_r] entry points are the canonical API at every
    layer; each raising twin is exactly [Error.get] over it, so the
    exception mapping below is defined once, here, and re-implemented
    nowhere. *)
module Error : sig
  type t =
    | Unschedulable of string
        (** no lowerable configuration exists for some subgraph *)
    | Unsupported of { backend : string; arch : string }
        (** the selected backend does not run on this architecture *)

  val to_string : t -> string

  val raise_exn : t -> 'a
  (** The exception mapping, in one place: [Unschedulable msg] raises
      {!Spacefusion.Unschedulable}[ msg]; [Unsupported _] raises
      [Invalid_argument] with the historical ["%s does not support %s"]
      message. Raising wrappers across the codebase are one-liners over
      this. *)

  val get : ('a, t) result -> 'a
  (** [get (Ok v) = v]; [get (Error e)] is [raise_exn e]. *)
end

val compile_r :
  ?variant:Auto_scheduler.variant ->
  ?tensor_names:(Ir.Graph.node_id -> string) ->
  arch:Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  (compiled, Error.t) result
(** Compile one subprogram. [name] prefixes intermediate tensor names.
    Graph inputs and weights keep their declared names; output [i] is
    published as ["<name>:out<i>"]. [tensor_names] overrides the naming
    scheme entirely (used when compiling an extracted fusion group whose
    tensors must keep the enclosing program's names).

    Each sub-graph the exploration schedules is tuned once per structure:
    the compile remembers every tuning decision (per schedule family: the
    schedule's position in {!Auto_scheduler.schedules}, the winning cfg
    and its cost) under a key of the sub-graph's nodes, shapes, operands
    and outputs, with tensor names replaced by the pattern of which nodes
    name the same tensor. A later sub-graph with the same key (Q, K and V
    projections; pieces the §5.3 search reaches by several paths) derives
    its schedules, lowers only the remembered cfgs under its own names
    and kernel name, and takes the remembered costs; {!Cstats.t.n_reused}
    counts the candidates it skipped. Plans, picks and costs are those of
    a compile that tunes every sub-graph, because {!Tuner.kernel_cost}
    does not depend on tensor names. The memo lives for one compile.

    When {!Obs.Trace} is enabled, the whole pipeline is traced: a
    [compile] span with [build] / [schedule] (containing [auto_schedule],
    [tune] and [lower] spans) / [select] children; compile statistics are
    mirrored into {!Obs.Metrics} either way. *)

val compile :
  ?variant:Auto_scheduler.variant ->
  ?tensor_names:(Ir.Graph.node_id -> string) ->
  arch:Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  compiled
(** {!compile_r}, raising {!Unschedulable} instead of returning
    [Error (Error.Unschedulable _)] — the historical entry point, kept as
    a thin wrapper for call sites inside exception-based control flow. *)

val output_names : compiled -> string list
val tensor_name : name:string -> Ir.Graph.t -> Ir.Graph.node_id -> string
(** The global-tensor naming scheme (exposed for the runtime/tests). *)
