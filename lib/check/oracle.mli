(** Differential oracle over the three evaluators.

    [Ir.Interp.eval] is the semantic reference, [Gpu.Exec.run ~mode:Full]
    the simulated execution, and [~mode:Analytic] the closed-form cost
    walk. Interp-vs-Full catches scheduling/lowering bugs; Full-vs-Analytic
    catches counter-accounting bugs. Every error message names the
    diverging quantity (and the input seed where applicable). *)

val counters_agree :
  name:string -> Gpu.Exec.kstats -> Gpu.Exec.kstats -> (unit, string) result
(** Every counter must match exactly: blocks and steps, and the gemm/simd
    flops and moved bytes too. Both walks sum integer-valued floats below
    2{^53}, only in different orders, so their sums are exact and equal;
    a one-flop difference at 10{^12} is a divergence. *)

val check_counters :
  ?seed:int ->
  arch:Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t ->
  (unit, string) result
(** Run every kernel of the plan in Full and Analytic mode on twin devices
    and require {!counters_agree} kernel by kernel. *)

val check_plan :
  ?seeds:int list ->
  arch:Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t ->
  (unit, string) result
(** Full differential check of a compiled plan: numeric verification
    against the interpreter over [seeds] (default
    {!Runtime.Verify.default_seeds}), then the counter cross-check. *)

val check :
  ?seeds:int list ->
  arch:Gpu.Arch.t ->
  ?name:string ->
  Backends.Policy.t ->
  Ir.Graph.t ->
  (unit, string) result
(** Compile with the policy (a compile exception is a failure) and
    {!check_plan} the result. *)
