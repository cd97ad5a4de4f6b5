(** Correctness oracle: any backend's plan for a subprogram must produce
    the same outputs as the reference interpreter, on several independent
    input draws, with every value finite. *)

val default_seeds : int list
(** The three input seeds swept when the caller does not choose. *)

val reference_finite : ?seeds:int list -> Ir.Graph.t -> bool
(** Whether the {e interpreter's} outputs are finite on every seed. Fuzzers
    use this to discard numerically degenerate graphs (e.g. overflowing
    [exp] chains) for which differential comparison is vacuous — such a
    graph is a generator artefact, not a compiler bug. *)

val verify_plan :
  ?seeds:int list ->
  ?rtol:float ->
  ?atol:float ->
  arch:Gpu.Arch.t ->
  name:string ->
  Ir.Graph.t ->
  Gpu.Plan.t ->
  (unit, string) result
(** Binds deterministic random inputs for every seed in [seeds] (default
    {!default_seeds}), executes the plan functionally on a fresh device per
    seed and compares every ["<name>:out<i>"] tensor against the
    interpreter. Fails — naming the seed — on the first seed whose outputs
    diverge, contain a non-finite value on either side, fail to execute,
    or whose plan declares an input or output at another shape than the
    graph's (both shapes named). Raises [Invalid_argument] on an empty
    seed list.

    Called from the main domain on a graph whose inputs and weights hold
    at least 4 096 elements, it checks the seeds on up to
    [Core.Parallel.default_jobs ()] domains ([SPACEFUSION_JOBS]), starting
    none after one that fails. The result, and any exception raised, is
    the serial sweep's at any job count. Helper domains see no ambient
    [Tensor.Arena]. *)

val verify_backend :
  ?seeds:int list -> arch:Gpu.Arch.t -> name:string -> Backends.Policy.t -> Ir.Graph.t
  -> (unit, string) result
(** Compile with the policy, then {!verify_plan}. *)
