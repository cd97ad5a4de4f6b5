(* After a traced window: a workload's requests replayed through the
   runtime layers one public call at a time, each call a benchmark-side
   span (Probe.span). *)

module W = Runtime.Workload

let subprogram_name (w : W.t) (sp : Ir.Models.subprogram) =
  w.W.model.Ir.Models.model_name ^ "." ^ sp.Ir.Models.sp_name

(* The plan the cache holds for a subprogram, looked up the way
   Model_runner looks it up: by shape class when the workload buckets. *)
let lookup cache (w : W.t) (sp : Ir.Models.subprogram) =
  let cls, g =
    match Runtime.Shape_class.plan_graph ~policy:w.W.shapes sp.graph with
    | Some (c, g) -> (Some c, g)
    | None -> (None, sp.graph)
  in
  Runtime.Plan_cache.compile cache ?cls w.W.backend w.W.arch ~name:(subprogram_name w sp) g

(* Warm path: identity digest, rebatch to the batch boundary (row-batched
   workloads only), plan-cache lookup and analytic walk per subprogram,
   then the whole warm run through Model_runner. *)
let warm ~cache ~functional (w : W.t) =
  ignore (Probe.span "runtime.digest" (fun () -> W.digest w));
  (match W.batch_space w with
  | Some (_, cap) -> ignore (Probe.span "runtime.rebatch" (fun () -> W.rebatch w ~rows:cap))
  | None -> ());
  List.iter
    (fun sp ->
      let plan = Probe.span "runtime.cache_lookup" (fun () -> lookup cache w sp) in
      ignore
        (Probe.span "gpu.analytic" (fun () ->
             Runtime.Runner.run_plan ~arch:w.W.arch ~dispatch_us:w.W.backend.Backends.Policy.dispatch_us
               (Gpu.Device.create ()) plan)))
    w.W.model.Ir.Models.subprograms;
  ignore
    (Probe.span "runtime.run_warm" (fun () ->
         Runtime.Model_runner.run_workload_r ~cache ~functional w))

(* Median cost of each warm-path call replayed so far, in microseconds. *)
let warm_layers () =
  [
    ("runtime.digest_us", Probe.span_median_us "runtime.digest");
    ("runtime.cache_lookup_us", Probe.span_median_us "runtime.cache_lookup");
    ("runtime.run_warm_us", Probe.span_median_us "runtime.run_warm");
    ("runtime.rebatch_us", Probe.span_median_us "runtime.rebatch");
    ("gpu.analytic_us", Probe.span_median_us "gpu.analytic");
  ]

(* The functional walk of a plan's kernels on a device whose tensors are
   already declared (and, for a checked run, bound). *)
let full ~arch device (plan : Gpu.Plan.t) =
  Probe.span "gpu.full" (fun () ->
      List.iter
        (fun k ->
          let ks = Gpu.Exec.run ~mode:Gpu.Exec.Full ~arch device k in
          Probe.record "gpu.full_blocks" (float_of_int ks.Gpu.Exec.ks_blocks))
        plan.Gpu.Plan.p_kernels)

(* A workload's functional first execution, as a cold request pays it on
   a serve worker. *)
let first_execution ~cache (w : W.t) =
  List.iter
    (fun sp ->
      let plan = lookup cache w sp in
      let device = Gpu.Device.create () in
      Gpu.Plan.declare_all plan device;
      full ~arch:w.W.arch device plan)
    w.W.model.Ir.Models.subprograms
