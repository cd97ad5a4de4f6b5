type result = Exec_stats.t

let m_plans = Obs.Metrics.counter "run.plans"
let m_kernels = Obs.Metrics.counter "run.kernels"
let m_sim = Obs.Metrics.histogram "run.sim_seconds"

(* Full (interpreter-backed) plan executions, counted once per run here
   where they execute: a warmed server serving in-class shapes from
   verified plans must leave this flat — the soak and the batch bench
   gate on its delta. *)
let m_functional = Obs.Metrics.counter "run.functional_execs"

let run_plan ?(mode = Gpu.Exec.Analytic) ~arch ~dispatch_us device (plan : Gpu.Plan.t) =
  Obs.Trace.with_span ~attrs:[ ("plan", plan.Gpu.Plan.p_name) ] "execute" @@ fun () ->
  if mode = Gpu.Exec.Full then Obs.Metrics.incr m_functional;
  Gpu.Plan.declare_all plan device;
  let inj = Gpu.Device.faults device in
  let timing = ref Gpu.Cost.zero in
  let flops = ref 0.0 in
  let add (stats : Gpu.Exec.kstats) kt =
    flops := !flops +. stats.ks_gemm_flops +. stats.ks_simd_flops;
    (* An injected latency spike slows this launch without changing what
       it computed or moved: scale the time components, keep counters. *)
    let kt =
      match inj with
      | Some inj ->
          let m = Fault.Inject.last_slowdown inj in
          if m = 1.0 then kt
          else
            {
              kt with
              Gpu.Cost.time = kt.Gpu.Cost.time *. m;
              compute_time = kt.Gpu.Cost.compute_time *. m;
              mem_time = kt.Gpu.Cost.mem_time *. m;
            }
      | None -> kt
    in
    timing := Gpu.Cost.add !timing kt
  in
  let memo = if mode = Gpu.Exec.Analytic then Gpu.Plan.walk plan arch else None in
  (match memo with
  | Some steps ->
      (* The plan's memoised walk: each launch still consults the device's
         injector, where [Exec.run] would. *)
      List.iter
        (fun { Gpu.Plan.s_stats; s_timing } ->
          (match inj with
          | Some inj -> Fault.Inject.launch inj ~kernel:s_stats.Gpu.Exec.ks_name
          | None -> ());
          add s_stats s_timing)
        steps
  | None ->
      let cache = Gpu.Cost.fresh_cache arch in
      List.iter
        (fun k ->
          let stats = Gpu.Exec.run ~mode ~arch device k in
          add stats (Gpu.Cost.kernel_time arch cache stats))
        plan.Gpu.Plan.p_kernels);
  let kernels = Gpu.Plan.num_kernels plan in
  let dispatch = float_of_int kernels *. dispatch_us *. 1e-6 in
  let time = !timing.Gpu.Cost.time +. dispatch in
  Obs.Metrics.incr m_plans;
  Obs.Metrics.incr ~by:kernels m_kernels;
  Obs.Metrics.observe m_sim time;
  {
    Exec_stats.x_time = time;
    x_gpu_time = !timing.Gpu.Cost.time;
    x_dispatch = dispatch;
    x_kernels = kernels;
    x_flops = !flops;
    x_timing = !timing;
  }

let pp = Exec_stats.pp
