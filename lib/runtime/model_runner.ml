type result = {
  m_model : string;
  m_backend : string;
  m_arch : string;
  m_devices : int;
  m_shard : Core.Shard.decision option;
  m_exec : Exec_stats.t;
  m_compile_s : float;
  m_cache_hits : int;
  m_cache_misses : int;
}

let supported ~arch (b : Backends.Policy.t) = b.supports arch

let m_runs = Obs.Metrics.counter "model.runs"
let m_latency = Obs.Metrics.histogram "model.latency_seconds"
let m_compile = Obs.Metrics.histogram "model.compile_seconds"
let m_warm_fast = Obs.Metrics.counter "run.warm_fast_path"

(* Plans are cached across calls when [cache] is supplied: the paper's
   program-preprocessing compiles each distinct (repetitive) subprogram
   once, and e.g. Bert and Albert share every block. *)
let run_workload_r ?cache ?inject ?(functional = `Never) (w : Workload.t) =
  let backend = w.Workload.backend
  and arch = w.Workload.arch
  and model = w.Workload.model
  and devices = w.Workload.devices in
  if not (backend.Backends.Policy.supports arch) then
    Error
      (Core.Spacefusion.Error.Unsupported
         { backend = backend.be_name; arch = arch.Gpu.Arch.name })
  else
    let body () =
      Obs.Trace.with_span
        ~attrs:[ ("model", model.model_name); ("backend", backend.be_name) ]
        "run_model"
      @@ fun () ->
      let exec = ref Exec_stats.zero in
      let compile_s = ref 0.0 and hits = ref 0 and misses = ref 0 in
      (* Sharding decision of the subprogram that dominates model time —
         the one the report names. *)
      let shard = ref None in
      let node = if devices > 1 then Some (Gpu.Node.nvlink arch ~devices) else None in
      let run mode plan =
        let device = Gpu.Device.create () in
        (match inject with Some inj -> Gpu.Device.attach_faults device inj | None -> ());
        let r = Runner.run_plan ~mode ~arch ~dispatch_us:backend.dispatch_us device plan in
        (* Nothing reads the device after the run here: recycle its
           buffers into the ambient arena (if any) for the next plan. *)
        (match Tensor.Arena.current () with
        | Some a -> Gpu.Device.release_owned device a
        | None -> ());
        r
      in
      (* Execution mode. [`Never] is the analytic default; [`Auto] runs a
         plan's first execution functionally — inside the cache's single
         flight, so identical concurrent requests run it once — and every
         verified hit takes the analytic walk: the same counters without
         the data plane. *)
      let first_run = match functional with `Auto -> Some (run Gpu.Exec.Full) | `Never -> None in
      List.iter
        (fun (s : Workload.sub) ->
          let sp = s.sp in
          Obs.Trace.with_span ~attrs:[ ("name", sp.sp_name) ] "subprogram" @@ fun () ->
          (* Shape classing: a sliceable subprogram compiles, verifies and
             executes at its class representative (the canonical graph),
             under a classed cache key — one plan per bucket, every
             in-class shape a warm hit. Non-sliceable (or [Exact]-policy)
             subprograms keep their concrete graph and unclassed key. The
             workload derived both, with the graph's digest, at [make]. *)
          let found =
            match cache with
            | Some c ->
                Plan_cache.lookup c ~devices ?cls:s.cls ?first_run backend arch ~name:s.name
                  ~digest:s.digest s.graph
            | None ->
                let t0 = Unix.gettimeofday () in
                let plan = backend.compile arch ~name:s.name s.graph in
                let compile_s = Unix.gettimeofday () -. t0 in
                { Plan_cache.plan; hit = false; compile_s;
                  first = Option.map (fun f -> f plan) first_run }
          in
          (* Compile time is the compile's alone: a hit reports zero, and
             a first run inside the claim is execution, not compilation. *)
          if found.hit then incr hits else incr misses;
          compile_s := !compile_s +. found.compile_s;
          let r =
            match found.first with
            | Some r -> r
            | None ->
                if functional = `Auto then Obs.Metrics.incr m_warm_fast;
                run Gpu.Exec.Analytic found.plan
          in
          (* Multi-device: cost the sharding candidates and rescale this
             subprogram's simulated time by the picked plan's speedup. The
             work counters (flops, kernels, traffic) stay unscaled — the
             node does the same work, faster. *)
          let r =
            match node with
            | None -> r
            | Some node ->
                let d =
                  Core.Shard.best ~reps:sp.count ~dispatch_us:backend.dispatch_us node found.plan
                in
                let weight d = d.Core.Shard.d_baseline_s *. float_of_int sp.count in
                (match !shard with
                | Some prev when weight prev >= weight d -> ()
                | _ -> shard := Some d);
                if d.Core.Shard.d_baseline_s <= 0.0 then r
                else
                  let ratio = d.Core.Shard.d_time /. d.Core.Shard.d_baseline_s in
                  {
                    r with
                    Exec_stats.x_time = r.Exec_stats.x_time *. ratio;
                    x_gpu_time = r.Exec_stats.x_gpu_time *. ratio;
                  }
          in
          exec := Exec_stats.add !exec (Exec_stats.scale r sp.count))
        w.Workload.subs;
      Obs.Metrics.incr m_runs;
      Obs.Metrics.observe m_latency !exec.Exec_stats.x_time;
      Obs.Metrics.observe m_compile !compile_s;
      {
        m_model = model.model_name;
        m_backend = backend.be_name;
        m_arch = arch.Gpu.Arch.name;
        m_devices = devices;
        m_shard = !shard;
        m_exec = !exec;
        m_compile_s = !compile_s;
        m_cache_hits = !hits;
        m_cache_misses = !misses;
      }
    in
    match body () with
    | r -> Ok r
    | exception Core.Spacefusion.Unschedulable msg ->
        Error (Core.Spacefusion.Error.Unschedulable msg)

type fault_action = Retry | Reroute | Degrade | Isolate | No_fault

let classify_exn = function
  | Fault.Plan.Injected f -> (
      match Fault.Plan.severity_of_kind f.Fault.Plan.f_kind with
      | Fault.Plan.Transient -> Retry
      | Fault.Plan.Fatal -> Reroute
      | Fault.Plan.Degraded -> Degrade
      | Fault.Plan.Poisoned -> Isolate)
  | _ -> No_fault

let to_json r =
  Obs.Json.Obj
    [
      ("model", Obs.Json.Str r.m_model);
      ("backend", Obs.Json.Str r.m_backend);
      ("arch", Obs.Json.Str r.m_arch);
      ("devices", Obs.Json.Num (float_of_int r.m_devices));
      ( "shard",
        match r.m_shard with Some d -> Core.Shard.to_json d | None -> Obs.Json.Null );
      ("exec", Exec_stats.to_json r.m_exec);
      ("compile_s", Obs.Json.Num r.m_compile_s);
      ("cache_hits", Obs.Json.Num (float_of_int r.m_cache_hits));
      ("cache_misses", Obs.Json.Num (float_of_int r.m_cache_misses));
    ]

let pp fmt r =
  Format.fprintf fmt "%-10s %-14s %-7s %9.3f ms  %5d kernels  compile %.2f s" r.m_model
    r.m_backend r.m_arch
    (r.m_exec.Exec_stats.x_time *. 1e3)
    r.m_exec.Exec_stats.x_kernels r.m_compile_s;
  if r.m_cache_hits > 0 then
    Format.fprintf fmt "  (%d/%d cached)" r.m_cache_hits (r.m_cache_hits + r.m_cache_misses)
