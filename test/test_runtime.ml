(* Tests for the runtime: plan execution & timing aggregation, end-to-end
   model runs, the verification oracle, and the fusion-pattern census. *)

module B = Backends.Baselines

let arch = Gpu.Arch.ampere

let run (b : Backends.Policy.t) name g =
  let plan = b.Backends.Policy.compile arch ~name g in
  let device = Gpu.Device.create () in
  (Runtime.Runner.run_plan ~arch ~dispatch_us:b.dispatch_us device plan, plan)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_accounting () =
  let g = Ir.Models.layernorm_graph ~m:64 ~n:64 in
  let r, plan = run B.pytorch "ln" g in
  Alcotest.(check int) "kernel count matches plan" (Gpu.Plan.num_kernels plan)
    r.Runtime.Exec_stats.x_kernels;
  Alcotest.(check (float 1e-12)) "dispatch = kernels x overhead"
    (float_of_int r.x_kernels *. 8.0e-6)
    r.x_dispatch;
  Alcotest.(check bool) "total = gpu + dispatch" true
    (Float.abs (r.x_time -. (r.x_gpu_time +. r.x_dispatch)) < 1e-12);
  Alcotest.(check bool) "flops positive" true (r.x_flops > 0.0)

let test_fusion_reduces_traffic () =
  (* The headline claim: fusion cuts DRAM traffic (Fig 15). *)
  let g = Ir.Models.layernorm_graph ~m:512 ~n:512 in
  let unfused, _ = run B.pytorch "ln" g in
  let fused, _ = run B.spacefusion "ln" g in
  let dram (r : Runtime.Runner.result) =
    r.Runtime.Exec_stats.x_timing.Gpu.Cost.dram_read +. r.x_timing.Gpu.Cost.dram_write
  in
  Alcotest.(check bool) "fused moves at least 2x less data" true (dram unfused >= 2.0 *. dram fused);
  Alcotest.(check bool) "fused launches fewer kernels" true
    (fused.Runtime.Exec_stats.x_kernels < unfused.Runtime.Exec_stats.x_kernels)

let test_l2_reuse_between_kernels () =
  (* A split plan's consumer kernel should hit its producer's output in L2:
     the plan's DRAM reads must be below the sum of per-kernel cold reads. *)
  let g = Ir.Models.qkv_proj ~m:64 ~hidden:128 in
  let plan = B.pytorch.Backends.Policy.compile arch ~name:"q" g in
  let device = Gpu.Device.create () in
  Gpu.Plan.declare_all plan device;
  let shared = Runtime.Runner.run_plan ~arch ~dispatch_us:0.0 device plan in
  let cold =
    List.fold_left
      (fun acc k ->
        let stats = Gpu.Exec.run ~mode:Gpu.Exec.Analytic device k in
        let cache = Gpu.Cost.fresh_cache arch in
        acc +. (Gpu.Cost.kernel_time arch cache stats).Gpu.Cost.dram_read)
      0.0 plan.Gpu.Plan.p_kernels
  in
  Alcotest.(check bool) "shared L2 reads <= cold reads" true
    (shared.Runtime.Exec_stats.x_timing.Gpu.Cost.dram_read <= cold)

(* ------------------------------------------------------------------ *)
(* Model runner                                                        *)
(* ------------------------------------------------------------------ *)

let latency (r : Runtime.Model_runner.result) = r.m_exec.Runtime.Exec_stats.x_time

let run_e2e ?cache b model =
  Core.Spacefusion.Error.get
    (Runtime.Model_runner.run_workload_r ?cache (Runtime.Workload.make ~arch b model))

let test_model_runner () =
  let model = Ir.Models.bert ~batch:1 ~seq:64 in
  let r = run_e2e B.spacefusion model in
  Alcotest.(check string) "model name" "Bert" r.Runtime.Model_runner.m_model;
  Alcotest.(check bool) "positive latency" true (latency r > 0.0);
  Alcotest.(check bool) "kernels scale with layer count" true
    (r.m_exec.Runtime.Exec_stats.x_kernels >= 48);
  let r2 = run_e2e B.pytorch model in
  Alcotest.(check bool) "spacefusion beats eager" true (latency r < latency r2)

let test_model_runner_unsupported () =
  let model = Ir.Models.bert ~batch:1 ~seq:32 in
  Alcotest.check_raises "nnfusion rejects ampere"
    (Invalid_argument "NNFusion does not support Ampere") (fun () ->
      ignore (run_e2e B.nnfusion model))

let test_latency_scales_with_count () =
  (* Two identical subprograms cost twice one. *)
  let g = Ir.Models.layernorm_graph ~m:64 ~n:64 in
  let mk count =
    { Ir.Models.model_name = "m"; subprograms = [ { sp_name = "ln"; graph = g; count } ] }
  in
  let l count = latency (run_e2e B.spacefusion (mk count)) in
  Alcotest.(check bool) "x2" true (Float.abs ((2.0 *. l 1) -. l 2) < 1e-12)

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_cache () =
  let cache = Runtime.Plan_cache.create () in
  let bert = Ir.Models.bert ~batch:1 ~seq:64 in
  let albert = Ir.Models.albert ~batch:1 ~seq:64 in
  let r1 = run_e2e ~cache B.spacefusion bert in
  Alcotest.(check int) "first model: all misses" 0 (Runtime.Plan_cache.hits cache);
  Alcotest.(check int) "four distinct subprograms" 4 (Runtime.Plan_cache.misses cache);
  Alcotest.(check int) "result reports the misses" 4 r1.Runtime.Model_runner.m_cache_misses;
  Alcotest.(check int) "result reports no hits" 0 r1.Runtime.Model_runner.m_cache_hits;
  let r1b = run_e2e ~cache B.spacefusion bert in
  Alcotest.(check int) "rerun: all hits" 4 (Runtime.Plan_cache.hits cache);
  Alcotest.(check int) "rerun result reports the hits" 4 r1b.Runtime.Model_runner.m_cache_hits;
  Alcotest.(check (float 1e-12)) "cached result identical" (latency r1) (latency r1b);
  Alcotest.(check (float 0.0)) "cached compile time is zero" 0.0
    r1b.Runtime.Model_runner.m_compile_s;
  (* Albert's blocks are identical shapes but a different name prefix:
     tensor names are baked into plans, so these are misses by design. *)
  ignore (run_e2e ~cache B.spacefusion albert);
  Alcotest.(check int) "albert compiles its own plans" 8 (Runtime.Plan_cache.misses cache)

let counter name =
  match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0

let test_warm_fast_path () =
  (* `Auto: the cold run executes each of Bert's four subprograms
     functionally, once each, and stamps its plans verified; the warm rerun
     takes the analytic walk for all four and never re-enters the
     interpreter. Both runs report the same simulated numbers. *)
  let cache = Runtime.Plan_cache.create () in
  let w = Runtime.Workload.make ~arch B.spacefusion (Ir.Models.bert ~batch:1 ~seq:64) in
  let run () =
    let f0 = counter "run.functional_execs" and w0 = counter "run.warm_fast_path" in
    match Runtime.Model_runner.run_workload_r ~cache ~functional:`Auto w with
    | Ok r -> (r, counter "run.functional_execs" - f0, counter "run.warm_fast_path" - w0)
    | Error e -> Alcotest.fail (Core.Spacefusion.Error.to_string e)
  in
  let cold, cold_fn, cold_fast = run () in
  Alcotest.(check int) "cold: one functional run per subprogram" 4 cold_fn;
  Alcotest.(check int) "cold: no warm fast path" 0 cold_fast;
  let warm, warm_fn, warm_fast = run () in
  Alcotest.(check int) "warm: no functional run" 0 warm_fn;
  Alcotest.(check int) "warm: fast path per subprogram" 4 warm_fast;
  Alcotest.(check bool) "warm exec stats equal cold" true
    (cold.Runtime.Model_runner.m_exec = warm.Runtime.Model_runner.m_exec)

let test_warm_run_alloc () =
  (* A warm request reads its workload's identity instead of deriving it
     (no graph rebatch, DSL serialization or MD5 per subprogram), so one
     verified-hit run of an already-made 37-row [Pow2] workload allocates
     only the analytic walk's bookkeeping. *)
  let one name g =
    { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }
  in
  List.iter
    (fun (name, g) ->
      let cache = Runtime.Plan_cache.create () in
      let w = Runtime.Workload.make ~shapes:Runtime.Shape_class.Pow2 ~arch B.spacefusion (one name g) in
      let run () =
        match Runtime.Model_runner.run_workload_r ~cache ~functional:`Auto w with
        | Ok r -> r
        | Error e -> Alcotest.fail (Core.Spacefusion.Error.to_string e)
      in
      ignore (run ());
      ignore (run ());
      let before = Gc.minor_words () in
      let r = run () in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (name ^ ": a verified hit") 1 r.Runtime.Model_runner.m_cache_hits;
      Alcotest.(check bool) (Printf.sprintf "%s: %.0f words per warm run" name words) true
        (words <= 2_000.0))
    [
      ("ln", Ir.Models.layernorm_graph ~m:37 ~n:64);
      ("softmax", Ir.Models.softmax_graph ~m:37 ~n:64);
      ("mlp", Ir.Models.mlp ~layers:2 ~m:37 ~n:32 ~k:32);
    ]

(* ------------------------------------------------------------------ *)
(* Verify                                                              *)
(* ------------------------------------------------------------------ *)

let test_verify_catches_wrong_plan () =
  (* A plan computing relu instead of exp must be rejected. *)
  let g = Ir.Models.softmax_graph ~m:4 ~n:8 in
  let good = B.spacefusion.Backends.Policy.compile arch ~name:"v" g in
  let sabotage (k : Gpu.Kernel.t) =
    let fix = function
      | Gpu.Kernel.Unary { dst; op = Ir.Op.Exp; src } ->
          Gpu.Kernel.Unary { dst; op = Ir.Op.Relu; src }
      | i -> i
    in
    {
      k with
      stages =
        List.map
          (function
            | Gpu.Kernel.Once is -> Gpu.Kernel.Once (List.map fix is)
            | Gpu.Kernel.ForEachStep is -> Gpu.Kernel.ForEachStep (List.map fix is))
          k.stages;
    }
  in
  let bad = { good with Gpu.Plan.p_kernels = List.map sabotage good.Gpu.Plan.p_kernels } in
  (match Runtime.Verify.verify_plan ~arch ~name:"v" g good with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match Runtime.Verify.verify_plan ~arch ~name:"v" g bad with
  | Ok () -> Alcotest.fail "sabotaged plan accepted"
  | Error _ -> ()

let test_verify_missing_output () =
  let g = Ir.Models.softmax_graph ~m:4 ~n:8 in
  let plan = { Gpu.Plan.p_name = "empty"; p_kernels = []; p_decls = [] } in
  match Runtime.Verify.verify_plan ~arch ~name:"v" g plan with
  | Ok () -> Alcotest.fail "empty plan accepted"
  | Error msg ->
      Alcotest.(check bool) "mentions missing output" true
        (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Patterns census                                                     *)
(* ------------------------------------------------------------------ *)

let test_patterns_ordering () =
  (* Table 6's qualitative result: SpaceFusion discovers the most CI+MI
     fusion patterns, and AStitch none at all (GEMMs are barriers for it). *)
  let models = [ Ir.Models.bert ~batch:1 ~seq:64; Ir.Models.llama2_7b ~batch:1 ~seq:64 ] in
  let c p = Runtime.Patterns.census_of_models ~arch p models in
  let sf = c B.spacefusion and w = c B.welder and a = c B.astitch in
  Alcotest.(check bool) "SF CI+MI >= Welder CI+MI" true
    (sf.Runtime.Patterns.ci_and_mi >= w.Runtime.Patterns.ci_and_mi);
  Alcotest.(check bool) "SF total >= AStitch total" true
    (sf.Runtime.Patterns.total >= a.Runtime.Patterns.total);
  Alcotest.(check int) "AStitch fuses no CI+MI" 0 a.Runtime.Patterns.ci_and_mi;
  Alcotest.(check bool) "SF fuses CI+MI" true (sf.Runtime.Patterns.ci_and_mi > 0)

let () =
  Alcotest.run "runtime"
    [
      ( "runner",
        [
          Alcotest.test_case "accounting" `Quick test_runner_accounting;
          Alcotest.test_case "fusion reduces traffic" `Quick test_fusion_reduces_traffic;
          Alcotest.test_case "cross-kernel L2 reuse" `Quick test_l2_reuse_between_kernels;
        ] );
      ( "model",
        [
          Alcotest.test_case "bert end-to-end" `Quick test_model_runner;
          Alcotest.test_case "unsupported arch" `Quick test_model_runner_unsupported;
          Alcotest.test_case "latency scales with count" `Quick test_latency_scales_with_count;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
          Alcotest.test_case "warm fast path" `Quick test_warm_fast_path;
          Alcotest.test_case "warm run allocation bounded" `Quick test_warm_run_alloc;
        ] );
      ( "verify",
        [
          Alcotest.test_case "catches wrong computation" `Quick test_verify_catches_wrong_plan;
          Alcotest.test_case "catches missing output" `Quick test_verify_missing_output;
        ] );
      ("patterns", [ Alcotest.test_case "census ordering" `Quick test_patterns_ordering ]);
    ]
