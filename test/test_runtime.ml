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
     (no graph rebatch, DSL serialization or MD5 per subprogram) and its
     plan's memoised walk instead of walking the kernels, so one
     verified-hit run of an already-made 37-row [Pow2] workload allocates
     only the fold over that memo. *)
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
        (words <= 700.0))
    [
      ("ln", Ir.Models.layernorm_graph ~m:37 ~n:64);
      ("softmax", Ir.Models.softmax_graph ~m:37 ~n:64);
      ("mlp", Ir.Models.mlp ~layers:2 ~m:37 ~n:32 ~k:32);
    ]

(* ------------------------------------------------------------------ *)
(* Walk memo                                                           *)
(* ------------------------------------------------------------------ *)

let walks () = counter "run.analytic_walks"

(* Equal strings iff the values are structurally equal with every float
   equal bit for bit. *)
let bits v = Marshal.to_string v [ Marshal.No_sharing ]

(* [run_plan]'s Analytic loop as it was before plans memoised their walk:
   every kernel walked on the caller's device (consulting its injector),
   timed on one fresh L2, a latency spike scaling its time components.
   Also returns the kernels' counters. *)
let reference_run ?(arch = arch) ~dispatch_us device (plan : Gpu.Plan.t) =
  Gpu.Plan.declare_all plan device;
  let cache = Gpu.Cost.fresh_cache arch in
  let timing = ref Gpu.Cost.zero and flops = ref 0.0 and stats = ref [] in
  List.iter
    (fun k ->
      let s = Gpu.Exec.run ~mode:Gpu.Exec.Analytic ~arch device k in
      stats := s :: !stats;
      flops := !flops +. s.Gpu.Exec.ks_gemm_flops +. s.Gpu.Exec.ks_simd_flops;
      let kt = Gpu.Cost.kernel_time arch cache s in
      let m =
        match Gpu.Device.faults device with Some inj -> Fault.Inject.last_slowdown inj | None -> 1.0
      in
      let kt =
        if m = 1.0 then kt
        else
          {
            kt with
            Gpu.Cost.time = kt.Gpu.Cost.time *. m;
            compute_time = kt.Gpu.Cost.compute_time *. m;
            mem_time = kt.Gpu.Cost.mem_time *. m;
          }
      in
      timing := Gpu.Cost.add !timing kt)
    plan.p_kernels;
  let kernels = Gpu.Plan.num_kernels plan in
  let dispatch = float_of_int kernels *. dispatch_us *. 1e-6 in
  ( {
      Runtime.Exec_stats.x_time = !timing.Gpu.Cost.time +. dispatch;
      x_gpu_time = !timing.Gpu.Cost.time;
      x_dispatch = dispatch;
      x_kernels = kernels;
      x_flops = !flops;
      x_timing = !timing;
    },
    List.rev !stats )

let copy (p : Gpu.Plan.t) = Gpu.Plan.make ~name:p.p_name ~kernels:p.p_kernels ~decls:p.p_decls

let run_on ?(arch = arch) ?inj plan =
  let device = Gpu.Device.create () in
  Option.iter (Gpu.Device.attach_faults device) inj;
  Runtime.Runner.run_plan ~arch ~dispatch_us:8.0 device plan

(* Every plan [serve_pow2] warms (the four row families at each class
   representative, softmax-GEMM and BatchNorm on both policies) and
   PyTorch's multi-kernel Bert-b1 plans. *)
let memo_plans =
  lazy
    (let sf = B.spacefusion.Backends.Policy.compile arch
     and pt = B.pytorch.Backends.Policy.compile arch in
     List.concat_map
       (fun rows ->
         [
           sf ~name:"ln" (Ir.Models.layernorm_graph ~m:rows ~n:64);
           sf ~name:"rms" (Ir.Models.rmsnorm_graph ~m:rows ~n:64);
           sf ~name:"softmax" (Ir.Models.softmax_graph ~m:rows ~n:64);
           sf ~name:"mlp" (Ir.Models.mlp ~layers:2 ~m:rows ~n:32 ~k:32);
         ])
       [ 16; 32; 64; 128 ]
     @ List.concat_map
         (fun compile ->
           [
             compile ~name:"sm-gemm" (Ir.Models.softmax_gemm ~m:32 ~l:128 ~n:64);
             compile ~name:"sm-gemm" (Ir.Models.softmax_gemm ~m:64 ~l:128 ~n:64);
             compile ~name:"bn" (Ir.Models.batchnorm_graph ~m:128 ~n:128);
           ])
         [ sf; pt ]
     @ List.map
         (fun (sp : Ir.Models.subprogram) -> pt ~name:("Bert." ^ sp.sp_name) sp.graph)
         (Ir.Models.bert ~batch:1 ~seq:64).subprograms)

let test_memo_equals_fresh_walk () =
  (* The first Analytic run walks the plan once and memoises it; that run
     and the next, which reads the memo, equal the per-kernel loop over a
     fresh copy of the plan bit for bit, and the memo holds that loop's
     counters. *)
  List.iter
    (fun (plan : Gpu.Plan.t) ->
      let w0 = walks () in
      let first = run_on plan in
      let second = run_on plan in
      Alcotest.(check int) (plan.p_name ^ ": one walk") 1 (walks () - w0);
      let expected, stats = reference_run ~dispatch_us:8.0 (Gpu.Device.create ()) (copy plan) in
      Alcotest.(check bool) (plan.p_name ^ ": first run") true (bits first = bits expected);
      Alcotest.(check bool) (plan.p_name ^ ": memoised run") true (bits second = bits expected);
      match Gpu.Plan.walk plan arch with
      | None -> Alcotest.fail (plan.p_name ^ ": no memo")
      | Some steps ->
          Alcotest.(check bool) (plan.p_name ^ ": memoised counters") true
            (bits (List.map (fun s -> s.Gpu.Plan.s_stats) steps) = bits stats))
    (Lazy.force memo_plans);
  Alcotest.(check bool) "multi-kernel plans covered" true
    (List.exists (fun p -> Gpu.Plan.num_kernels p >= 4) (Lazy.force memo_plans))

let test_memo_replays_faults () =
  (* With an injector attached, the memoised fold consults it before each
     kernel as [Exec.run] does: the same launch faults with the same fault,
     the injector ends in the same state, and a latency spike scales the
     same kernel by the same factor. *)
  let plan =
    List.find (fun p -> Gpu.Plan.num_kernels p >= 4) (Lazy.force memo_plans)
  in
  ignore (run_on plan);
  let outcome f = match f () with r -> Ok (bits r) | exception Fault.Plan.Injected f -> Error f in
  let injector_state inj =
    Fault.Inject.(launches inj, dead inj, faults inj, Int64.bits_of_float (last_slowdown inj))
  in
  let compare_streams rates =
    let fp = Fault.Plan.make ~rates ~seed:7 () in
    List.init 64 (fun stream ->
        let memo_inj = Fault.Inject.create fp ~stream
        and ref_inj = Fault.Inject.create fp ~stream in
        let got = outcome (fun () -> run_on ~inj:memo_inj plan) in
        let expected =
          outcome (fun () ->
              let device = Gpu.Device.create () in
              Gpu.Device.attach_faults device ref_inj;
              fst (reference_run ~dispatch_us:8.0 device plan))
        in
        let label = Printf.sprintf "stream %d" stream in
        Alcotest.(check bool) (label ^ ": same outcome") true (got = expected);
        Alcotest.(check bool) (label ^ ": same injector state") true
          (injector_state memo_inj = injector_state ref_inj);
        got)
  in
  let failing =
    compare_streams { Fault.Plan.zero_rates with launch_failure = 0.15; device_death = 0.05 }
  in
  Alcotest.(check bool) "some stream faults past its first kernel" true
    (List.exists (function Error f -> f.Fault.Plan.f_seq > 0 | Ok _ -> false) failing);
  Alcotest.(check bool) "some stream runs clean" true (List.exists Result.is_ok failing);
  let clean = bits (run_on plan) in
  let spiked =
    compare_streams { Fault.Plan.zero_rates with latency_spike = 0.3; spike_mult = 3.0 }
  in
  Alcotest.(check bool) "some spike slows a run" true
    (List.exists (function Ok r -> r <> clean | Error _ -> false) spiked)

let test_memo_unwalkable () =
  (* An Ampere MLP plan over Volta's shared-memory budget: its fault-free
     walk raises, so it is marked unwalkable on Volta once, and every run
     there takes the per-kernel loop and raises what [Exec.run] raises.
     Sharding it on a Volta node still walks it arch-free. *)
  let plan =
    B.spacefusion.Backends.Policy.compile arch ~name:"mlp" (Ir.Models.mlp ~layers:2 ~m:256 ~n:256 ~k:256)
  in
  let volta = Gpu.Arch.volta in
  let expected =
    let k = List.hd plan.p_kernels in
    match Gpu.Exec.run ~mode:Gpu.Exec.Analytic ~arch:volta (Gpu.Device.create ()) k with
    | _ -> Alcotest.fail "expected the kernel over Volta's budget"
    | exception e -> e
  in
  let w0 = walks () in
  for _ = 1 to 3 do
    Alcotest.check_raises "over budget on every run" expected (fun () -> ignore (run_on ~arch:volta plan))
  done;
  Alcotest.(check int) "marked unwalkable once" 1 (walks () - w0);
  Alcotest.(check bool) "no memo on Volta" true (Gpu.Plan.walk plan volta = None);
  Alcotest.(check bool) "a memo on Ampere" true (Gpu.Plan.walk plan arch <> None);
  let d = Core.Shard.best (Gpu.Node.nvlink volta ~devices:2) plan in
  Alcotest.(check bool) "sharded arch-free" true (d.Core.Shard.d_baseline_s > 0.0)

let test_memo_fresh_for_new_plans () =
  (* A mutant or a decoded plan is a new plan: it starts with no memo, so
     it reports its own cost, never the plan it was made from. *)
  let plan = B.spacefusion.Backends.Policy.compile arch ~name:"v" (Ir.Models.softmax_graph ~m:37 ~n:64) in
  let good = bits (run_on plan) in
  let fresh label p =
    let w0 = walks () in
    let got = match run_on p with r -> Ok (bits r) | exception e -> Error (Printexc.to_string e) in
    Alcotest.(check int) (label ^ ": walked afresh") 1 (walks () - w0);
    let expected =
      match reference_run ~dispatch_us:8.0 (Gpu.Device.create ()) p with
      | r, _ -> Ok (bits r)
      | exception e -> Error (Printexc.to_string e)
    in
    Alcotest.(check bool) (label ^ ": its own cost") true (got = expected);
    got
  in
  let mutants =
    List.filter_map
      (fun (m : Check.Mutation.t) -> Option.map (fun p -> (m.m_name, p)) (m.m_mutate plan))
      Check.Mutation.corpus
  in
  Alcotest.(check bool) "mutants applied" true (List.length mutants >= 4);
  let costs = List.map (fun (name, p) -> fresh name p) mutants in
  Alcotest.(check bool) "some mutant costs differ from the plan's" true
    (List.exists (fun c -> c <> Ok good) costs);
  match Store.Codec.plan_of_json (Store.Codec.plan_to_json plan) with
  | Error m -> Alcotest.fail m
  | Ok decoded -> Alcotest.(check bool) "decoded plan: same cost" true (fresh "decoded" decoded = Ok good)

let test_memo_concurrent_install () =
  (* Two domains walking one plan at once may both walk, but only the
     first install lands: both read the same memo, counted once. *)
  let base = B.pytorch.Backends.Policy.compile arch ~name:"ln" (Ir.Models.layernorm_graph ~m:64 ~n:64) in
  for i = 1 to 8 do
    let plan = copy base in
    let w0 = walks () in
    let go = Atomic.make false in
    let walker () =
      Domain.spawn (fun () ->
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          Gpu.Plan.walk plan arch)
    in
    let a = walker () and b = walker () in
    Atomic.set go true;
    let ra = Domain.join a and rb = Domain.join b in
    Alcotest.(check bool) (Printf.sprintf "round %d: one memo" i) true (ra == rb && ra <> None);
    Alcotest.(check int) (Printf.sprintf "round %d: one install" i) 1 (walks () - w0)
  done

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
  let bad =
    Gpu.Plan.make ~name:good.p_name ~kernels:(List.map sabotage good.p_kernels) ~decls:good.p_decls
  in
  (match Runtime.Verify.verify_plan ~arch ~name:"v" g good with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match Runtime.Verify.verify_plan ~arch ~name:"v" g bad with
  | Ok () -> Alcotest.fail "sabotaged plan accepted"
  | Error _ -> ()

let test_verify_missing_output () =
  let g = Ir.Models.softmax_graph ~m:4 ~n:8 in
  let plan = Gpu.Plan.make ~name:"empty" ~kernels:[] ~decls:[] in
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
      ( "memo",
        [
          Alcotest.test_case "equals a fresh walk" `Quick test_memo_equals_fresh_walk;
          Alcotest.test_case "replays faults" `Quick test_memo_replays_faults;
          Alcotest.test_case "unwalkable plan raises every run" `Quick test_memo_unwalkable;
          Alcotest.test_case "mutants and decoded plans walk afresh" `Quick
            test_memo_fresh_for_new_plans;
          Alcotest.test_case "concurrent walks install one memo" `Quick test_memo_concurrent_install;
        ] );
      ( "verify",
        [
          Alcotest.test_case "catches wrong computation" `Quick test_verify_catches_wrong_plan;
          Alcotest.test_case "catches missing output" `Quick test_verify_missing_output;
        ] );
      ("patterns", [ Alcotest.test_case "census ordering" `Quick test_patterns_ordering ]);
    ]
