(* Benchmark harness: one generator per table/figure of the paper's
   evaluation (§6). Each generator prints the same rows/series the paper
   reports, measured on the simulated GPUs. The remaining experiments
   (batch, shard, overload, verify) are the gates scripts/ci.sh runs:
   each checks its own floors and exits nonzero on a violation.
   Wall-clock performance lives in the canonical benchmark (benchmark/).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig13 # one experiment
     dune exec bench/main.exe -- --quick      # miniature sizes (CI)
     dune exec bench/main.exe -- --list       # list experiments *)

module B = Backends.Baselines
module Policy = Backends.Policy
module Runner = Runtime.Runner

let quick = ref false

let archs () = if !quick then [ Gpu.Arch.ampere ] else Gpu.Arch.all

(* One plan cache for the whole harness: the end-to-end experiments revisit
   the same (model, backend, arch) subprograms many times. *)
let cache = Runtime.Plan_cache.create ()

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let run_backend arch (b : Policy.t) name g =
  let plan = b.compile arch ~name g in
  let device = Gpu.Device.create () in
  Runner.run_plan ~arch ~dispatch_us:b.dispatch_us device plan

let time_backend arch b name g = (run_backend arch b name g).Runtime.Exec_stats.x_time

(* One end-to-end model run; a typed error is fatal to the experiment. *)
let run_e2e ?cache arch b model =
  Core.Spacefusion.Error.get
    (Runtime.Model_runner.run_workload_r ?cache (Runtime.Workload.make ~arch b model))

let time_e2e arch b model =
  (run_e2e ~cache arch b model).Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time

let header title columns =
  Printf.printf "\n### %s\n%s\n" title (String.concat "  " columns);
  Printf.printf "%s\n" (String.make (String.length (String.concat "  " columns)) '-')

let pct x = Printf.sprintf "%6.2fx" x

(* ------------------------------------------------------------------ *)
(* Fig 11a: fused MLP layers vs cuBLASLt                               *)
(* ------------------------------------------------------------------ *)

let fig11a () =
  header "Fig 11(a): Fused MLP — speedup over cuBLASLt (n=k=256)"
    [ "arch"; "m"; "layers"; "cuBLASLt(us)"; "SpaceFusion(us)"; "speedup" ];
  let layer_counts = if !quick then [ 2; 4 ] else [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ] in
  let ms = if !quick then [ 256 ] else [ 128; 256; 512; 1024 ] in
  List.iter
    (fun arch ->
      List.iter
        (fun m ->
          List.iter
            (fun layers ->
              let g = Ir.Models.mlp ~layers ~m ~n:256 ~k:256 in
              let t_lt = time_backend arch B.cublaslt "mlp" g in
              let t_sf = time_backend arch B.spacefusion "mlp" g in
              Printf.printf "%-7s m=%-5d L=%-3d %10.2f %10.2f  %s\n" arch.Gpu.Arch.name m layers
                (t_lt *. 1e6) (t_sf *. 1e6)
                (pct (t_lt /. t_sf)))
            layer_counts)
        ms)
    (archs ())

(* ------------------------------------------------------------------ *)
(* Fig 11b: fused LSTM cell vs cuBLAS                                  *)
(* ------------------------------------------------------------------ *)

let fig11b () =
  header "Fig 11(b): Fused LSTM cell — speedup over cuBLAS (m=256)"
    [ "arch"; "hidden"; "cuBLAS(us)"; "cuBLASLt(us)"; "SpaceFusion(us)"; "su_blas"; "su_lt" ];
  let hiddens = if !quick then [ 128 ] else [ 128; 256; 512; 1024 ] in
  List.iter
    (fun arch ->
      List.iter
        (fun hidden ->
          let g = Ir.Models.lstm_cell ~m:256 ~hidden ~input:hidden in
          let t_blas = time_backend arch B.cublas "lstm" g in
          let t_lt = time_backend arch B.cublaslt "lstm" g in
          let t_sf = time_backend arch B.spacefusion "lstm" g in
          Printf.printf "%-7s h=%-5d %10.2f %10.2f %10.2f  %s %s\n" arch.Gpu.Arch.name hidden
            (t_blas *. 1e6) (t_lt *. 1e6) (t_sf *. 1e6)
            (pct (t_blas /. t_sf))
            (pct (t_lt /. t_sf)))
        hiddens)
    (archs ())

(* ------------------------------------------------------------------ *)
(* Fig 12: fused LayerNorm                                             *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "Fig 12: Fused LayerNorm — speedup over PyTorch (M=N)"
    [ "arch"; "M"; "PyTorch"; "PyTorch-Op"; "Apex"; "LN-Triton"; "SpaceFusion"; "su(vs PyTorch)" ];
  List.iter
    (fun arch ->
      let sizes =
        if !quick then [ 1024 ]
        else if arch.Gpu.Arch.name = "Volta" then [ 1024; 2048; 4096; 8192; 16384 ]
        else [ 1024; 2048; 4096; 8192; 16384; 32768 ]
      in
      List.iter
        (fun m ->
          let g = Ir.Models.layernorm_graph ~m ~n:m in
          let t b = time_backend arch b "ln" g in
          let tp = t B.pytorch
          and top = t B.torch_op_ln
          and ta = t B.apex_ln
          and tt = t B.ln_triton
          and ts = t B.spacefusion in
          Printf.printf "%-7s M=%-6d %9.1f %9.1f %9.1f %9.1f %9.1f  %s (op %s, apex %s, triton %s)\n"
            arch.Gpu.Arch.name m (tp *. 1e6) (top *. 1e6) (ta *. 1e6) (tt *. 1e6) (ts *. 1e6)
            (pct (tp /. ts)) (pct (top /. ts)) (pct (ta /. ts)) (pct (tt /. ts)))
        sizes)
    (archs ())

(* ------------------------------------------------------------------ *)
(* Fig 13: fused MHA                                                   *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  header "Fig 13: Fused MHA — speedup over PyTorch (12 heads, d=64)"
    [ "arch"; "batch"; "seq"; "PyTorch(us)"; "FA"; "FA-Triton"; "FA2"; "SpaceFusion"; "su" ];
  List.iter
    (fun arch ->
      let seqs =
        if !quick then [ 128 ]
        else if arch.Gpu.Arch.name = "Volta" then [ 64; 128; 256; 512; 1024 ]
        else [ 64; 128; 256; 512; 1024; 2048; 8192 ]
      in
      List.iter
        (fun batch ->
          List.iter
            (fun seq ->
              let g = Ir.Models.mha ~batch_heads:(batch * 12) ~seq_q:seq ~seq_kv:seq ~head_dim:64 () in
              let t b = time_backend arch b "mha" g in
              let show b = if b.Policy.supports arch then Printf.sprintf "%9.1f" (t b *. 1e6) else "      n/a" in
              let tp = t B.pytorch and ts = t B.spacefusion in
              Printf.printf "%-7s b=%-3d seq=%-5d %10.1f %s %s %s %9.1f  %s\n" arch.Gpu.Arch.name
                batch seq (tp *. 1e6) (show B.flash_attention) (show B.flash_attention_triton)
                (show B.flash_attention2) (ts *. 1e6)
                (pct (tp /. ts)))
            seqs)
        (if !quick then [ 32 ] else [ 1; 32 ]))
    (archs ())

(* ------------------------------------------------------------------ *)
(* Fig 14: end-to-end models                                           *)
(* ------------------------------------------------------------------ *)

let e2e_backends = [ B.pytorch; B.spacefusion; B.tensorrt; B.kernl; B.bladedisc; B.nnfusion ]

let fig14 () =
  header "Fig 14: End-to-end inference — speedup over PyTorch"
    [ "arch"; "batch"; "model"; "backend"; "latency(ms)"; "kernels"; "speedup" ];
  List.iter
    (fun arch ->
      List.iter
        (fun batch ->
          let seq = if !quick then 128 else 512 in
          let models =
            if !quick then [ Ir.Models.bert ~batch ~seq ] else Ir.Models.all_models ~batch ~seq
          in
          List.iter
            (fun (model : Ir.Models.model) ->
              let base = ref None in
              List.iter
                (fun (b : Policy.t) ->
                  if Runtime.Model_runner.supported ~arch b then begin
                    let r = run_e2e ~cache arch b model in
                    let su =
                      match !base with
                      | None ->
                          base := Some r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time;
                          1.0
                      | Some bt -> bt /. r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time
                    in
                    Printf.printf "%-7s b=%-3d %-10s %-12s %9.3f %6d  %s\n" arch.Gpu.Arch.name
                      batch model.model_name b.be_name
                      (r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time *. 1e3)
                      r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_kernels (pct su)
                  end)
                e2e_backends)
            models)
        (if !quick then [ 1 ] else [ 1; 32 ]))
    (archs ())

(* ------------------------------------------------------------------ *)
(* Fig 15: memory and cache analysis                                   *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  header "Fig 15: L1/L2 cache misses and DRAM traffic (normalized to SpaceFusion; lower is better)"
    [ "workload"; "backend"; "L1 miss"; "L2 miss"; "DRAM bytes"; "norm(L1/L2/DRAM)" ];
  let arch = Gpu.Arch.ampere in
  let cases =
    if !quick then [ ("LN(1K)", Ir.Models.layernorm_graph ~m:1024 ~n:1024, B.torch_op_ln) ]
    else
      [
        ("MLP(4,1K)", Ir.Models.mlp ~layers:4 ~m:1024 ~n:256 ~k:256, B.cublaslt);
        ("MLP(20,64)", Ir.Models.mlp ~layers:20 ~m:64 ~n:256 ~k:256, B.cublaslt);
        ("LN(4K)", Ir.Models.layernorm_graph ~m:4096 ~n:4096, B.torch_op_ln);
        ("LN(32K)", Ir.Models.layernorm_graph ~m:32768 ~n:32768, B.torch_op_ln);
        ( "MHA(32,1K)",
          Ir.Models.mha ~batch_heads:(32 * 12) ~seq_q:1024 ~seq_kv:1024 ~head_dim:64 (),
          B.flash_attention );
        ( "MHA(32,2K)",
          Ir.Models.mha ~batch_heads:(32 * 12) ~seq_q:2048 ~seq_kv:2048 ~head_dim:64 (),
          B.flash_attention );
      ]
  in
  List.iter
    (fun (label, g, fused_baseline) ->
      let stats b = (run_backend arch b label g).Runtime.Exec_stats.x_timing in
      let sf = stats B.spacefusion in
      let show name (t : Gpu.Cost.timing) =
        Printf.printf "%-11s %-13s %12.0f %12.0f %14.0f   %.2f / %.2f / %.2f\n" label name
          t.Gpu.Cost.l1_miss t.Gpu.Cost.l2_miss
          (t.Gpu.Cost.dram_read +. t.Gpu.Cost.dram_write)
          (t.Gpu.Cost.l1_miss /. sf.Gpu.Cost.l1_miss)
          (t.Gpu.Cost.l2_miss /. sf.Gpu.Cost.l2_miss)
          ((t.Gpu.Cost.dram_read +. t.Gpu.Cost.dram_write)
          /. (sf.Gpu.Cost.dram_read +. sf.Gpu.Cost.dram_write))
      in
      show "unfused" (stats B.pytorch);
      show ("fused:" ^ fused_baseline.Policy.be_name) (stats fused_baseline);
      show "SpaceFusion" sf)
    cases

(* ------------------------------------------------------------------ *)
(* Fig 16a: ablation                                                   *)
(* ------------------------------------------------------------------ *)

let variants =
  [
    ("Base(SS)", Core.Auto_scheduler.base_ss);
    ("Base+AS", Core.Auto_scheduler.base_as);
    ("Base+TS", Core.Auto_scheduler.base_ts);
    ("SpaceFusion", Core.Auto_scheduler.full);
  ]

let fig16a () =
  header "Fig 16(a): Ablation — performance normalized to full SpaceFusion"
    [ "batch"; "model"; "Base(SS)"; "Base+AS"; "Base+TS"; "SpaceFusion" ];
  let arch = Gpu.Arch.ampere in
  List.iter
    (fun batch ->
      let seq = if !quick then 128 else 512 in
      let models =
        if !quick then [ Ir.Models.bert ~batch ~seq ] else Ir.Models.all_models ~batch ~seq
      in
      List.iter
        (fun (model : Ir.Models.model) ->
          let lat vname variant = time_e2e arch (B.spacefusion_variant ~name:vname variant) model in
          let ls = List.map (fun (vn, v) -> lat vn v) variants in
          let full = List.nth ls 3 in
          Printf.printf "b=%-3d %-10s %s\n" batch model.model_name
            (String.concat " " (List.map (fun l -> Printf.sprintf "%6.2f" (full /. l)) ls)))
        models)
    (if !quick then [ 1 ] else [ 1; 32 ])

(* ------------------------------------------------------------------ *)
(* Fig 16b: input-size sensitivity                                     *)
(* ------------------------------------------------------------------ *)

let fig16b () =
  header "Fig 16(b): Input-size sensitivity — SpaceFusion speedup over PyTorch per input size"
    [ "batch"; "model"; "small"; "medium"; "large" ];
  let arch = Gpu.Arch.ampere in
  let model_builders =
    [
      ("Bert", fun batch seq -> Ir.Models.bert ~batch ~seq);
      ("Albert", fun batch seq -> Ir.Models.albert ~batch ~seq);
      ("T5", fun batch seq -> Ir.Models.t5 ~batch ~seq);
      ("ViT", fun batch seq -> Ir.Models.vit ~batch ~image:(seq / 2));
      ("Llama2", fun batch seq -> Ir.Models.llama2_7b ~batch ~seq);
    ]
  in
  let seqs = if !quick then [ 128 ] else [ 128; 512; 1024 ] in
  List.iter
    (fun batch ->
      List.iter
        (fun (name, build) ->
          let sus =
            List.map
              (fun seq ->
                let model = build batch seq in
                let l b = time_e2e arch b model in
                l B.pytorch /. l B.spacefusion)
              seqs
          in
          Printf.printf "b=%-3d %-10s %s\n" batch name
            (String.concat " " (List.map (Printf.sprintf "%6.2fx") sus)))
        (if !quick then [ List.hd model_builders ] else model_builders))
    (if !quick then [ 1 ] else [ 1; 32 ])

(* ------------------------------------------------------------------ *)
(* Fig 16c: architecture sensitivity                                   *)
(* ------------------------------------------------------------------ *)

let fig16c () =
  header "Fig 16(c): Architecture sensitivity (batch 32) — perf and speedup-vs-PyTorch, normalized to Volta"
    [ "model"; "perfV:A:H"; "suV:A:H" ];
  let batch = if !quick then 1 else 32 in
  let seq = if !quick then 128 else 512 in
  let models =
    if !quick then [ Ir.Models.bert ~batch ~seq ] else Ir.Models.all_models ~batch ~seq
  in
  List.iter
    (fun (model : Ir.Models.model) ->
      let per_arch arch =
        let l b = time_e2e arch b model in
        let sf = l B.spacefusion in
        (1.0 /. sf, l B.pytorch /. sf)
      in
      let stats = List.map per_arch (archs ()) in
      let p0, s0 = List.hd stats in
      Printf.printf "%-10s  perf %s   su %s\n" model.model_name
        (String.concat ":" (List.map (fun (p, _) -> Printf.sprintf "%.2f" (p /. p0)) stats))
        (String.concat ":" (List.map (fun (_, s) -> Printf.sprintf "%.2f" (s /. s0)) stats)))
    models

(* ------------------------------------------------------------------ *)
(* Table 4: compilation-time breakdown for MHA                         *)
(* ------------------------------------------------------------------ *)

let tab4 () =
  header "Table 4: Compilation time breakdown (MHA)"
    [ "workload"; "TS(ms)"; "enumCfg(ms)"; "SS(ms)"; "Tuning(ms)"; "Total(ms)"; "cfgs"; "early-quit" ];
  let arch = Gpu.Arch.ampere in
  let cases = if !quick then [ (32, 256) ] else [ (32, 1024); (32, 256) ] in
  List.iter
    (fun (batch, seq) ->
      let g = Ir.Models.mha ~batch_heads:(batch * 12) ~seq_q:seq ~seq_kv:seq ~head_dim:64 () in
      let c = Core.Spacefusion.compile ~arch ~name:"mha" g in
      let s = c.Core.Spacefusion.c_stats in
      Printf.printf "MHA(%d,%d) %10.3f %10.3f %10.3f %10.3f %10.3f %6d %6d\n" batch seq
        (s.Core.Cstats.t_ts *. 1e3) (s.Core.Cstats.t_enum *. 1e3) (s.Core.Cstats.t_ss *. 1e3)
        (s.Core.Cstats.t_tune *. 1e3) (s.Core.Cstats.t_total *. 1e3) s.Core.Cstats.n_cfgs
        s.Core.Cstats.n_early_quit)
    cases

(* ------------------------------------------------------------------ *)
(* Table 5: model compilation time                                     *)
(* ------------------------------------------------------------------ *)

let tab5 () =
  header "Table 5: Model compilation time (s)"
    [ "model"; "BladeDISC"; "TensorRT"; "SpaceFusion" ];
  let arch = Gpu.Arch.ampere in
  let batch = if !quick then 1 else 32 in
  let seq = if !quick then 128 else 512 in
  let models =
    if !quick then [ Ir.Models.bert ~batch ~seq ]
    else [ Ir.Models.bert ~batch ~seq; Ir.Models.vit ~batch ~image:224; Ir.Models.t5 ~batch ~seq ]
  in
  List.iter
    (fun (model : Ir.Models.model) ->
      let compile_s b =
        (* No cache here: this experiment measures compile wall-clock. *)
        (run_e2e arch b model).Runtime.Model_runner.m_compile_s
      in
      Printf.printf "%-10s %10.3f %10.3f %10.3f\n" model.model_name (compile_s B.bladedisc)
        (compile_s B.tensorrt) (compile_s B.spacefusion))
    models

(* ------------------------------------------------------------------ *)
(* Table 6: fusion-pattern census                                      *)
(* ------------------------------------------------------------------ *)

let tab6 () =
  header "Table 6: Fusion patterns discovered (subgraphs with >= 2 All-to-Ones)"
    [ "policy"; "total"; "CI-only"; "MI-only"; "CI+MI"; "instances-fused-whole" ];
  let arch = Gpu.Arch.ampere in
  let batch = if !quick then 1 else 8 in
  let seq = if !quick then 64 else 256 in
  (* The model zoo plus the standalone evaluated structures (§6.6's "9 types
     of models and structures"). *)
  let extra =
    {
      Ir.Models.model_name = "subgraphs";
      subprograms =
        [
          { Ir.Models.sp_name = "mlp"; graph = Ir.Models.mlp ~layers:4 ~m:256 ~n:256 ~k:256; count = 1 };
          { sp_name = "lstm"; graph = Ir.Models.lstm_cell ~m:256 ~hidden:512 ~input:512; count = 1 };
          { sp_name = "ln"; graph = Ir.Models.layernorm_graph ~m:1024 ~n:1024; count = 1 };
          { sp_name = "softmax_gemm"; graph = Ir.Models.softmax_gemm ~m:256 ~l:512 ~n:64; count = 1 };
        ];
    }
  in
  (* §6.6 counts distinct patterns across 14 compiled instances of 9 model/
     structure types: sweep sizes so capability gaps (e.g. Welder at long
     sequences) show up as missing patterns. *)
  let models =
    Ir.Models.all_models ~batch ~seq
    @ (if !quick then [] else Ir.Models.all_models ~batch:1 ~seq:2048)
    @ [ extra ]
  in
  List.iter
    (fun (name, policy) ->
      let c = Runtime.Patterns.census_of_models ~arch policy models in
      Printf.printf "%-12s %6d %8d %8d %7d %10d\n" name c.Runtime.Patterns.total
        c.Runtime.Patterns.ci_only c.Runtime.Patterns.mi_only c.Runtime.Patterns.ci_and_mi
        c.Runtime.Patterns.whole)
    [ ("SpaceFusion", B.spacefusion); ("Welder", B.welder); ("AStitch", B.astitch) ]

(* ------------------------------------------------------------------ *)
(* Design-choice ablations (DESIGN.md)                                 *)
(* ------------------------------------------------------------------ *)

let ablate () =
  let arch = Gpu.Arch.ampere in
  header "Ablation: early-quit α (§6.5) — emulated sequential tuning of the MHA search space"
    [ "alpha"; "evaluated"; "aborted"; "best kept?" ];
  let g =
    if !quick then Ir.Models.mha ~batch_heads:24 ~seq_q:128 ~seq_kv:128 ~head_dim:64 ()
    else Ir.Models.mha ~batch_heads:(32 * 12) ~seq_q:1024 ~seq_kv:1024 ~head_dim:64 ()
  in
  let smg = Core.Smg.build g in
  let tensor_of = Core.Spacefusion.tensor_name ~name:"mha" g in
  let device = Gpu.Device.create () in
  List.iter
    (fun (n : Ir.Graph.node) ->
      match n.kind with
      | Ir.Graph.Const _ -> ()
      | _ -> Gpu.Device.declare device (tensor_of n.id) n.shape)
    (Ir.Graph.nodes g);
  let scheds = Core.Auto_scheduler.run arch smg ~name:"mha" ~tensor_of in
  let costs =
    List.concat_map
      (fun { Core.Auto_scheduler.cfgs; _ } ->
        List.map (fun (_, k) -> Core.Tuner.kernel_cost arch device k) cfgs)
      scheds
  in
  let true_best = List.fold_left Float.min infinity costs in
  List.iter
    (fun alpha ->
      (* The paper aborts a configuration whose accumulated test time
         exceeds α⁻¹ × the best total so far. *)
      let best = ref infinity and aborted = ref 0 in
      List.iter
        (fun c ->
          if c > !best /. alpha then incr aborted;
          if c < !best then best := c)
        costs;
      Printf.printf "α=%-5.2f %9d %9d   %s\n" alpha (List.length costs) !aborted
        (if !best = true_best then "yes" else "NO"))
    [ 0.1; 0.25; 0.5; 1.0 ];
  header "Ablation: buffer pooling — fused-MLP on-chip footprint with/without sharing"
    [ "layers"; "pooled(KB)"; "unpooled(KB)"; "pooled feasible?"; "unpooled feasible?" ];
  List.iter
    (fun layers ->
      let g = Ir.Models.mlp ~layers ~m:256 ~n:128 ~k:128 in
      let smg = Core.Smg.build g in
      let tensor_of = Core.Spacefusion.tensor_name ~name:"mlp" g in
      let spatial = Core.Analysis.spatial_dims smg in
      let schedule = Core.Schedule.make smg ~spatial ~temporal:None in
      let cfg = { Core.Schedule.blocks = List.map (fun d -> (d, 32)) schedule.tiled_dims; tile = None } in
      let footprint pool =
        match Core.Lower.lower ~pool schedule cfg ~name:"mlp" ~tensor_of with
        | exception Core.Lower.Unlowerable _ -> None
        | k -> Some (Gpu.Kernel.smem_bytes k + Gpu.Kernel.reg_bytes k)
      in
      let show = function None -> "n/a" | Some b -> string_of_int (b / 1024) in
      let fits = function
        | Some b -> if b <= arch.Gpu.Arch.smem_per_block + arch.Gpu.Arch.regfile_bytes then "yes" else "no"
        | None -> "n/a"
      in
      let p = footprint true and u = footprint false in
      Printf.printf "L=%-4d %10s %12s %14s %16s\n" layers (show p) (show u) (fits p) (fits u))
    (if !quick then [ 4 ] else [ 2; 4; 8; 16; 20 ])

(* ------------------------------------------------------------------ *)
(* Batch: shape classes + continuous batching on mixed-shape traffic   *)
(* ------------------------------------------------------------------ *)

(* The serving economics shape classes exist for: mixed-shape traffic
   whose leading (batch) dim varies request to request. Baseline storm —
   120 (quick) or 300 requests under [Exact] bucketing, where every
   fresh dim is a cold SpaceFusion compile. Batched storm — 10x that
   request count under [Pow2], where one guard-protected plan per class
   serves every in-class dim and concurrent requests stack rows into
   sliced batches. Gates (exit nonzero): conservation and zero failures
   in both storms, batched throughput >= 5x the exact baseline's,
   warm-path share >= 0.5, and zero guard-miss compiles and zero
   functional executions after the deterministic class warm-up. *)
let batch_bench () =
  let arch = Gpu.Arch.ampere in
  let backend = B.spacefusion in
  let one name g =
    { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }
  in
  (* Row-parametric sliceable families; rows are drawn from (16, 32] so
     the whole storm lives in one shape class per family. *)
  let families =
    [
      ("ln", fun r -> one "ln" (Ir.Models.layernorm_graph ~m:r ~n:64));
      ("rms", fun r -> one "rms" (Ir.Models.rmsnorm_graph ~m:r ~n:64));
      ("softmax", fun r -> one "softmax" (Ir.Models.softmax_graph ~m:r ~n:64));
      ("mlp", fun r -> one "mlp" (Ir.Models.mlp ~layers:2 ~m:r ~n:32 ~k:32));
    ]
  in
  let counter name =
    match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0
  in
  let n_base = if !quick then 120 else 300 in
  let storm ~label ~shapes ~cache ~n =
    let cfg =
      {
        (Serve.Server.default_config ()) with
        Serve.Server.workers = 4;
        queue_capacity = n;
        shapes;
      }
    in
    let s = Serve.Server.start ~cache ~config:cfg () in
    let rng = Random.State.make [| 42 |] in
    let t0 = Unix.gettimeofday () in
    let tickets =
      List.init n (fun _ ->
          let rows = 17 + Random.State.int rng 16 in
          let f = snd (List.nth families (Random.State.int rng (List.length families))) in
          Serve.Server.submit s ~arch backend (f rows))
    in
    List.iter
      (fun tk ->
        match Serve.Server.await tk with
        | Serve.Server.Done _ -> ()
        | _ ->
            Printf.eprintf "batch: %s storm request not served\n" label;
            exit 1)
      tickets;
    let elapsed = Unix.gettimeofday () -. t0 in
    Serve.Server.shutdown s;
    let st = Serve.Server.stats s in
    if not (Serve.Stats.conserved st) || st.Serve.Stats.s_failed > 0 then begin
      Printf.eprintf "batch: accounting violated in %s storm: %s\n" label
        (Format.asprintf "%a" Serve.Stats.pp_snapshot st);
      exit 1
    end;
    (st, elapsed)
  in
  (* Baseline: the mixed-shape storm under [Exact] — every distinct dim
     compiles its own plans, cold, inside the measured window. *)
  let exact_cache = Runtime.Plan_cache.create () in
  let st_exact, t_exact = storm ~label:"exact" ~shapes:Runtime.Shape_class.Exact ~cache:exact_cache ~n:n_base in
  let rps_exact = float_of_int st_exact.Serve.Stats.s_done /. t_exact in
  (* Pow2 warm-up, outside the measured window: each family once at the
     class representative (32: singleton batches execute there) and once
     at the next boundary (64: stacked batches execute there), so the
     storm never guard-misses. *)
  let cache = Runtime.Plan_cache.create () in
  let warm =
    Serve.Server.start ~cache
      ~config:
        { (Serve.Server.default_config ()) with Serve.Server.workers = 2; shapes = Runtime.Shape_class.Pow2 }
      ()
  in
  List.iter
    (fun (_, f) ->
      List.iter
        (fun rows ->
          match Serve.Server.await (Serve.Server.submit warm ~arch backend (f rows)) with
          | Serve.Server.Done _ -> ()
          | _ ->
              Printf.eprintf "batch: warm-up request not served\n";
              exit 1)
        [ 32; 64 ])
    families;
  Serve.Server.shutdown warm;
  (* Batched storm: 10x the baseline request count through the warm
     class plans. *)
  let n_batch = 10 * n_base in
  let miss0 = Runtime.Plan_cache.misses cache in
  let guard0 = counter "shape_class.guard_misses" in
  let funct0 = counter "run.functional_execs" in
  let st_p2, t_p2 = storm ~label:"pow2" ~shapes:Runtime.Shape_class.Pow2 ~cache ~n:n_batch in
  let rps_p2 = float_of_int st_p2.Serve.Stats.s_done /. t_p2 in
  let guard_misses = counter "shape_class.guard_misses" - guard0 in
  let functional = counter "run.functional_execs" - funct0 in
  let miss_requests = Runtime.Plan_cache.misses cache - miss0 in
  let warm_share =
    float_of_int (st_p2.Serve.Stats.s_done - miss_requests)
    /. float_of_int st_p2.Serve.Stats.s_done
  in
  let speedup = rps_p2 /. rps_exact in
  let num n = Obs.Json.Num n in
  let int n = num (float_of_int n) in
  let json =
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.Str "batch");
        ("quick", Obs.Json.Bool !quick);
        ("exact_requests", int n_base);
        ("batched_requests", int n_batch);
        ("exact_rps", num rps_exact);
        ("batched_rps", num rps_p2);
        ("speedup", num speedup);
        ("warm_share", num warm_share);
        ("guard_misses_after_warm", int guard_misses);
        ("functional_execs_after_warm", int functional);
        ("batched_members", int st_p2.Serve.Stats.s_batched);
        ("coalesced", int st_p2.Serve.Stats.s_coalesced);
        ("batches_closed", int (counter "batch.closed"));
        (* Batches whose stacked rows reached the class boundary. *)
        ("boundary_closes", int (counter "batch.boundary_closes"));
      ]
  in
  print_endline (Obs.Json.to_string json);
  if speedup < 5.0 then begin
    Printf.eprintf "batch: %.1fx over the exact baseline, below the 5x floor\n" speedup;
    exit 1
  end;
  if warm_share < 0.5 then begin
    Printf.eprintf "batch: warm-path share %.3f below 0.5\n" warm_share;
    exit 1
  end;
  if guard_misses <> 0 then begin
    Printf.eprintf "batch: %d guard-miss compile(s) after class warm-up\n" guard_misses;
    exit 1
  end;
  if functional <> 0 then begin
    Printf.eprintf "batch: %d functional execution(s) on the warmed class plans\n" functional;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Differential verification gate                                      *)
(* ------------------------------------------------------------------ *)

let verify () =
  (* Fixed seed: the whole run (graphs, inputs, shrinks) is reproducible,
     so a CI failure replays exactly. *)
  let config =
    { Check.Fuzz.default_config with Check.Fuzz.cf_budget = (if !quick then 20 else 60) }
  in
  let r = Check.Fuzz.run ~config () in
  print_endline (Check.Fuzz.report_to_json r);
  if not (Check.Fuzz.pass r) then begin
    Check.Fuzz.pp_report Format.err_formatter r;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Shard: multi-device scaling + fleet soak (JSON)                     *)
(* ------------------------------------------------------------------ *)

(* Costs the cross-device sharding scheduler (Core.Shard over an
   NVLink-style Gpu.Node) on large-batch workloads at 1/2/4/8-device
   nodes, then runs a fleet mini-soak: a device-death-weighted seeded
   storm against a 4-device serving fleet with one worker, so outcome
   counts and the fleet snapshot are a pure function of the seed.
   Gates (exit nonzero): the gated large-batch workload must show
   >= 1.5x simulated-latency improvement on a 4-device node vs one
   device, and the soak must keep exactly-once accounting conserved
   with goodput >= 0.9 after at least one injected device death. *)
let shard_bench () =
  let arch = Gpu.Arch.ampere in
  let sf = B.spacefusion in
  let node_sizes = [ 1; 2; 4; 8 ] in
  let cases =
    if !quick then
      [
        ("mlp_largebatch", Ir.Models.mlp ~layers:2 ~m:2048 ~n:8192 ~k:8192, 1);
        ("ffn_bert_layer", Ir.Models.ffn_ln ~m:1024 ~hidden:768 ~ffn:3072 ~act:`Gelu ~norm:`Layernorm, 12);
      ]
    else
      [
        (* Compute-bound wide-k GEMM chain: the shape sharding pays on. *)
        ("mlp_largebatch", Ir.Models.mlp ~layers:2 ~m:8192 ~n:8192 ~k:8192, 1);
        (* Memory-bound contrasts: the scheduler should keep these on one
           device rather than buy collectives that cost more than they save. *)
        ("softmax_gemm", Ir.Models.softmax_gemm ~m:8192 ~l:4096 ~n:64, 1);
        ("ffn_bert_layer", Ir.Models.ffn_ln ~m:16384 ~hidden:768 ~ffn:3072 ~act:`Gelu ~norm:`Layernorm, 12);
      ]
  in
  let gated = "mlp_largebatch" in
  let gate_su = ref 0.0 in
  let case_rows =
    List.map
      (fun (name, g, reps) ->
        let plan = sf.Policy.compile arch ~name g in
        let rows =
          List.map
            (fun devices ->
              let node = Gpu.Node.nvlink arch ~devices in
              let d = Core.Shard.best ~reps ~dispatch_us:sf.Policy.dispatch_us node plan in
              let su = Core.Shard.speedup d in
              if name = gated && devices = 4 then gate_su := su;
              Printf.sprintf
                "{\"node_devices\":%d,\"picked_devices\":%d,\"strategy\":%S,\"time_us\":%.3f,\"compute_us\":%.3f,\"collective_us\":%.3f,\"baseline_us\":%.3f,\"speedup\":%.3f,\"candidates\":%d,\"pruned\":%d}"
                devices d.Core.Shard.d_devices
                (Core.Shard.strategy_name d.Core.Shard.d_strategy)
                (d.Core.Shard.d_time *. 1e6) (d.Core.Shard.d_compute_s *. 1e6)
                (d.Core.Shard.d_collective_s *. 1e6)
                (d.Core.Shard.d_baseline_s *. 1e6)
                su d.Core.Shard.d_candidates d.Core.Shard.d_pruned)
            node_sizes
        in
        Printf.sprintf "{\"case\":%S,\"reps\":%d,\"nodes\":[%s]}" name reps
          (String.concat "," rows))
      cases
  in
  (* Fleet mini-soak: 4 simulated devices behind the router, one worker
     (deterministic), a storm weighted toward device deaths so rerouting
     and the per-device breakers actually engage. *)
  let n_req = if !quick then 120 else 240 in
  let one name g =
    { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }
  in
  let smodels =
    [
      one "ln" (Ir.Models.layernorm_graph ~m:128 ~n:128);
      one "rms" (Ir.Models.rmsnorm_graph ~m:128 ~n:128);
      one "softmax" (Ir.Models.softmax_graph ~m:128 ~n:128);
      one "mlp" (Ir.Models.mlp ~layers:2 ~m:32 ~n:128 ~k:128);
    ]
  in
  let rates =
    {
      Fault.Plan.zero_rates with
      Fault.Plan.launch_failure = 0.004;
      device_error = 0.002;
      device_death = (if !quick then 0.01 else 0.004);
    }
  in
  let fleet_seed = 23 in
  let cfg =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = n_req;
      max_retries = 4;
      backoff_s = 1e-4;
      backoff_cap_s = 1e-3;
      fault_plan = Some (Fault.Plan.make ~rates ~seed:fleet_seed ());
      breaker = { Serve.Breaker.threshold = 2; cooldown_s = 1e-3 };
      devices = 4;
    }
  in
  let counter name =
    match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0
  in
  let dead0 = counter "fleet.dead_devices" in
  let s = Serve.Server.start ~cache:(Runtime.Plan_cache.create ()) ~config:cfg () in
  let tickets =
    List.init n_req (fun i ->
        Serve.Server.submit s ~arch B.spacefusion (List.nth smodels (i mod List.length smodels)))
  in
  List.iter (fun tk -> ignore (Serve.Server.await tk)) tickets;
  Serve.Server.shutdown s;
  let st = Serve.Server.stats s in
  let goodput =
    if st.Serve.Stats.s_submitted = 0 then 1.0
    else float_of_int st.Serve.Stats.s_done /. float_of_int st.Serve.Stats.s_submitted
  in
  let deaths = counter "fleet.dead_devices" - dead0 in
  let fleet_js =
    match Serve.Server.fleet_json s with
    | Some j -> Obs.Json.to_string j
    | None -> "null"
  in
  Printf.printf
    "{\"experiment\":\"shard\",\"arch\":%S,\"quick\":%b,\"cases\":[%s],\"gate\":{\"case\":%S,\"devices\":4,\"speedup\":%.3f,\"floor\":1.5},\"fleet_soak\":{\"requests\":%d,\"devices\":4,\"seed\":%d,\"outcomes\":%s,\"goodput\":%.4f,\"device_deaths\":%d,\"fleet\":%s,\"conserved\":%b}}\n"
    arch.Gpu.Arch.name !quick
    (String.concat "," case_rows)
    gated !gate_su n_req fleet_seed
    (Obs.Json.to_string (Serve.Stats.snapshot_to_json st))
    goodput deaths fleet_js (Serve.Stats.conserved st);
  if !gate_su < 1.5 then begin
    Printf.eprintf "shard: 4-device speedup %.3fx below the 1.5x floor on %s\n" !gate_su gated;
    exit 1
  end;
  if not (Serve.Stats.conserved st) || st.Serve.Stats.s_submitted <> n_req then begin
    Printf.eprintf "shard: fleet soak accounting violated\n";
    exit 1
  end;
  if deaths < 1 then begin
    Printf.eprintf "shard: fleet soak injected no device death — storm too tame to gate on\n";
    exit 1
  end;
  if goodput < 0.9 then begin
    Printf.eprintf "shard: fleet soak goodput %.4f below 0.9\n" goodput;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Overload: shedding, blast-radius isolation, memory budgets (JSON)   *)
(* ------------------------------------------------------------------ *)

(* The robustness story under load the server cannot absorb, in four
   deterministic phases (frozen clock, one submitting thread, seeded
   poison draws — two same-seed runs must agree byte-for-byte on the
   storm's outcome and fault objects, which scripts/ci.sh diffs):

   A. Overload storm — wave 1 warms the per-key service-time EWMAs, then
      a paused-queue wave at ~5x the deadline's capacity: infeasible
      requests shed at admission, everything admitted is served, the
      1% poisoned requests fail alone. Gates: conservation, shed > 0,
      goodput (done over non-shed submissions) >= 0.8, zero innocent
      failures, and admitted = done + failed (a shed request never
      occupied the queue).
   B. Bisection probe — three in-class requests (rows 5+6+5 = the cap-16
      class boundary), staged on one worker so they stack into one batch,
      whose seed is chosen so exactly one member draws poison: the batch
      bisects, the poisoned member is isolated and fails, both clean
      members are served bit-for-bit from passing sub-runs.
   C. Memory budget — a byte budget far below the working set trips the
      typed resource_exhausted fault on every fused attempt; the server
      answers by halving the batch cap and serving from the unfused
      relief path. Gates: all served (degraded), budget trips > 0, cap
      shifted.
   D. Quarantine — every request on one key poisoned: three offenses
      fail, then the key is quarantined and further requests resolve
      without executing. *)
let overload () =
  let arch = Gpu.Arch.ampere in
  let backend = B.spacefusion in
  Obs.Metrics.reset ();
  let counter name =
    match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0
  in
  let frozen () = 0.0 in
  let one name g =
    { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }
  in
  let models =
    [
      one "ln" (Ir.Models.layernorm_graph ~m:128 ~n:128);
      one "rms" (Ir.Models.rmsnorm_graph ~m:128 ~n:128);
      one "softmax" (Ir.Models.softmax_graph ~m:128 ~n:128);
      one "mlp" (Ir.Models.mlp ~layers:2 ~m:32 ~n:128 ~k:128);
      one "sm-gemm" (Ir.Models.softmax_gemm ~m:32 ~l:128 ~n:64);
      one "bn" (Ir.Models.batchnorm_graph ~m:128 ~n:128);
    ]
  in
  let nth_model i = List.nth models (i mod List.length models) in
  let seed = 11 and poison = 0.01 in
  (* -- Phase A: seeded overload storm ------------------------------- *)
  let n2 = if !quick then 150 else 300 in
  let plan =
    Fault.Plan.make
      ~rates:{ Fault.Plan.zero_rates with Fault.Plan.poison_request = poison }
      ~seed ()
  in
  let cfg =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = n2 + 16;
      clock = frozen;
      fault_plan = Some plan;
      shed_deadlines = true;
      quarantine_threshold = 3;
      backoff_s = 1e-6;
      backoff_cap_s = 1e-5;
    }
  in
  let s = Serve.Server.start ~cache:(Runtime.Plan_cache.create ()) ~config:cfg () in
  let wave1 = List.map (fun m -> Serve.Server.submit s ~arch backend m) models in
  List.iter
    (fun tk ->
      match Serve.Server.await tk with
      | Serve.Server.Done _ -> ()
      | _ ->
          Printf.eprintf "overload: warm wave request not served\n";
          exit 1)
    wave1;
  (* The storm's deadline is sized from the warmed estimates themselves:
     admit roughly n2/5 worth of backlog, so the wave is 5x what the
     deadline can absorb regardless of model mix. *)
  let sh = Serve.Server.shed s in
  let keys =
    List.map
      (fun m ->
        Runtime.Workload.digest
          (Runtime.Workload.make ~devices:1 ~shapes:cfg.Serve.Server.shapes ~arch backend m))
      models
  in
  let ests = List.filter_map (fun k -> Serve.Shed.estimate sh ~key:k) keys in
  if List.length ests <> List.length models then begin
    Printf.eprintf "overload: warm wave left %d/%d keys without estimates\n"
      (List.length models - List.length ests)
      (List.length models);
    exit 1
  end;
  let mean_svc = List.fold_left ( +. ) 0.0 ests /. float_of_int (List.length ests) in
  let deadline_s = mean_svc *. float_of_int (n2 / 5) in
  (* Paused queue: the backlog is static during submission, so each shed
     decision is a pure function of submit order. *)
  Serve.Server.pause s;
  let wave2 =
    List.init n2 (fun i -> Serve.Server.submit s ~deadline_s ~arch backend (nth_model i))
  in
  Serve.Server.resume s;
  let shed_n = ref 0 and done2 = ref 0 and failed2 = ref 0 in
  List.iter
    (fun tk ->
      match Serve.Server.await tk with
      | Serve.Server.Done _ -> incr done2
      | Serve.Server.Shed _ -> incr shed_n
      | Serve.Server.Failed _ -> incr failed2
      | Serve.Server.Quarantined -> ()
      | Serve.Server.Rejected _ | Serve.Server.Timed_out ->
          Printf.eprintf "overload: storm request rejected/timed out under frozen clock\n";
          exit 1)
    wave2;
  Serve.Server.shutdown s;
  let st = Serve.Server.stats s in
  let poisons_a = counter "fault.poison_requests" in
  let faults_obj =
    Printf.sprintf "{\"poison_requests\":%d,\"resource_exhausted\":%d}" poisons_a
      (counter "fault.resource_exhausted")
  in
  let outcomes_obj = Obs.Json.to_string (Serve.Stats.snapshot_to_json st) in
  let denom = st.Serve.Stats.s_submitted - st.Serve.Stats.s_shed - st.Serve.Stats.s_quarantined in
  let goodput = if denom <= 0 then 1.0 else float_of_int st.Serve.Stats.s_done /. float_of_int denom in
  let innocent = st.Serve.Stats.s_failed - poisons_a in
  if not (Serve.Stats.conserved st) then begin
    Printf.eprintf "overload: accounting violated\n";
    exit 1
  end;
  if st.Serve.Stats.s_shed = 0 then begin
    Printf.eprintf "overload: storm shed nothing — not an overload\n";
    exit 1
  end;
  if goodput < 0.8 then begin
    Printf.eprintf "overload: goodput %.3f below 0.8\n" goodput;
    exit 1
  end;
  if innocent <> 0 then begin
    Printf.eprintf "overload: %d non-poisoned request(s) failed\n" innocent;
    exit 1
  end;
  if st.Serve.Stats.s_admitted <> st.Serve.Stats.s_done + st.Serve.Stats.s_failed then begin
    Printf.eprintf "overload: shed/quarantined requests leaked into the queue\n";
    exit 1
  end;
  (* -- Phase B: bisection probe ------------------------------------- *)
  (* Scan for a seed whose poison draws hit exactly one of the three
     request streams, so the probe's verdict is known a priori. *)
  let probe_rate = 0.4 in
  let probe_seed =
    let draws s =
      let p =
        Fault.Plan.make
          ~rates:{ Fault.Plan.zero_rates with Fault.Plan.poison_request = probe_rate }
          ~seed:s ()
      in
      List.filter (fun i -> Fault.Plan.poisoned p ~request:i) [ 0; 1; 2 ]
    in
    let rec find s = if List.length (draws s) = 1 then s else find (s + 1) in
    find 1
  in
  let plan_b =
    Fault.Plan.make
      ~rates:{ Fault.Plan.zero_rates with Fault.Plan.poison_request = probe_rate }
      ~seed:probe_seed ()
  in
  let cfg_b =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = 8;
      clock = frozen;
      fault_plan = Some plan_b;
      shapes = Runtime.Shape_class.Pow2;
    }
  in
  let isolated0 = counter "batch.isolated" and bisections0 = counter "batch.bisections" in
  let sb = Serve.Server.start ~cache:(Runtime.Plan_cache.create ()) ~config:cfg_b () in
  let fam r = one "probe-ln" (Ir.Models.layernorm_graph ~m:r ~n:64) in
  (* 5 + 6 + 5 = 16 = the (4,8] class's batch cap. All three are queued
     before the lone worker pops the first, which takes the other two
     from the backlog into its batch. *)
  Serve.Server.pause sb;
  let probe_tickets = List.map (fun r -> Serve.Server.submit sb ~arch backend (fam r)) [ 5; 6; 5 ] in
  Serve.Server.resume sb;
  let probe_done = ref 0 and probe_failed = ref 0 in
  List.iter
    (fun tk ->
      match Serve.Server.await tk with
      | Serve.Server.Done _ -> incr probe_done
      | Serve.Server.Failed _ -> incr probe_failed
      | _ ->
          Printf.eprintf "overload: probe request neither served nor failed\n";
          exit 1)
    probe_tickets;
  Serve.Server.shutdown sb;
  let isolated = counter "batch.isolated" - isolated0 in
  if !probe_done <> 2 || !probe_failed <> 1 || isolated <> 1
     || counter "batch.bisections" - bisections0 < 1
  then begin
    Printf.eprintf
      "overload: bisection probe expected 2 served / 1 isolated, got %d served %d failed %d \
       isolated\n"
      !probe_done !probe_failed isolated;
    exit 1
  end;
  (* -- Phase C: memory budget --------------------------------------- *)
  let trips0 = counter "arena.budget_trips" in
  let cfg_c =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = 16;
      clock = frozen;
      arena_budget_bytes = Some 1024;
    }
  in
  let sc = Serve.Server.start ~cache:(Runtime.Plan_cache.create ()) ~config:cfg_c () in
  let n3 = 8 in
  let budget_tickets = List.init n3 (fun i -> Serve.Server.submit sc ~arch backend (nth_model i)) in
  List.iter
    (fun tk ->
      match Serve.Server.await tk with
      | Serve.Server.Done _ -> ()
      | _ ->
          Printf.eprintf "overload: budgeted request not served from the relief path\n";
          exit 1)
    budget_tickets;
  let cap_shift = Serve.Server.batch_cap_shift sc in
  Serve.Server.shutdown sc;
  let budget_trips = counter "arena.budget_trips" - trips0 in
  if budget_trips < 1 || cap_shift < 1 then begin
    Printf.eprintf "overload: %dB budget tripped %d time(s), cap shift %d — budget never bit\n"
      1024 budget_trips cap_shift;
    exit 1
  end;
  (* -- Phase D: quarantine ------------------------------------------ *)
  let plan_d =
    Fault.Plan.make
      ~rates:{ Fault.Plan.zero_rates with Fault.Plan.poison_request = 1.0 }
      ~seed ()
  in
  let cfg_d =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = 8;
      clock = frozen;
      fault_plan = Some plan_d;
      quarantine_threshold = 3;
    }
  in
  let sd = Serve.Server.start ~cache:(Runtime.Plan_cache.create ()) ~config:cfg_d () in
  let q_failed = ref 0 and q_quarantined = ref 0 in
  for _ = 1 to 5 do
    match Serve.Server.await (Serve.Server.submit sd ~arch backend (List.hd models)) with
    | Serve.Server.Failed _ -> incr q_failed
    | Serve.Server.Quarantined -> incr q_quarantined
    | _ ->
        Printf.eprintf "overload: all-poison request neither failed nor quarantined\n";
        exit 1
  done;
  Serve.Server.shutdown sd;
  if !q_failed <> 3 || !q_quarantined <> 2 then begin
    Printf.eprintf "overload: quarantine expected 3 offenses then 2 quarantined, got %d/%d\n"
      !q_failed !q_quarantined;
    exit 1
  end;
  Printf.printf
    "{\"experiment\":\"overload\",\"quick\":%b,\"seed\":%d,\"poison_rate\":%g,\"wave1\":%d,\"wave2\":%d,\"deadline_s\":%.9f,\"outcomes\":%s,\"faults\":%s,\"goodput_under_overload\":%.4f,\"innocent_failures\":%d,\"probe\":{\"seed\":%d,\"served\":%d,\"failed\":%d,\"isolated\":%d},\"budget\":{\"bytes\":1024,\"trips\":%d,\"cap_shift\":%d},\"quarantine\":{\"offenses\":%d,\"quarantined\":%d}}\n"
    !quick seed poison (List.length models) n2 deadline_s outcomes_obj faults_obj goodput
    innocent probe_seed !probe_done !probe_failed isolated budget_trips cap_shift !q_failed
    !q_quarantined

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig11a", "Fused MLP layers (Fig 11a)", fig11a);
    ("fig11b", "Fused LSTM cell (Fig 11b)", fig11b);
    ("fig12", "Fused LayerNorm (Fig 12)", fig12);
    ("fig13", "Fused MHA (Fig 13)", fig13);
    ("fig14", "End-to-end models (Fig 14)", fig14);
    ("fig15", "Memory & cache analysis (Fig 15)", fig15);
    ("fig16a", "Ablation (Fig 16a)", fig16a);
    ("fig16b", "Input-size sensitivity (Fig 16b)", fig16b);
    ("fig16c", "Architecture sensitivity (Fig 16c)", fig16c);
    ("tab4", "Compile-time breakdown (Table 4)", tab4);
    ("tab5", "Model compile time (Table 5)", tab5);
    ("tab6", "Fusion-pattern census (Table 6)", tab6);
    ("ablate", "Design-choice ablations (early-quit α, buffer pooling)", ablate);
    ("batch", "Continuous batching: mixed-shape storm at 10x vs exact baseline (JSON)", batch_bench);
    ("shard", "Multi-device sharding: node scaling + fleet-death soak (JSON)", shard_bench);
    ("overload", "Overload control: shedding, batch bisection, memory budgets, quarantine (JSON)", overload);
    ("verify", "Differential verification: fuzz + seeded-defect corpus gate (JSON)", verify);
  ]

let () =
  let only = ref [] in
  let list_only = ref false in
  let telemetry = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--only" :: id :: rest ->
        only := id :: !only;
        parse rest
    | "--telemetry" :: dir :: rest ->
        telemetry := Some dir;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then
    List.iter (fun (id, desc, _) -> Printf.printf "%-10s %s\n" id desc) experiments
  else begin
    let selected =
      if !only = [] then experiments
      else
        List.filter (fun (id, _, _) -> List.mem id !only) experiments
    in
    if selected = [] then begin
      Printf.eprintf "no matching experiment; use --list\n";
      exit 2
    end;
    let t_start = Unix.gettimeofday () in
    List.iter
      (fun (id, desc, f) ->
        Printf.printf "\n==================== %s: %s ====================\n" id desc;
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "[%s done in %.1f s]\n%!" id (Unix.gettimeofday () -. t0))
      selected;
    match !telemetry with
    | None -> ()
    | Some dir ->
        (* One row per bench invocation: whatever the selected experiments
           left in the metrics registry, plus the wall time, labelled by
           the experiment set so `spacefusion query` can filter. *)
        let t = Store.Telemetry.open_ dir in
        let label =
          match !only with
          | [] -> "all"
          | ids -> String.concat "+" (List.sort compare ids)
        in
        let cols =
          Store.Telemetry.metrics_columns ()
          @ [ ("bench.elapsed_s", Unix.gettimeofday () -. t_start) ]
        in
        let seq = Store.Telemetry.record t ~kind:"bench" ~label cols in
        Printf.printf "[telemetry: recorded bench run %d in %s]\n%!" seq dir
  end
