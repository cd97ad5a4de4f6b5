(* Tests for the SpaceFusion core: fused-space inference, SMG construction,
   Table-3 analysis, broadcast postposition, update-function generation,
   scheduling, lowering and the full compile→execute pipeline checked
   against the reference interpreter. *)

open Core
module G = Ir.Graph
module Op = Ir.Op

let arch = Gpu.Arch.ampere

(* Compile a graph and execute the plan functionally; compare every output
   against the reference interpreter. *)
let compile_run_check ?variant ?(seed = 42) ~name g =
  let compiled = Spacefusion.compile ?variant ~arch ~name g in
  let env = Ir.Interp.random_env ~seed g in
  let expected = Ir.Interp.eval g env in
  let device = Gpu.Device.create () in
  Gpu.Plan.declare_all compiled.Spacefusion.c_plan device;
  List.iter (fun (n, t) -> Gpu.Device.bind device n t) env;
  List.iter
    (fun k -> ignore (Gpu.Exec.run ~arch device k))
    compiled.Spacefusion.c_plan.Gpu.Plan.p_kernels;
  List.iteri
    (fun i expect ->
      let actual = Gpu.Device.tensor device (Printf.sprintf "%s:out%d" name i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s output %d matches reference (max diff %g)" name i
           (Tensor.max_abs_diff expect actual))
        true
        (Tensor.allclose ~rtol:1e-6 ~atol:1e-8 expect actual))
    expected;
  compiled

(* ------------------------------------------------------------------ *)
(* Fused space inference                                               *)
(* ------------------------------------------------------------------ *)

let test_fusedspace_gemm () =
  let g = G.create () in
  let q = G.input g "q" [| 8; 16 |] in
  let k = G.input g "k" [| 4; 16 |] in
  let qk = G.matmul g ~trans_b:true q k in
  G.mark_output g qk;
  let fs = Fusedspace.infer g in
  Alcotest.(check int) "three dims (M,N,K)" 3 (Fusedspace.num_dims fs);
  Alcotest.(check (list int)) "qk has M,N" (Fusedspace.node_dims fs qk)
    (List.sort compare (Fusedspace.node_dims fs qk));
  Alcotest.(check int) "iter space is 3-dim" 3 (List.length (Fusedspace.iter_dims fs qk));
  (* q and k share the contraction dim. *)
  let kd = Option.get (Fusedspace.contraction_dim fs qk) in
  Alcotest.(check bool) "contraction in q" true (List.mem kd (Fusedspace.node_dims fs q));
  Alcotest.(check bool) "contraction in k" true (List.mem kd (Fusedspace.node_dims fs k))

let test_fusedspace_mha_dims () =
  let g = Ir.Models.mha ~batch_heads:4 ~seq_q:8 ~seq_kv:8 ~head_dim:16 () in
  let fs = Fusedspace.infer g in
  (* B, M(seq_q), N(seq_kv), K(head dim of q/k), K2(head dim of v/out). *)
  Alcotest.(check int) "five dims" 5 (Fusedspace.num_dims fs);
  Alcotest.(check bool) "seq_q and seq_kv stay distinct despite equal extents" true
    (let q = List.find (fun (n : G.node) -> n.kind = G.Input "q") (G.nodes g) in
     let k = List.find (fun (n : G.node) -> n.kind = G.Input "k") (G.nodes g) in
     Fusedspace.axis_dim fs q.id 1 <> Fusedspace.axis_dim fs k.id 1)

let test_fusedspace_broadcast () =
  let g = G.create () in
  let x = G.input g "x" [| 4; 8 |] in
  let b = G.weight g "b" [| 8 |] in
  let y = G.binary g Op.Add x b in
  G.mark_output g y;
  let fs = Fusedspace.infer g in
  Alcotest.(check int) "two dims" 2 (Fusedspace.num_dims fs);
  Alcotest.(check int) "bias has one dim" 1 (List.length (Fusedspace.node_dims fs b))

let test_fusedspace_extent_conflict () =
  let g = G.create () in
  let a = G.input g "a" [| 4; 8 |] in
  (* reduce to [4], then treat as an 8-vector via broadcastable op: can't
     construct a conflict through the typed API, so check keepdims axes
     carry no dim instead. *)
  let r = G.reduce g Op.Rmax ~keepdims:true ~axis:1 a in
  G.mark_output g r;
  let fs = Fusedspace.infer g in
  Alcotest.(check (option int)) "keepdims axis has no dim" None (Fusedspace.axis_dim fs r 1)

(* ------------------------------------------------------------------ *)
(* SMG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_smg_gemm () =
  let g = Ir.Models.softmax_gemm ~m:8 ~l:16 ~n:4 in
  let smg = Smg.build g in
  (* Fig 1 bookkeeping: softmax contributes 2 A2O (max, sum), GEMM 1. *)
  Alcotest.(check int) "three All-to-Ones" 3 (Smg.num_a2o smg);
  let inputs = List.filter (Smg.is_input_space smg) (Smg.spaces smg) in
  Alcotest.(check bool) "x and v are input spaces" true (List.length inputs >= 2)

let test_smg_mha_mapping_census () =
  let g = Ir.Models.mha ~batch_heads:2 ~seq_q:8 ~seq_kv:8 ~head_dim:4 () in
  let smg = Smg.build g in
  (* §2: MHA has 4 All-to-Ones (GEMM1, max, sum, GEMM2). *)
  Alcotest.(check int) "four All-to-Ones" 4 (Smg.num_a2o smg)

(* ------------------------------------------------------------------ *)
(* Analysis (Table 3)                                                  *)
(* ------------------------------------------------------------------ *)

let mha_smg () =
  Smg.build (Ir.Models.mha ~batch_heads:2 ~seq_q:16 ~seq_kv:32 ~head_dim:8 ())

let test_spatial_dims_mha () =
  let smg = mha_smg () in
  let fs = Smg.fused smg in
  let spatial = Analysis.spatial_dims smg in
  let extents = List.sort compare (List.map (Fusedspace.dim_extent fs) spatial) in
  (* Only the batch-heads (2) and seq_q (16) dims are spatially sliceable. *)
  Alcotest.(check (list int)) "spatial dims = {bh, seq_q}" [ 2; 16 ] extents;
  let temporal = Analysis.temporal_candidates smg ~spatial in
  (* seq_kv, the qk contraction and the v feature dim remain; seq_kv has the
     largest on-chip data volume so it leads the priority order. *)
  Alcotest.(check int) "three temporal candidates" 3 (List.length temporal);
  Alcotest.(check int) "priority temporal dim is seq_kv" 32
    (Fusedspace.dim_extent fs (List.hd temporal))

let test_spatial_dims_layernorm () =
  let smg = Smg.build (Ir.Models.layernorm_graph ~m:64 ~n:128) in
  let fs = Smg.fused smg in
  let spatial = Analysis.spatial_dims smg in
  Alcotest.(check (list int)) "rows only" [ 64 ]
    (List.map (Fusedspace.dim_extent fs) spatial)

let test_a2o_classification () =
  let smg = mha_smg () in
  let spatial = Analysis.spatial_dims smg in
  let t = List.hd (Analysis.temporal_candidates smg ~spatial) in
  (match Analysis.classify_a2o smg ~dim:t with
  | Analysis.Dependent reducers -> Alcotest.(check int) "max<-sum<-gemm chain" 3 (List.length reducers)
  | _ -> Alcotest.fail "expected dependent A2O chain");
  Alcotest.(check bool) "MHA output does not force two passes" false
    (Analysis.output_depends_on_dim_reduction smg ~dim:t)

let test_two_pass_layernorm () =
  let smg = Smg.build (Ir.Models.layernorm_graph ~m:16 ~n:64) in
  let spatial = Analysis.spatial_dims smg in
  let t = List.hd (Analysis.temporal_candidates smg ~spatial) in
  Alcotest.(check bool) "LN output needs two passes" true
    (Analysis.output_depends_on_dim_reduction smg ~dim:t)

(* ------------------------------------------------------------------ *)
(* Postposition & update functions                                     *)
(* ------------------------------------------------------------------ *)

let test_postposition_exp () =
  (* exp(x - s) rewrites to exp x / exp s. *)
  let e =
    Pexpr.EUn (Op.Exp, Pexpr.EBin (Op.Sub, Pexpr.EIn (0, false), Pexpr.EScal 1))
  in
  match Pexpr.rewrite ~extent:8 e with
  | Pexpr.EBin (Op.Div, Pexpr.EUn (Op.Exp, _), Pexpr.EUn (Op.Exp, Pexpr.EScal 1)) -> ()
  | e' -> Alcotest.failf "unexpected rewrite: %s" (Pexpr.to_string e')

let test_update_fn_mha () =
  let smg = mha_smg () in
  let spatial = Analysis.spatial_dims smg in
  let t = List.hd (Analysis.temporal_candidates smg ~spatial) in
  match Update_fn.analyze smg ~dim:t with
  | None -> Alcotest.fail "MHA chain must be temporally sliceable"
  | Some plan ->
      Alcotest.(check bool) "single pass" false plan.Update_fn.two_pass;
      Alcotest.(check int) "three maintained reductions" 3 (List.length plan.Update_fn.reductions);
      let kinds =
        List.map
          (fun (_, rp) ->
            match rp with
            | Update_fn.RMax -> "max"
            | Update_fn.RUta f ->
                Printf.sprintf "uta/%d"
                  (List.length
                     (List.filter
                        (fun (a, _) -> match a with Pexpr.AConst _ -> false | _ -> true)
                        f))
            | Update_fn.RMin -> "min"
            | Update_fn.RRaw _ -> "raw")
          plan.Update_fn.reductions
      in
      (* The paper's Fig 8: Sum updates by exp(Max_old)/exp(Max) (1 atom);
         Out updates by Sum_old/Sum * exp(Max_old)/exp(Max) (2 atoms). *)
      Alcotest.(check (list string)) "max, updateSum, updateOut" [ "max"; "uta/1"; "uta/2" ] kinds

let test_update_fn_layernorm () =
  let smg = Smg.build (Ir.Models.layernorm_graph ~m:16 ~n:64) in
  let spatial = Analysis.spatial_dims smg in
  let t = List.hd (Analysis.temporal_candidates smg ~spatial) in
  match Update_fn.analyze smg ~dim:t with
  | None -> Alcotest.fail "LN must be temporally sliceable"
  | Some plan ->
      Alcotest.(check bool) "two passes" true plan.Update_fn.two_pass;
      let has_raw =
        List.exists
          (fun (_, rp) -> match rp with Update_fn.RRaw _ -> true | _ -> false)
          plan.Update_fn.reductions
      in
      (* Variance decomposes into raw Σx and Σx² (E[x²]−mean² form). *)
      Alcotest.(check bool) "variance is raw-aggregated" true has_raw

(* ------------------------------------------------------------------ *)
(* Schedules & configurations                                          *)
(* ------------------------------------------------------------------ *)

let test_schedule_classification () =
  let smg = mha_smg () in
  let spatial = Analysis.spatial_dims smg in
  let t = List.hd (Analysis.temporal_candidates smg ~spatial) in
  let plan = Option.get (Update_fn.analyze smg ~dim:t) in
  let sched = Schedule.make smg ~spatial ~temporal:(Some plan) in
  (* The batch-heads dim leads tensors, so it cannot be tiled; seq_q can. *)
  let fs = Smg.fused smg in
  Alcotest.(check (list int)) "batch dims" [ 2 ]
    (List.map (Fusedspace.dim_extent fs) sched.Schedule.batch_dims);
  Alcotest.(check (list int)) "tiled dims" [ 16 ]
    (List.map (Fusedspace.dim_extent fs) sched.Schedule.tiled_dims);
  Alcotest.(check int) "two inner dims (qk contraction, v features)" 2
    (List.length sched.Schedule.inner_dims)

let test_cfg_enumeration () =
  let smg = mha_smg () in
  let spatial = Analysis.spatial_dims smg in
  let sched = Schedule.make smg ~spatial ~temporal:None in
  let cfgs = Schedule.enum_cfgs sched in
  Alcotest.(check bool) "non-empty" true (cfgs <> []);
  (* All block sizes stay within the dim extents. *)
  let fs = Smg.fused smg in
  List.iter
    (fun (cfg : Schedule.cfg) ->
      List.iter
        (fun (d, b) ->
          Alcotest.(check bool) "block <= extent" true (b <= Fusedspace.dim_extent fs d))
        cfg.Schedule.blocks;
      Alcotest.(check (option int)) "no tile without temporal" None cfg.Schedule.tile)
    cfgs

let test_output_names () =
  let g = Ir.Models.qkv_proj ~m:8 ~hidden:16 in
  let c = Spacefusion.compile ~arch ~name:"names" g in
  Alcotest.(check (list string)) "three published outputs"
    [ "names:out0"; "names:out1"; "names:out2" ]
    (Spacefusion.output_names c)

let test_smg_consistency_guard () =
  (* Reusing a GEMM input element-wise after the GEMM with a square weight
     aliases k with an output dim; the SMG must be flagged inconsistent. *)
  let g = G.create () in
  let x = G.input g "x" [| 5; 4 |] in
  let w = G.weight g "w" [| 4; 4 |] in
  let y = G.matmul g ~trans_b:true x w in
  G.mark_output g (G.binary g Op.Add y x);
  Alcotest.(check bool) "inconsistent fused space" false (Smg.consistent (Smg.build g));
  (* A fresh weight of distinct width keeps dims apart. *)
  let g2 = G.create () in
  let x2 = G.input g2 "x" [| 5; 4 |] in
  let w2 = G.weight g2 "w" [| 6; 4 |] in
  G.mark_output g2 (G.matmul g2 ~trans_b:true x2 w2);
  Alcotest.(check bool) "consistent fused space" true (Smg.consistent (Smg.build g2))

(* ------------------------------------------------------------------ *)
(* Compile & execute vs reference                                      *)
(* ------------------------------------------------------------------ *)

let test_run_softmax_gemm () =
  let g = Ir.Models.softmax_gemm ~m:24 ~l:48 ~n:16 in
  let c = compile_run_check ~name:"sg" g in
  Alcotest.(check int) "fused into one kernel" 1 (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_mha () =
  let g = Ir.Models.mha ~batch_heads:3 ~seq_q:20 ~seq_kv:36 ~head_dim:8 () in
  let c = compile_run_check ~name:"mha" g in
  Alcotest.(check int) "fused into one kernel" 1 (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_mha_causal () =
  let g = Ir.Models.mha ~causal:true ~batch_heads:2 ~seq_q:16 ~seq_kv:16 ~head_dim:8 () in
  ignore (compile_run_check ~name:"mhac" g)

let test_run_layernorm () =
  let g = Ir.Models.layernorm_graph ~m:16 ~n:96 in
  let c = compile_run_check ~name:"ln" g in
  Alcotest.(check int) "fused into one kernel" 1 (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_rmsnorm () =
  let g = Ir.Models.rmsnorm_graph ~m:12 ~n:80 in
  ignore (compile_run_check ~name:"rms" g)

let test_run_batchnorm () =
  (* Column-direction statistics: spatial slicing flips to the feature dim
     and the temporal loop streams the batch axis. *)
  let g = Ir.Models.batchnorm_graph ~m:96 ~n:20 in
  let c = compile_run_check ~name:"bn" g in
  Alcotest.(check int) "fused into one kernel" 1 (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_batchnorm_colreduce () =
  (* The batch-axis statistics lower to column-direction reductions. *)
  let g = Ir.Models.batchnorm_graph ~m:512 ~n:64 in
  let compiled = Spacefusion.compile ~arch ~name:"bnt" g in
  let has_colreduce =
    List.exists
      (fun (k : Gpu.Kernel.t) ->
        List.exists
          (function Gpu.Kernel.ColReduce _ -> true | _ -> false)
          (List.concat_map
             (function Gpu.Kernel.Once is | Gpu.Kernel.ForEachStep is -> is)
             k.stages))
      compiled.Spacefusion.c_plan.Gpu.Plan.p_kernels
  in
  Alcotest.(check bool) "uses ColReduce" true has_colreduce

let test_run_softmax () =
  let g = Ir.Models.softmax_graph ~m:20 ~n:50 in
  ignore (compile_run_check ~name:"sm" g)

let test_run_mlp () =
  let g = Ir.Models.mlp ~layers:3 ~m:32 ~n:24 ~k:16 in
  let c = compile_run_check ~name:"mlp" g in
  Alcotest.(check int) "three layers fuse into one kernel" 1
    (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_lstm () =
  let g = Ir.Models.lstm_cell ~m:16 ~hidden:24 ~input:12 in
  let c = compile_run_check ~name:"lstm" g in
  Alcotest.(check int) "lstm cell fuses into one kernel" 1
    (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_qkv_fused () =
  (* Three projections sharing an input fuse into one split-K style kernel
     that streams the activation once. *)
  let g = Ir.Models.qkv_proj ~m:64 ~hidden:256 in
  let c = compile_run_check ~name:"qkv" g in
  Alcotest.(check int) "one fused kernel" 1 (Gpu.Plan.num_kernels c.Spacefusion.c_plan)

let test_run_partitioning () =
  (* Two chained LayerNorms over a huge row: the second norm's reductions
     depend on the first norm's raw-aggregated variance, so no temporal dim
     simplifies, the row does not fit on chip, and Algorithm 2 must split
     the fusion group into two kernels. *)
  let g = G.create () in
  let x = G.input g "x" [| 4; 65536 |] in
  let mk tag v =
    let eps = G.const g 1e-5 in
    let mu = G.reduce g Op.Rmean ~keepdims:true ~axis:1 v in
    let centered = G.binary g Op.Sub v mu in
    let var = G.reduce g Op.Rmean ~keepdims:true ~axis:1 (G.unary g Op.Sqr centered) in
    let std = G.unary g Op.Sqrt (G.binary g Op.Add var eps) in
    ignore tag;
    G.binary g Op.Div centered std
  in
  G.mark_output g (mk "b" (mk "a" x));
  let c = compile_run_check ~name:"lnln" g in
  Alcotest.(check bool) "partitioned into several kernels" true
    (Gpu.Plan.num_kernels c.Spacefusion.c_plan > 1);
  Alcotest.(check bool) "partition rounds recorded" true
    (c.Spacefusion.c_stats.Cstats.n_partitions > 0)

let test_run_ffn_ln () =
  let g = Ir.Models.ffn_ln ~m:24 ~hidden:32 ~ffn:48 ~act:`Gelu ~norm:`Layernorm in
  ignore (compile_run_check ~name:"ffn" g)

let test_run_swiglu () =
  let g = Ir.Models.swiglu_ffn ~m:16 ~hidden:24 ~ffn:40 in
  ignore (compile_run_check ~name:"swiglu" g)

let test_variants_agree () =
  (* Every ablation variant must still compute correct results. *)
  let g = Ir.Models.mha ~batch_heads:2 ~seq_q:16 ~seq_kv:24 ~head_dim:8 () in
  List.iter
    (fun (vn, variant) -> ignore (compile_run_check ~variant ~name:("v_" ^ vn) g))
    [
      ("ss", Auto_scheduler.base_ss);
      ("as", Auto_scheduler.base_as);
      ("ts", Auto_scheduler.base_ts);
      ("full", Auto_scheduler.full);
    ]

let test_resource_respected () =
  (* Every kernel SpaceFusion emits fits the architecture budgets. *)
  let g = Ir.Models.mha ~batch_heads:2 ~seq_q:64 ~seq_kv:512 ~head_dim:64 () in
  let c = Spacefusion.compile ~arch ~name:"big" g in
  List.iter
    (fun k ->
      Alcotest.(check bool) "smem within budget" true
        (Gpu.Kernel.smem_bytes k <= arch.Gpu.Arch.smem_per_block))
    c.Spacefusion.c_plan.Gpu.Plan.p_kernels

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_mha_fused_matches_reference =
  QCheck.Test.make ~name:"fused MHA == reference softmax(QKᵀ)V" ~count:12
    QCheck.(quad (int_range 1 3) (int_range 2 24) (int_range 2 40) (int_range 1 12))
    (fun (bh, sq, skv, hd) ->
      let g = Ir.Models.mha ~batch_heads:bh ~seq_q:sq ~seq_kv:skv ~head_dim:hd () in
      let name = Printf.sprintf "p%d_%d_%d_%d" bh sq skv hd in
      let c = Spacefusion.compile ~arch ~name g in
      let env = Ir.Interp.random_env ~seed:(bh + sq + skv + hd) g in
      let expected = List.hd (Ir.Interp.eval g env) in
      let device = Gpu.Device.create () in
      Gpu.Plan.declare_all c.Spacefusion.c_plan device;
      List.iter (fun (n, t) -> Gpu.Device.bind device n t) env;
      List.iter (fun k -> ignore (Gpu.Exec.run ~arch device k)) c.Spacefusion.c_plan.Gpu.Plan.p_kernels;
      Tensor.allclose ~rtol:1e-6 ~atol:1e-8 expected (Gpu.Device.tensor device (name ^ ":out0")))

let prop_schedules_fit_budget =
  QCheck.Test.make ~name:"every feasible cfg fits the smem budget" ~count:12
    QCheck.(pair (int_range 8 64) (int_range 16 256))
    (fun (m, n) ->
      let g = Ir.Models.layernorm_graph ~m ~n in
      let smg = Smg.build g in
      let tensor_of = Spacefusion.tensor_name ~name:"p" g in
      let scheds = Auto_scheduler.run arch smg ~name:"p" ~tensor_of in
      List.for_all
        (fun { Auto_scheduler.schedule; cfgs } ->
          List.for_all
            (fun (cfg, k) ->
              Gpu.Kernel.smem_bytes k <= arch.Gpu.Arch.smem_per_block
              && Auto_scheduler.feasible arch schedule cfg ~name:"p" ~tensor_of <> None)
            cfgs)
        scheds)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_mha_fused_matches_reference; prop_schedules_fit_budget ]

(* [Parallel.tabulate] on the main domain evaluates every index before it
   returns and re-raises an index's exception only when that index is
   asked for; with one job, or off the main domain, it is [f] itself.
   With [stop], indices it never started are evaluated when asked, so
   each index still runs exactly once. *)
let test_tabulate () =
  let evaluated = Atomic.make 0 in
  let f i =
    Atomic.incr evaluated;
    if i = 3 then failwith "three" else i * i
  in
  let lookup = Core.Parallel.tabulate ~jobs:4 8 f in
  Alcotest.(check int) "every index evaluated up front" 8 (Atomic.get evaluated);
  List.iter (fun i -> Alcotest.(check int) (Printf.sprintf "index %d" i) (i * i) (lookup i)) [ 0; 7; 2 ];
  Alcotest.check_raises "index 3 raises when asked" (Failure "three") (fun () -> ignore (lookup 3));
  Alcotest.(check int) "lookups evaluate nothing" 8 (Atomic.get evaluated);
  Alcotest.(check bool) "one job is f" true (Core.Parallel.tabulate ~jobs:1 8 f == f);
  Alcotest.(check bool) "off the main domain is f" true
    (Domain.join (Domain.spawn (fun () -> Core.Parallel.tabulate ~jobs:4 8 f == f)));
  Alcotest.(check int) "neither evaluates" 8 (Atomic.get evaluated);
  Atomic.set evaluated 0;
  let lookup = Core.Parallel.tabulate ~stop:(fun v -> v = 4) ~jobs:2 8 f in
  List.iter
    (fun i ->
      if i = 3 then Alcotest.check_raises "index 3 still raises" (Failure "three") (fun () -> ignore (lookup i))
      else Alcotest.(check int) (Printf.sprintf "stopped, index %d" i) (i * i) (lookup i))
    (List.init 8 Fun.id);
  Alcotest.(check int) "each index evaluated once" 8 (Atomic.get evaluated)

let () =
  Alcotest.run "core"
    [
      ( "fusedspace",
        [
          Alcotest.test_case "gemm dims" `Quick test_fusedspace_gemm;
          Alcotest.test_case "mha dims" `Quick test_fusedspace_mha_dims;
          Alcotest.test_case "broadcast dims" `Quick test_fusedspace_broadcast;
          Alcotest.test_case "keepdims axes" `Quick test_fusedspace_extent_conflict;
        ] );
      ( "smg",
        [
          Alcotest.test_case "softmax-gemm census" `Quick test_smg_gemm;
          Alcotest.test_case "mha census" `Quick test_smg_mha_mapping_census;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "mha spatial/temporal dims" `Quick test_spatial_dims_mha;
          Alcotest.test_case "layernorm spatial dims" `Quick test_spatial_dims_layernorm;
          Alcotest.test_case "a2o chain" `Quick test_a2o_classification;
          Alcotest.test_case "two-pass detection" `Quick test_two_pass_layernorm;
        ] );
      ( "update_fn",
        [
          Alcotest.test_case "exp postposition" `Quick test_postposition_exp;
          Alcotest.test_case "mha update functions" `Quick test_update_fn_mha;
          Alcotest.test_case "layernorm raw fallback" `Quick test_update_fn_layernorm;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "dim classification" `Quick test_schedule_classification;
          Alcotest.test_case "cfg enumeration" `Quick test_cfg_enumeration;
          Alcotest.test_case "output names" `Quick test_output_names;
          Alcotest.test_case "consistency guard" `Quick test_smg_consistency_guard;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "softmax-gemm" `Quick test_run_softmax_gemm;
          Alcotest.test_case "mha" `Quick test_run_mha;
          Alcotest.test_case "mha causal" `Quick test_run_mha_causal;
          Alcotest.test_case "layernorm" `Quick test_run_layernorm;
          Alcotest.test_case "rmsnorm" `Quick test_run_rmsnorm;
          Alcotest.test_case "batchnorm" `Quick test_run_batchnorm;
          Alcotest.test_case "batchnorm colreduce" `Quick test_run_batchnorm_colreduce;
          Alcotest.test_case "softmax" `Quick test_run_softmax;
          Alcotest.test_case "mlp" `Quick test_run_mlp;
          Alcotest.test_case "lstm" `Quick test_run_lstm;
          Alcotest.test_case "qkv split-k fusion" `Quick test_run_qkv_fused;
          Alcotest.test_case "partitioning" `Quick test_run_partitioning;
          Alcotest.test_case "ffn+ln" `Quick test_run_ffn_ln;
          Alcotest.test_case "swiglu" `Quick test_run_swiglu;
          Alcotest.test_case "ablation variants correct" `Quick test_variants_agree;
          Alcotest.test_case "resource budgets respected" `Quick test_resource_respected;
        ] );
      ("parallel", [ Alcotest.test_case "tabulate" `Quick test_tabulate ]);
      ("properties", props);
    ]
