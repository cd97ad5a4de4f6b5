(* Determinism and pruning tests for the auto-tuner:

   - compiles at one and at four jobs pick identical (schedule, cfg,
     cost), build identical plans (kernel names included), simulate to
     identical run times and cost and prune the same candidates, on every
     model x architecture pair;
   - a compile's phase times fit inside its total, and repeated compiles
     cost and prune exactly the same candidates;
   - pruned and unpruned [Tuner.pick_best] select the same candidate, and
     pruning genuinely skips work (nonzero [n_early_quit]);
   - the analytic pruning bound never exceeds the true lowered cost;
   - [Schedule.enum_cfgs] is duplicate-free (the tie-break contract);
   - [Tuner.kernel_cost] does not depend on tensor names;
   - a compile tunes each sub-graph structure once: repeated chains cost
     the same candidates at any copy count, plans equal recorded digests,
     costed + pruned + reused is conserved, and every kernel choice equals
     a fresh tune under its own names. *)

module G = Ir.Graph
module SF = Core.Spacefusion

let archs =
  [ ("volta", Gpu.Arch.volta); ("ampere", Gpu.Arch.ampere); ("hopper", Gpu.Arch.hopper) ]

let models () =
  [
    ("mlp", Ir.Models.mlp ~layers:2 ~m:128 ~n:64 ~k:64);
    ("lstm", Ir.Models.lstm_cell ~m:64 ~hidden:64 ~input:64);
    ("layernorm", Ir.Models.layernorm_graph ~m:128 ~n:128);
    ("softmax_gemm", Ir.Models.softmax_gemm ~m:64 ~l:64 ~n:64);
    ("mha", Ir.Models.mha ~batch_heads:8 ~seq_q:64 ~seq_kv:64 ~head_dim:32 ());
    ("chains", Ir.Models.independent_chains ~copies:3 ~m:64 ~n:64 ());
  ]

let signature (c : SF.compiled) =
  String.concat ";"
    (List.map
       (fun (kc : SF.kernel_choice) ->
         Printf.sprintf "%s|%s|%.12e"
           (Core.Schedule.describe kc.kc_schedule)
           (Core.Schedule.cfg_to_string kc.kc_cfg)
           kc.kc_cost)
       c.SF.c_choices)

let sim_time arch (c : SF.compiled) =
  let device = Gpu.Device.create () in
  (Runtime.Runner.run_plan ~arch ~dispatch_us:3.0 device c.SF.c_plan)
    .Runtime.Exec_stats.x_time

let test_compile_accounting_exact () =
  (* Compile phases run one after another on the calling domain (helper
     domains only compute costs inside the tuning phase), so their times
     cannot overlap and must fit inside the total. *)
  List.iter
    (fun (copies, n) ->
      let g = Ir.Models.independent_chains ~copies ~m:n ~n () in
      let s = (SF.compile ~arch:Gpu.Arch.ampere ~name:"chains" g).SF.c_stats in
      let phases = s.Core.Cstats.t_ss +. s.t_ts +. s.t_enum +. s.t_tune in
      if phases > s.t_total then
        Alcotest.failf "chains %dx%d: phases sum to %.6f s, over the %.6f s total" copies n phases
          s.t_total)
    [ (4, 64); (8, 256) ];
  (* The tuner's costed/pruned split is a pure function of the input. *)
  List.iter
    (fun (m : Ir.Models.model) ->
      List.iter
        (fun (sp : Ir.Models.subprogram) ->
          let counts () =
            let s = (SF.compile ~arch:Gpu.Arch.ampere ~name:sp.sp_name sp.graph).SF.c_stats in
            (s.Core.Cstats.n_cfgs, s.n_early_quit)
          in
          let c1 = counts () in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s/%s: costed and pruned repeat" m.model_name sp.sp_name)
            c1 (counts ()))
        m.subprograms)
    (List.concat_map
       (fun batch -> [ Ir.Models.bert ~batch ~seq:128; Ir.Models.llama2_7b ~batch ~seq:128 ])
       [ 1; 32 ])

(* Drive [Tuner.pick_best] directly on a whole-graph SMG so the pruned and
   unpruned paths see the exact same candidate list. *)
let pick ~prune arch g =
  let name = "t" in
  let tensor_of = SF.tensor_name ~name g in
  let device = Gpu.Device.create () in
  List.iter
    (fun (n : G.node) ->
      match n.kind with
      | G.Const _ -> ()
      | _ -> Gpu.Device.declare device (tensor_of n.id) n.shape)
    (G.nodes g);
  let scheds = Core.Auto_scheduler.run arch (Core.Smg.build g) ~name ~tensor_of in
  let stats = Core.Cstats.create () in
  let best = Core.Tuner.pick_best ~stats ~prune arch device scheds in
  (best, stats, scheds, device)

let describe_pick = function
  | None -> "<none>"
  | Some (sched, cfg, _, cost) ->
      Printf.sprintf "%s|%s|%.12e"
        (Core.Schedule.describe sched)
        (Core.Schedule.cfg_to_string cfg)
        cost

(* The larger candidate sets here (LSTM, LayerNorm) are costed on helper
   domains at four jobs; the fold over the costs stays on the caller. A
   whole compile can discard a whole-graph pick in favour of a partitioned
   plan, so the whole-graph picks are also compared directly. *)
let test_parallel_matches_serial () =
  List.iter
    (fun (aname, arch) ->
      List.iter
        (fun (mname, g) ->
          let label = Printf.sprintf "%s/%s" mname aname in
          let ser =
            Core.Parallel.with_jobs 1 (fun () -> SF.compile ~arch ~name:label g)
          in
          let par =
            Core.Parallel.with_jobs 4 (fun () -> SF.compile ~arch ~name:label g)
          in
          Alcotest.(check string)
            (label ^ ": identical picks") (signature ser) (signature par);
          Alcotest.(check bool)
            (label ^ ": identical plan, kernel names included")
            true (ser.SF.c_plan = par.SF.c_plan);
          Alcotest.(check (float 0.0))
            (label ^ ": identical simulated time")
            (sim_time arch ser) (sim_time arch par);
          let counts (s : Core.Cstats.t) = (s.n_cfgs, s.n_early_quit) in
          Alcotest.(check (pair int int))
            (label ^ ": identical costed and pruned counts")
            (counts ser.SF.c_stats) (counts par.SF.c_stats);
          let whole jobs =
            let best, stats, _, _ = Core.Parallel.with_jobs jobs (fun () -> pick ~prune:true arch g) in
            (describe_pick best, counts stats)
          in
          Alcotest.(check (pair string (pair int int)))
            (label ^ ": identical whole-graph pick and counts")
            (whole 1) (whole 4))
        (models ()))
    archs

let test_pruned_matches_unpruned () =
  let some_pick = ref false in
  List.iter
    (fun (mname, g) ->
      let pruned, _, _, _ = pick ~prune:true Gpu.Arch.ampere g in
      let unpruned, _, _, _ = pick ~prune:false Gpu.Arch.ampere g in
      if pruned <> None then some_pick := true;
      Alcotest.(check string)
        (mname ^ ": pruning does not change the selection")
        (describe_pick unpruned) (describe_pick pruned))
    (models ());
  Alcotest.(check bool) "at least one model is schedulable whole-graph" true
    !some_pick

let test_pruning_skips_work () =
  (* Across the model zoo, lower-bound pruning must skip at least one
     configuration without lowering it — otherwise n_early_quit is dead. *)
  let total = ref 0 in
  List.iter
    (fun (aname, arch) ->
      List.iter
        (fun (mname, g) ->
          let c =
            SF.compile ~arch ~name:(Printf.sprintf "%s/%s" mname aname) g
          in
          total := !total + c.SF.c_stats.Core.Cstats.n_early_quit)
        (models ()))
    archs;
  Alcotest.(check bool) "pruning skipped at least one configuration" true
    (!total > 0)

let test_lower_bound_sound () =
  (* The bound must never exceed the true cost of the lowered kernel, or
     pruning could discard the winner. Checked over every feasible
     candidate of every whole-graph schedulable model. *)
  let checked = ref 0 in
  List.iter
    (fun (_, g) ->
      let _, _, scheds, device = pick ~prune:false Gpu.Arch.ampere g in
      List.iter
        (fun (s : Core.Auto_scheduler.scheduled) ->
          List.iter
            (fun (cfg, kernel) ->
              incr checked;
              let lb = Core.Tuner.lower_bound Gpu.Arch.ampere s.schedule cfg in
              let cost = Core.Tuner.kernel_cost Gpu.Arch.ampere device kernel in
              if lb > cost +. 1e-12 then
                Alcotest.failf "bound above true cost (%g > %g) for %s %s" lb cost
                  (Core.Schedule.describe s.schedule)
                  (Core.Schedule.cfg_to_string cfg))
            s.cfgs)
        scheds)
    (models ());
  Alcotest.(check bool) "checked a real candidate population" true (!checked > 50)

let test_enum_cfgs_duplicate_free () =
  List.iter
    (fun (_, g) ->
      let _, _, scheds, _ = pick ~prune:false Gpu.Arch.ampere g in
      List.iter
        (fun (s : Core.Auto_scheduler.scheduled) ->
          let cfgs = Core.Schedule.enum_cfgs s.schedule in
          Alcotest.(check int)
            "enum_cfgs has no duplicates"
            (List.length cfgs)
            (List.length (List.sort_uniq Core.Schedule.compare_cfg cfgs)))
        scheds)
    (models ())

(* ------------------------------------------------------------------ *)
(* Tuning-decision reuse                                               *)
(* ------------------------------------------------------------------ *)

(* Recorded before a compile reused tuning decisions: each plan's
   Store.Codec JSON digest, and the candidates its compile costed and
   pruned. The subprograms are compile_cold's (Bert and Llama2-7B, seq
   128, Ampere), compiled under their subprogram names; [chains<k>] is
   [independent_chains ~copies:k ~m:64 ~n:64]. *)
let recorded =
  [
    ("Bert/b1/qkv_proj", "0d3b4561372b4a05a8e1a71eda2b7826", 5300);
    ("Bert/b1/mha", "4b5b40375291805bba8d7794d7d82f6d", 2584);
    ("Bert/b1/attn_out_ln", "276a8c0e942428acdbf01c776ab17c54", 2573);
    ("Bert/b1/ffn_ln", "75b4fa2049ad2d36893cb519aa743568", 4157);
    ("Llama2-7B/b1/norm_qkv", "945628300c54037a9e24fb8ba9f801b3", 2644);
    ("Llama2-7B/b1/mha", "544cd96970b22a6d696c859e95d4a2bd", 2784);
    ("Llama2-7B/b1/attn_out", "a02999caeb5c006bcd4487221ca587bc", 1506);
    ("Llama2-7B/b1/swiglu_ffn", "4bfd47d47da63912655c4d2aa072755c", 4200);
    ("Llama2-7B/b1/lm_head", "c00483d8d6bd6cd47311259c9d519b1d", 1189);
    ("Bert/b32/qkv_proj", "a059396c8bd774119f2058a0e85b50b7", 13677);
    ("Bert/b32/mha", "733c8ea5c3d5173fffeb3c5609f02667", 2584);
    ("Bert/b32/attn_out_ln", "b668bb2ee3aa9add23dba4007b02bcdc", 2869);
    ("Bert/b32/ffn_ln", "b91059afd25c1984a0ab4334c7690812", 4659);
    ("Llama2-7B/b32/norm_qkv", "59597e952de3e0ca3fffcdd8ddd20960", 3020);
    ("Llama2-7B/b32/mha", "ef37af3eed4ac807c39e91ce2ddeba00", 2784);
    ("Llama2-7B/b32/attn_out", "0cafab496ec6b735cb256dee97ac357e", 1712);
    ("Llama2-7B/b32/swiglu_ffn", "bd34fb7250237e69c0df5edb8e6a624a", 4780);
    ("Llama2-7B/b32/lm_head", "4b6633d02e4b31f2d5a0e27496181ec3", 1357);
    ("chains1", "75bcbc64b63ac3f7415289a472a49e4a", 441);
    ("chains3", "6a401d6a572606af148d4879719756eb", 1323);
    ("chains8", "c057cfbd5327281144a9956fd5d0e7c0", 3528);
  ]

let chain_copies = [ 1; 3; 8 ]

(* Every compile the reuse tests inspect, once per test binary:
   compile_cold's subprograms, then the chains. *)
let reuse_compiles =
  lazy
    (let cold =
       List.concat_map
         (fun batch ->
           List.concat_map
             (fun (m : Ir.Models.model) ->
               List.map
                 (fun (sp : Ir.Models.subprogram) ->
                   ( Printf.sprintf "%s/b%d/%s" m.model_name batch sp.sp_name,
                     SF.compile ~arch:Gpu.Arch.ampere ~name:sp.sp_name sp.graph ))
                 m.subprograms)
             [ Ir.Models.bert ~batch ~seq:128; Ir.Models.llama2_7b ~batch ~seq:128 ])
         [ 1; 32 ]
     in
     let chains =
       List.map
         (fun k ->
           ( Printf.sprintf "chains%d" k,
             SF.compile ~arch:Gpu.Arch.ampere ~name:"chains"
               (Ir.Models.independent_chains ~copies:k ~m:64 ~n:64 ()) ))
         chain_copies
     in
     cold @ chains)

let considered (s : Core.Cstats.t) = s.n_cfgs + s.n_early_quit

(* Repeated structure is tuned once: the chains cost and prune the same
   candidates at every copy count, the later copies reusing the first
   one's decisions, and still get one kernel per chain. *)
let test_reuse_chains () =
  let compiles = Lazy.force reuse_compiles in
  let one = considered (List.assoc "chains1" compiles).SF.c_stats in
  List.iter
    (fun k ->
      let c = List.assoc (Printf.sprintf "chains%d" k) compiles in
      Alcotest.(check int)
        (Printf.sprintf "chains x%d: candidates costed and pruned" k)
        one (considered c.SF.c_stats);
      Alcotest.(check int)
        (Printf.sprintf "chains x%d: kernels" k)
        k
        (List.length c.SF.c_plan.Gpu.Plan.p_kernels))
    chain_copies;
  Alcotest.(check bool) "a copy reuses its predecessor's decisions" true
    ((List.assoc "chains8" compiles).SF.c_stats.n_reused > 0)

(* Every plan is the one compiled without reuse, byte for byte. *)
let test_reuse_plans_recorded () =
  let compiles = Lazy.force reuse_compiles in
  List.iter
    (fun (label, digest, _) ->
      let c = List.assoc label compiles in
      Alcotest.(check string) (label ^ ": plan digest") digest
        (Digest.to_hex
           (Digest.string (Obs.Json.to_string (Store.Codec.plan_to_json c.SF.c_plan)))))
    recorded

(* Conservation: what reuse skipped plus what was costed and pruned is
   what a compile without reuse costed and pruned, per subprogram. *)
let test_reuse_conserves_candidates () =
  let compiles = Lazy.force reuse_compiles in
  List.iter
    (fun (label, _, before) ->
      let s = (List.assoc label compiles).SF.c_stats in
      Alcotest.(check int)
        (label ^ ": costed + pruned + reused")
        before
        (considered s + s.n_reused))
    recorded;
  Alcotest.(check int) "compile_cold's candidates per trial" 64379
    (List.fold_left
       (fun acc (label, _, before) ->
         if Astring.String.is_prefix ~affix:"chains" label then acc else acc + before)
       0 recorded)

(* The global tensor names a kernel choice's schedule lowers to: lower it
   once more under placeholder names and pair the two kernels' transfers,
   which come in the same order. *)
let names_of_choice (kc : SF.kernel_choice) =
  let placeholder nid = "#" ^ string_of_int nid in
  let probe =
    Core.Lower.lower kc.kc_schedule kc.kc_cfg ~name:kc.kc_kernel.Gpu.Kernel.kname
      ~tensor_of:placeholder
  in
  let tensors (k : Gpu.Kernel.t) =
    List.concat_map
      (fun stage ->
        List.filter_map
          (function
            | Gpu.Kernel.Load { tensor; _ } | Gpu.Kernel.Store { tensor; _ } -> Some tensor
            | _ -> None)
          (match stage with Gpu.Kernel.Once is | Gpu.Kernel.ForEachStep is -> is))
      k.Gpu.Kernel.stages
  in
  let pairs = List.combine (tensors probe) (tensors kc.kc_kernel) in
  fun nid -> List.assoc_opt (placeholder nid) pairs

(* A reused decision is the decision a fresh tune of that sub-graph, under
   its own tensor and kernel names, would make: same cfg, same cost bits,
   same kernel. *)
let test_reuse_matches_fresh_tune () =
  let arch = Gpu.Arch.ampere in
  let reused = ref 0 in
  List.iter
    (fun (label, (c : SF.compiled)) ->
      if c.SF.c_stats.n_reused > 0 then incr reused;
      List.iter
        (fun (kc : SF.kernel_choice) ->
          let name = kc.kc_kernel.Gpu.Kernel.kname in
          let name_of = names_of_choice kc in
          let tensor_of nid =
            match name_of nid with
            | Some t -> t
            | None -> Alcotest.failf "%s/%s: node %d is not a transfer" label name nid
          in
          let device = Gpu.Device.create () in
          List.iter
            (fun (n : G.node) ->
              Option.iter (fun t -> Gpu.Device.declare device t n.shape) (name_of n.id))
            (G.nodes (Core.Smg.graph kc.kc_schedule.Core.Schedule.smg));
          let sched = Core.Auto_scheduler.enumerate arch kc.kc_schedule ~name ~tensor_of in
          match Core.Tuner.pick_best arch device [ sched ] with
          | None -> Alcotest.failf "%s/%s: no feasible candidate" label name
          | Some (_, cfg, kernel, cost) ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s: cfg" label name)
                (Core.Schedule.cfg_to_string cfg)
                (Core.Schedule.cfg_to_string kc.kc_cfg);
              Alcotest.(check int64)
                (Printf.sprintf "%s/%s: cost bits" label name)
                (Int64.bits_of_float cost) (Int64.bits_of_float kc.kc_cost);
              Alcotest.(check bool) (Printf.sprintf "%s/%s: kernel" label name) true
                (kernel = kc.kc_kernel))
        c.SF.c_choices)
    (Lazy.force reuse_compiles);
  Alcotest.(check bool) "some compiles reused decisions" true (!reused > 5)

(* Tuner costs are a function of a candidate's structure: renaming every
   tensor (bijectively, on a device declaring the renamed shapes) leaves
   each candidate's cost bit-identical, although it reorders
   [Exec.run]'s transfer lists. The candidates are those of every run of
   consecutive sub-SMGs — the pieces the §5.3 search can cut a subprogram
   into, the whole one included. *)
let test_cost_ignores_names () =
  let arch = Gpu.Arch.ampere in
  let subprogram (m : Ir.Models.model) name =
    (List.find (fun (sp : Ir.Models.subprogram) -> sp.sp_name = name) m.subprograms).graph
  in
  let bert = Ir.Models.bert ~batch:1 ~seq:128 and llama = Ir.Models.llama2_7b ~batch:1 ~seq:128 in
  let checked = ref 0 and reordered = ref 0 in
  List.iter
    (fun g ->
      let name = "n" in
      let original = SF.tensor_name ~name g in
      let renamed nid = "renamed/" ^ original nid in
      let device_of tensor_of =
        let d = Gpu.Device.create () in
        List.iter
          (fun (n : G.node) ->
            match n.kind with
            | G.Const _ -> ()
            | _ -> Gpu.Device.declare d (tensor_of n.id) n.shape)
          (G.nodes g);
        d
      in
      let d1 = device_of original and d2 = device_of renamed in
      let order d k =
        let ks = Gpu.Exec.run ~mode:Gpu.Exec.Analytic d k in
        List.map (fun (tr : Gpu.Exec.transfer) -> tr.tr_tensor) (ks.ks_reads @ ks.ks_writes)
      in
      let segs = Array.of_list (Core.Partition.segments g) in
      let n = Array.length segs in
      for first = 0 to n - 1 do
        for last = first to n - 1 do
          let keep =
            List.concat_map
              (fun (s : Core.Partition.segment) -> s.seg_nodes)
              (Array.to_list (Array.sub segs first (last - first + 1)))
          in
          let part = Core.Partition.subgraph g ~keep ~name_of:original in
          let via f nid = f (part.Core.Partition.part_orig nid) in
          List.iter
            (fun schedule ->
              let cands tensor_of =
                (Core.Auto_scheduler.enumerate arch schedule ~name ~tensor_of)
                  .Core.Auto_scheduler.cfgs
              in
              List.iter2
                (fun (cfg, k1) (_, k2) ->
                  incr checked;
                  if List.map (fun t -> "renamed/" ^ t) (order d1 k1) <> order d2 k2 then
                    incr reordered;
                  Alcotest.(check int64)
                    (Core.Schedule.cfg_to_string cfg)
                    (Int64.bits_of_float (Core.Tuner.kernel_cost arch d1 k1))
                    (Int64.bits_of_float (Core.Tuner.kernel_cost arch d2 k2)))
                (cands (via original)) (cands (via renamed)))
            (Core.Auto_scheduler.schedules (Core.Smg.build part.Core.Partition.part_graph))
        done
      done)
    [ subprogram bert "qkv_proj"; subprogram llama "norm_qkv"; subprogram llama "swiglu_ffn" ];
  Alcotest.(check bool) (Printf.sprintf "%d candidates checked" !checked) true (!checked > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "renaming reorders Exec's transfers (%d of %d)" !reordered !checked)
    true (!reordered > 0)

let () =
  Alcotest.run "tuning"
    [
      ( "tuning",
        [
          Alcotest.test_case "parallel matches serial" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "compile accounting is exact" `Quick
            test_compile_accounting_exact;
          Alcotest.test_case "pruned matches unpruned" `Quick
            test_pruned_matches_unpruned;
          Alcotest.test_case "pruning skips work" `Quick test_pruning_skips_work;
          Alcotest.test_case "lower bound is sound" `Quick test_lower_bound_sound;
          Alcotest.test_case "enum_cfgs duplicate-free" `Quick
            test_enum_cfgs_duplicate_free;
          Alcotest.test_case "costs ignore tensor names" `Quick test_cost_ignores_names;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "repeated chains tuned once" `Quick test_reuse_chains;
          Alcotest.test_case "plans equal recorded digests" `Quick test_reuse_plans_recorded;
          Alcotest.test_case "candidates conserved" `Quick test_reuse_conserves_candidates;
          Alcotest.test_case "reuse matches a fresh tune" `Quick test_reuse_matches_fresh_tune;
        ] );
    ]
