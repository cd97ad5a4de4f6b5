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
   - [Schedule.enum_cfgs] is duplicate-free (the tie-break contract). *)

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
        ] );
    ]
