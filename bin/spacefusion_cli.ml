(* SpaceFusion command-line interface.

     spacefusion compile --workload mha --seq 512    # show schedule & kernels
     spacefusion run --workload layernorm --rows 2048 # verify + simulate
     spacefusion bench --workload mha --arch hopper  # compare backends
     spacefusion serve --rps 200 --duration 5        # serving-load report
     spacefusion verify --budget 100                  # differential fuzzing
     spacefusion patterns                             # Table-6 style census *)

open Cmdliner

(* Every cross-command flag (--arch, --seed, --store, --telemetry,
   --workers, --deadline-ms, --devices, --pretty) lives in Cli_common so
   each lands once, with one spelling, everywhere. *)
let arch_conv = Cli_common.arch_conv
let arch_arg = Cli_common.arch_arg
let or_die = Cli_common.or_die

(* Workload construction ------------------------------------------------ *)

let workload_doc =
  "mha | layernorm | rmsnorm | batchnorm | softmax | softmax_gemm | mlp | lstm | qkv | ffn, or \
   file:PATH to load a graph in the textual format (see lib/ir/parse.mli)"

let workload_arg = Arg.(value & opt string "mha" & info [ "workload"; "w" ] ~doc:workload_doc)
let m_arg = Arg.(value & opt int 1024 & info [ "rows"; "m" ] ~doc:"rows (also -m)")
let n_arg = Arg.(value & opt int 1024 & info [ "cols"; "n" ] ~doc:"columns / hidden width (also -n)")
let seq_arg = Arg.(value & opt int 512 & info [ "seq" ] ~doc:"sequence length")
let batch_arg = Arg.(value & opt int 8 & info [ "batch" ] ~doc:"batch size")
let layers_arg = Arg.(value & opt int 4 & info [ "layers" ] ~doc:"MLP depth")

let build_workload workload ~m ~n ~seq ~batch ~layers =
  if String.length workload > 5 && String.sub workload 0 5 = "file:" then
    let path = String.sub workload 5 (String.length workload - 5) in
    match Ir.Parse.parse_file path with
    | Ok g -> g
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  else
  match String.lowercase_ascii workload with
  | "mha" -> Ir.Models.mha ~batch_heads:(batch * 12) ~seq_q:seq ~seq_kv:seq ~head_dim:64 ()
  | "layernorm" | "ln" -> Ir.Models.layernorm_graph ~m ~n
  | "rmsnorm" -> Ir.Models.rmsnorm_graph ~m ~n
  | "batchnorm" | "bn" -> Ir.Models.batchnorm_graph ~m ~n
  | "softmax" -> Ir.Models.softmax_graph ~m ~n
  | "softmax_gemm" -> Ir.Models.softmax_gemm ~m ~l:n ~n:64
  | "mlp" -> Ir.Models.mlp ~layers ~m ~n:256 ~k:256
  | "lstm" -> Ir.Models.lstm_cell ~m ~hidden:n ~input:n
  | "qkv" -> Ir.Models.qkv_proj ~m ~hidden:n
  | "ffn" -> Ir.Models.ffn_ln ~m ~hidden:n ~ffn:(4 * n) ~act:`Gelu ~norm:`Layernorm
  | other -> failwith (Printf.sprintf "unknown workload %S (%s)" other workload_doc)

(* explain ---------------------------------------------------------------- *)

let explain_cmd =
  let run workload m n seq batch layers =
    let g = build_workload workload ~m ~n ~seq ~batch ~layers in
    let smg = Core.Smg.build g in
    let fs = Core.Smg.fused smg in
    Format.printf "== SMG ==@.%a@." Core.Smg.pp smg;
    Format.printf "consistent fused space: %b@." (Core.Smg.consistent smg);
    Format.printf "@.== Table-3 classification per dimension ==@.";
    Format.printf "%-6s %-8s %-10s %-10s %-6s %-10s %-9s %s@." "dim" "extent" "input-O2A"
      "other-O2A" "A2O" "all-iters?" "spatial?" "A2O chain";
    let spatial = Core.Analysis.spatial_dims smg in
    for d = 0 to Core.Fusedspace.num_dims fs - 1 do
      let info = Core.Analysis.dim_info smg d in
      let chain =
        match Core.Analysis.classify_a2o smg ~dim:d with
        | Core.Analysis.No_a2o -> "-"
        | Core.Analysis.Independent ns -> Printf.sprintf "independent (%d)" (List.length ns)
        | Core.Analysis.Dependent ns -> Printf.sprintf "dependent (%d)" (List.length ns)
      in
      Format.printf "%-6s %-8d %-10d %-10d %-6d %-10b %-9b %s@."
        (Core.Fusedspace.dim_name fs d) (Core.Fusedspace.dim_extent fs d)
        (List.length info.Core.Analysis.input_o2a)
        (List.length info.Core.Analysis.other_o2a)
        (List.length info.Core.Analysis.a2o)
        info.Core.Analysis.in_all_iters (List.mem d spatial) chain
    done;
    Format.printf "@.== Temporal slicing analysis ==@.";
    List.iter
      (fun d ->
        match Core.Update_fn.analyze smg ~dim:d with
        | None ->
            Format.printf "dim %s: chain does not simplify (unsliceable)@."
              (Core.Fusedspace.dim_name fs d)
        | Some plan ->
            Format.printf "dim %s:%s@." (Core.Fusedspace.dim_name fs d)
              (if plan.Core.Update_fn.two_pass then " two-pass" else " single-pass");
            List.iter
              (fun (node, rp) ->
                Format.printf "  reduction %%%d: %s@." node (Core.Update_fn.rplan_to_string rp))
              plan.Core.Update_fn.reductions)
      (Core.Analysis.temporal_candidates smg ~spatial)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Dump the SMG, the Table-3 dimension classification and the slicing analysis")
    Term.(const run $ workload_arg $ m_arg $ n_arg $ seq_arg $ batch_arg $ layers_arg)

(* compile --------------------------------------------------------------- *)

let compile_cmd =
  let run arch workload m n seq batch layers verbose triton =
    let g = build_workload workload ~m ~n ~seq ~batch ~layers in
    let c = or_die (Core.Spacefusion.compile_r ~arch ~name:workload g) in
    Format.printf "== SMG ==@.%a@." Core.Smg.pp c.Core.Spacefusion.c_smg;
    Format.printf "== schedule ==@.";
    List.iteri
      (fun i (ch : Core.Spacefusion.kernel_choice) ->
        Format.printf "kernel %d: %s %s  (tuned cost %.2f us)@." i
          (Core.Schedule.describe ch.kc_schedule)
          (Core.Schedule.cfg_to_string ch.kc_cfg)
          (ch.kc_cost *. 1e6);
        (match ch.kc_schedule.Core.Schedule.temporal with
        | Some plan ->
            List.iter
              (fun (node, rp) ->
                Format.printf "  reduction %%%d: %s@." node (Core.Update_fn.rplan_to_string rp))
              plan.Core.Update_fn.reductions
        | None -> ());
        if verbose then Format.printf "%a@." Gpu.Kernel.pp ch.kc_kernel)
      c.Core.Spacefusion.c_choices;
    Format.printf "== compile stats ==@.%a@." Core.Cstats.pp c.Core.Spacefusion.c_stats;
    if triton then
      Format.printf "@.== Triton-style source ==@.%s@."
        (Core.Emit_triton.emit_plan c.Core.Spacefusion.c_plan)
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print lowered kernels") in
  let triton = Arg.(value & flag & info [ "emit-triton" ] ~doc:"render pseudo-Triton source") in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a workload and print the schedule")
    Term.(
      const run $ arch_arg $ workload_arg $ m_arg $ n_arg $ seq_arg $ batch_arg $ layers_arg
      $ verbose $ triton)

(* run ------------------------------------------------------------------- *)

let run_cmd =
  let run arch workload m n seq batch layers devices =
    let g = build_workload workload ~m ~n ~seq ~batch ~layers in
    let c = or_die (Core.Spacefusion.compile_r ~arch ~name:workload g) in
    (match Runtime.Verify.verify_plan ~arch ~name:workload g c.Core.Spacefusion.c_plan with
    | Ok () -> print_endline "verification: OK (fused outputs match the reference interpreter)"
    | Error msg ->
        Printf.printf "verification: FAILED — %s\n" msg;
        exit 1);
    let device = Gpu.Device.create () in
    let r = Runtime.Runner.run_plan ~arch ~dispatch_us:3.0 device c.Core.Spacefusion.c_plan in
    Format.printf "simulated: %a@." Runtime.Runner.pp r;
    if devices > 1 then begin
      let node = Gpu.Node.nvlink arch ~devices in
      let d = Core.Shard.best node c.Core.Spacefusion.c_plan in
      Format.printf "sharded:   %a@." Core.Shard.pp d
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, verify against the reference, and simulate")
    Term.(
      const run $ arch_arg $ workload_arg $ m_arg $ n_arg $ seq_arg $ batch_arg $ layers_arg
      $ Cli_common.devices_arg)

(* bench ----------------------------------------------------------------- *)

let bench_cmd =
  let run arch workload m n seq batch layers =
    let g = build_workload workload ~m ~n ~seq ~batch ~layers in
    let base = ref None in
    List.iter
      (fun (b : Backends.Policy.t) ->
        match Backends.Policy.compile_r b arch ~name:workload g with
        | Error (Core.Spacefusion.Error.Unsupported _) -> ()
        | Error e ->
            Printf.printf "%-22s (compile failed: %s)\n" b.be_name
              (Core.Spacefusion.Error.to_string e)
        | Ok plan ->
              let device = Gpu.Device.create () in
              let r = Runtime.Runner.run_plan ~arch ~dispatch_us:b.dispatch_us device plan in
              let su =
                match !base with
                | None ->
                    base := Some r.Runtime.Exec_stats.x_time;
                    1.0
                | Some t -> t /. r.Runtime.Exec_stats.x_time
              in
              Printf.printf "%-22s %10.2f us  %3d kernels  %6.2fx\n" b.be_name
                (r.Runtime.Exec_stats.x_time *. 1e6) r.Runtime.Exec_stats.x_kernels su)
      Backends.Baselines.all
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Compare all backends on one workload")
    Term.(const run $ arch_arg $ workload_arg $ m_arg $ n_arg $ seq_arg $ batch_arg $ layers_arg)

(* profile ---------------------------------------------------------------- *)

let profile_cmd =
  let models =
    [
      ("bert", Ir.Models.bert);
      ("albert", Ir.Models.albert);
      ("t5", Ir.Models.t5);
      ("vit", fun ~batch ~seq -> Ir.Models.vit ~batch ~image:seq);
      ("llama2", Ir.Models.llama2_7b);
    ]
  in
  (* Every phase the instrumented pipeline must have visited for a cached
     end-to-end model run; --check (and scripts/ci.sh) gates on these. *)
  let required_spans =
    [
      "run_model"; "subprogram"; "cache_compile"; "compile"; "build"; "schedule";
      "auto_schedule"; "tune"; "lower"; "select"; "execute";
    ]
  in
  let run arch model_name batch seq pretty check =
    let mk =
      match List.assoc_opt (String.lowercase_ascii model_name) models with
      | Some mk -> mk
      | None ->
          Printf.eprintf "error: unknown model %S (expected %s)\n" model_name
            (String.concat " | " (List.map fst models));
          exit 1
    in
    let model = mk ~batch ~seq in
    Obs.Metrics.reset ();
    Obs.Trace.set_enabled true;
    Obs.Trace.reset ();
    let cache = Runtime.Plan_cache.create () in
    let r =
      or_die
        (Runtime.Model_runner.run_workload_r ~cache
           (Runtime.Workload.make ~arch Backends.Baselines.spacefusion model))
    in
    let report = Obs.Report.capture () in
    let json =
      Obs.Report.to_json
        ~extra:
          [
            ("model", Obs.Json.Str r.Runtime.Model_runner.m_model);
            ("backend", Obs.Json.Str r.Runtime.Model_runner.m_backend);
            ("arch", Obs.Json.Str r.Runtime.Model_runner.m_arch);
            ("result", Runtime.Model_runner.to_json r);
          ]
        report
    in
    if pretty then begin
      Format.printf "%a@." Runtime.Model_runner.pp r;
      Format.printf "%a@." Obs.Report.pp report
    end
    else print_endline (Obs.Json.to_string json);
    if check then begin
      let reparsed =
        match Obs.Json.parse (Obs.Json.to_string json) with
        | Ok j -> j
        | Error msg ->
            Printf.eprintf "profile --check: emitted JSON does not parse: %s\n" msg;
            exit 1
      in
      match Obs.Report.validate ~required_spans reparsed with
      | Ok () -> prerr_endline "profile --check: OK"
      | Error msg ->
          Printf.eprintf "profile --check: %s\n" msg;
          exit 1
    end
  in
  let model_arg =
    Arg.(value & pos 0 string "bert" & info [] ~docv:"MODEL" ~doc:"bert | albert | t5 | vit | llama2")
  in
  let batch = Arg.(value & opt int 1 & info [ "batch" ] ~doc:"batch size") in
  let seq = Arg.(value & opt int 128 & info [ "seq" ] ~doc:"sequence length (image size for vit)") in
  let pretty =
    Arg.(value & flag & info [ "pretty" ] ~doc:"human-readable report instead of JSON")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"re-parse the emitted JSON and validate it (all pipeline phases present, no \
                negative durations); exit 1 on failure")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile and simulate one model with phase tracing enabled, then emit the profile \
          (flame-style span tree + metrics registry) as JSON on stdout")
    Term.(const run $ arch_arg $ model_arg $ batch $ seq $ pretty $ check)

(* verify ----------------------------------------------------------------- *)

let verify_cmd =
  let run arch_opt budget seed max_nodes json =
    let config =
      {
        Check.Fuzz.default_config with
        Check.Fuzz.cf_budget = budget;
        cf_seed = seed;
        cf_max_nodes = max_nodes;
        cf_archs =
          (match arch_opt with
          | Some a -> [ a ]
          | None -> Check.Fuzz.default_config.Check.Fuzz.cf_archs);
      }
    in
    let r = Check.Fuzz.run ~config () in
    if json then print_endline (Check.Fuzz.report_to_json r)
    else Check.Fuzz.pp_report Format.std_formatter r;
    if not (Check.Fuzz.pass r) then exit 1
  in
  let arch_opt =
    Arg.(
      value
      & opt (some arch_conv) None
      & info [ "arch" ] ~doc:"restrict to one architecture (volta | ampere | hopper); default all three")
  in
  let budget = Arg.(value & opt int 50 & info [ "budget" ] ~doc:"random cases to draw") in
  let seed = Cli_common.seed_arg ~default:7 ~doc:"master fuzz seed; fixes the whole run" in
  let max_nodes =
    Arg.(value & opt int 12 & info [ "max-nodes" ] ~doc:"maximum ops per random case")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"emit a machine-readable JSON report") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differential verification: fuzz every backend against the reference oracles \
          (interpreter numerics and analytic counters), shrink any failure to a minimal \
          graph, and run the seeded-defect corpus gate. Exits 1 on any divergence.")
    Term.(const run $ arch_opt $ budget $ seed $ max_nodes $ json)

(* Shared serving-tier model zoo (Cli_common): same names, same graphs
   across serve / chaos / warm, so a store warmed by one is warm for the
   others. *)
let mini_zoo = Cli_common.mini_zoo
let serve_backends = Cli_common.serve_backends
let metric_counter = Cli_common.metric_counter
let store_arg = Cli_common.store_arg
let telemetry_arg = Cli_common.telemetry_arg

(* serve ------------------------------------------------------------------ *)

let serve_cmd =
  (* Open-loop load generator over lib/serve: paced mixed-model traffic at
     a target rate for a fixed duration, then a JSON load report (config,
     request accounting, throughput, latency percentiles, plan-cache
     counters). Exits 1 when the accounting conservation law is violated
     or any request failed — scripts/ci.sh uses a short run of this as the
     serving smoke gate. *)
  let run arch rps duration workers deadline_ms capacity seed devices bucket store_dir telemetry_dir pretty =
    let backends = serve_backends () in
    let models = mini_zoo () in
    let pstore = Option.map Store.Plan_store.open_ store_dir in
    let cache = Runtime.Plan_cache.create ?store:pstore () in
    let config =
      {
        (Serve.Server.default_config ()) with
        Serve.Server.workers;
        queue_capacity = capacity;
        devices;
        shapes = bucket;
      }
    in
    let s = Serve.Server.start ~cache ~config () in
    let rng = Random.State.make [| seed |] in
    let deadline_s = Option.map (fun ms -> ms /. 1e3) deadline_ms in
    let period = 1.0 /. float_of_int (max 1 rps) in
    let t0 = Unix.gettimeofday () in
    let rec drive count tickets =
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed >= duration then (count, tickets)
      else begin
        let m = List.nth models (Random.State.int rng (List.length models)) in
        let b = List.nth backends (Random.State.int rng (List.length backends)) in
        let tk = Serve.Server.submit s ?deadline_s ~arch b m in
        let next = t0 +. (float_of_int (count + 1) *. period) in
        let now = Unix.gettimeofday () in
        if next > now then Unix.sleepf (next -. now);
        drive (count + 1) (tk :: tickets)
      end
    in
    let submitted, tickets = drive 0 [] in
    List.iter (fun tk -> ignore (Serve.Server.await tk)) tickets;
    let elapsed = Unix.gettimeofday () -. t0 in
    Serve.Server.shutdown s;
    let st = Serve.Server.stats s in
    let lat = Serve.Server.latencies s in
    let p q = Serve.Stats.percentile lat q *. 1e3 in
    let json =
      Obs.Json.Obj
        [
          ( "config",
            Obs.Json.Obj
              [
                ("arch", Obs.Json.Str arch.Gpu.Arch.name);
                ("rps", Obs.Json.Num (float_of_int rps));
                ("duration_s", Obs.Json.Num duration);
                ("workers", Obs.Json.Num (float_of_int workers));
                ( "deadline_ms",
                  match deadline_ms with Some ms -> Obs.Json.Num ms | None -> Obs.Json.Null );
                ("queue_capacity", Obs.Json.Num (float_of_int capacity));
                ("seed", Obs.Json.Num (float_of_int seed));
                ("devices", Obs.Json.Num (float_of_int devices));
                ("bucket", Obs.Json.Str (Runtime.Shape_class.policy_to_string bucket));
              ] );
          ("requests", Serve.Stats.snapshot_to_json st);
          ( "fleet",
            match Serve.Server.fleet_json s with Some j -> j | None -> Obs.Json.Null );
          ("elapsed_s", Obs.Json.Num elapsed);
          ("throughput_rps", Obs.Json.Num (float_of_int st.Serve.Stats.s_done /. elapsed));
          ( "latency_ms",
            Obs.Json.Obj
              [ ("p50", Obs.Json.Num (p 50.0)); ("p90", Obs.Json.Num (p 90.0)); ("p99", Obs.Json.Num (p 99.0)) ] );
          ( "plan_cache",
            Obs.Json.Obj
              [
                ("hits", Obs.Json.Num (float_of_int (Runtime.Plan_cache.hits cache)));
                ("misses", Obs.Json.Num (float_of_int (Runtime.Plan_cache.misses cache)));
              ] );
          ( "run",
            Obs.Json.Obj
              [
                ("functional_execs", Obs.Json.Num (float_of_int (metric_counter "run.functional_execs")));
                ("analytic_walks", Obs.Json.Num (float_of_int (metric_counter "run.analytic_walks")));
                ("warm_fast_path", Obs.Json.Num (float_of_int (metric_counter "run.warm_fast_path")));
              ] );
          ( "store",
            match pstore with
            | Some ps -> Store.Plan_store.report_to_json (Store.Plan_store.report ps)
            | None -> Obs.Json.Null );
        ]
    in
    (match telemetry_dir with
    | None -> ()
    | Some dir ->
        let tele = Store.Telemetry.open_ dir in
        let cols =
          Store.Telemetry.metrics_columns ()
          @ [
              ("throughput_rps", float_of_int st.Serve.Stats.s_done /. elapsed);
              ("latency_ms.p50", p 50.0);
              ("latency_ms.p99", p 99.0);
              ("elapsed_s", elapsed);
            ]
        in
        ignore (Store.Telemetry.record tele ~kind:"serve" ~label:arch.Gpu.Arch.name cols));
    if pretty then begin
      Format.printf "%a@." Serve.Stats.pp_snapshot st;
      Format.printf "throughput: %.1f req/s  p50 %.2f ms  p99 %.2f ms@."
        (float_of_int st.Serve.Stats.s_done /. elapsed)
        (p 50.0) (p 99.0)
    end
    else print_endline (Obs.Json.to_string json);
    if submitted <> st.Serve.Stats.s_submitted || not (Serve.Stats.conserved st) then begin
      Printf.eprintf "serve: request accounting violated\n";
      exit 1
    end;
    if st.Serve.Stats.s_failed > 0 then begin
      Printf.eprintf "serve: %d request(s) failed\n" st.Serve.Stats.s_failed;
      exit 1
    end
  in
  let rps = Arg.(value & opt int 200 & info [ "rps" ] ~doc:"target request rate per second") in
  let duration =
    Arg.(value & opt float 5.0 & info [ "duration" ] ~doc:"seconds to keep submitting")
  in
  let workers =
    Cli_common.workers_arg
      ~default:(Core.Parallel.default_jobs ())
      ~doc:"worker domains (default: SPACEFUSION_JOBS or the core count)"
  in
  let capacity =
    Arg.(value & opt int 256 & info [ "queue-capacity" ] ~doc:"admission queue bound")
  in
  let seed = Cli_common.seed_arg ~default:42 ~doc:"traffic-mix seed" in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent serving runtime under paced mixed-model load and emit a JSON load \
          report; exits 1 on accounting violations or failed requests")
    Term.(
      const run $ arch_arg $ rps $ duration $ workers $ Cli_common.deadline_ms_arg $ capacity
      $ seed $ Cli_common.devices_arg $ Cli_common.bucket_arg $ store_arg $ telemetry_arg
      $ Cli_common.pretty_arg)

(* chaos ------------------------------------------------------------------ *)

let chaos_cmd =
  (* Seeded fault storm over lib/serve: every serving attempt runs under a
     deterministic Fault.Plan, the fused path under a hair-trigger circuit
     breaker (threshold 1, zero cooldown), so the run exercises the whole
     self-healing ladder — retry, reroute, degrade, trip, probe, close —
     and its outcome counts are a pure function of the seed. The default
     shape (one worker, no deadlines, queue as large as the request count,
     every request queued before the worker starts) removes every clock
     and scheduling dependence from the terminal accounting and from batch
     formation, which is what lets scripts/ci.sh diff two same-seed runs
     byte-for-byte. *)
  let run arch requests rate poison resource arena_budget_mb seed workers retries floor
      require_recovery check devices bucket telemetry_dir pretty =
    let models = mini_zoo () in
    let backend = Backends.Baselines.spacefusion in
    Obs.Metrics.reset ();
    if check then begin
      Obs.Trace.set_enabled true;
      Obs.Trace.reset ()
    end;
    let plan = Fault.Plan.make ~rates:(Fault.Plan.storm ~poison ~resource ~rate ()) ~seed () in
    let config =
      {
        (Serve.Server.default_config ()) with
        Serve.Server.workers;
        queue_capacity = requests;
        max_retries = retries;
        backoff_s = 1e-4;
        backoff_cap_s = 1e-3;
        fault_plan = Some plan;
        breaker = { Serve.Breaker.threshold = 1; cooldown_s = 0.0 };
        devices;
        shapes = bucket;
        arena_budget_bytes = Option.map (fun mb -> mb * 1024 * 1024) arena_budget_mb;
      }
    in
    let cache = Runtime.Plan_cache.create () in
    let s = Serve.Server.start ~cache ~config () in
    let t0 = Unix.gettimeofday () in
    (* Staged storm: the whole backlog is queued before any worker pops,
       so what a batch leader finds to take with it does not depend on
       how far the submit loop got. *)
    Serve.Server.pause s;
    let tickets =
      List.init requests (fun i ->
          Serve.Server.submit s ~arch backend (List.nth models (i mod List.length models)))
    in
    Serve.Server.resume s;
    List.iter (fun tk -> ignore (Serve.Server.await tk)) tickets;
    let elapsed = Unix.gettimeofday () -. t0 in
    Serve.Server.shutdown s;
    let st = Serve.Server.stats s in
    let lat = Serve.Server.latencies s in
    let p q = Serve.Stats.percentile lat q *. 1e3 in
    let counter name =
      match Obs.Metrics.find name with Some (Obs.Metrics.Counter n) -> n | _ -> 0
    in
    (* Shed and quarantined requests resolved without executing by design:
       goodput measures what the server did with the load it accepted. *)
    let goodput =
      let denom =
        st.Serve.Stats.s_submitted - st.Serve.Stats.s_shed - st.Serve.Stats.s_quarantined
      in
      if denom <= 0 then 1.0 else float_of_int st.Serve.Stats.s_done /. float_of_int denom
    in
    let opened = counter "breaker.opened" and closed = counter "breaker.closed" in
    let recovery = opened >= 1 && counter "breaker.half_opened" >= 1 && closed >= 1 in
    let num n = Obs.Json.Num (float_of_int n) in
    let json =
      Obs.Json.Obj
        [
          ( "config",
            Obs.Json.Obj
              [
                ("arch", Obs.Json.Str arch.Gpu.Arch.name);
                ("requests", num requests);
                ("fault_rate", Obs.Json.Num rate);
                ("seed", num seed);
                ("workers", num workers);
                ("max_retries", num retries);
                ("devices", num devices);
                ("bucket", Obs.Json.Str (Runtime.Shape_class.policy_to_string bucket));
              ] );
          (* The deterministic heart of the report: scripts/ci.sh diffs
             these two objects (and, in fleet mode, the fleet snapshot)
             across same-seed runs. *)
          ("outcomes", Serve.Stats.snapshot_to_json st);
          ( "fleet",
            match Serve.Server.fleet_json s with Some j -> j | None -> Obs.Json.Null );
          ( "faults",
            Obs.Json.Obj
              [
                ("injected", num (counter "fault.injected"));
                ("launch_failures", num (counter "fault.launch_failures"));
                ("device_errors", num (counter "fault.device_errors"));
                ("device_deaths", num (counter "fault.device_deaths"));
                ("smem_evictions", num (counter "fault.smem_evictions"));
                ("latency_spikes", num (counter "fault.latency_spikes"));
                ("resource_exhausted", num (counter "fault.resource_exhausted"));
                ("poison_requests", num (counter "fault.poison_requests"));
              ] );
          ( "breaker",
            Obs.Json.Obj
              [
                ("opened", num opened);
                ("half_opened", num (counter "breaker.half_opened"));
                ("closed", num closed);
                ("short_circuits", num (counter "breaker.short_circuits"));
                ("probes", num (counter "breaker.probes"));
                ( "trips",
                  num
                    (Serve.Server.breaker_trips_w s
                       (Runtime.Workload.make ~arch backend (List.hd models))) );
                ("recovered", Obs.Json.Bool recovery);
              ] );
          ("goodput", Obs.Json.Num goodput);
          ("elapsed_s", Obs.Json.Num elapsed);
          ( "latency_ms",
            Obs.Json.Obj [ ("p50", Obs.Json.Num (p 50.0)); ("p99", Obs.Json.Num (p 99.0)) ] );
        ]
    in
    (match telemetry_dir with
    | None -> ()
    | Some dir ->
        let tele = Store.Telemetry.open_ dir in
        let cols =
          Store.Telemetry.metrics_columns ()
          @ [
              ("goodput", goodput);
              ("latency_ms.p99", p 99.0);
              ("elapsed_s", elapsed);
              ("fault_rate", rate);
              ("seed", float_of_int seed);
            ]
        in
        ignore (Store.Telemetry.record tele ~kind:"chaos" ~label:arch.Gpu.Arch.name cols));
    if pretty then begin
      Format.printf "%a@." Serve.Stats.pp_snapshot st;
      Format.printf
        "faults injected %d  goodput %.3f  breaker opened %d / closed %d%s  p99 %.2f ms@."
        (counter "fault.injected") goodput opened closed
        (if recovery then " (recovered)" else "")
        (p 99.0)
    end
    else print_endline (Obs.Json.to_string json);
    if st.Serve.Stats.s_submitted <> requests || not (Serve.Stats.conserved st) then begin
      Printf.eprintf "chaos: request accounting violated\n";
      exit 1
    end;
    if goodput < floor then begin
      Printf.eprintf "chaos: goodput %.3f below floor %.3f\n" goodput floor;
      exit 1
    end;
    if require_recovery && not recovery then begin
      Printf.eprintf "chaos: no breaker open -> half-open -> closed recovery observed\n";
      exit 1
    end;
    if check then begin
      let report = Obs.Report.capture () in
      let rejson = Obs.Report.to_json report in
      match Obs.Json.parse (Obs.Json.to_string rejson) with
      | Error msg ->
          Printf.eprintf "chaos --check: emitted report does not parse: %s\n" msg;
          exit 1
      | Ok j -> (
          match
            Obs.Report.validate ~required_spans:[ "serve.request" ]
              ~required_metrics:[ "serve.shed"; "serve.quarantined" ]
              j
          with
          | Ok () -> prerr_endline "chaos --check: OK"
          | Error msg ->
              Printf.eprintf "chaos --check: %s\n" msg;
              exit 1)
    end
  in
  let requests =
    Arg.(value & opt int 400 & info [ "requests"; "n" ] ~doc:"requests to submit")
  in
  let rate =
    Arg.(
      value & opt float 0.01
      & info [ "rate" ] ~doc:"total per-launch fault probability, split across the taxonomy")
  in
  let poison =
    Arg.(
      value & opt float 0.0
      & info [ "poison" ]
          ~doc:
            "per-request poison_request probability (member-attributable payload failures; \
             exercises batch bisection and quarantine)")
  in
  let resource =
    Arg.(
      value & opt float 0.0
      & info [ "resource" ]
          ~doc:"additional per-launch resource_exhausted probability (memory-pressure faults)")
  in
  let arena_budget_mb =
    Arg.(
      value & opt (some int) None
      & info [ "arena-budget-mb" ]
          ~doc:"hard per-attempt tensor-arena byte budget, in MiB (default: unbudgeted)")
  in
  let seed = Cli_common.seed_arg ~default:11 ~doc:"fault-plan seed; fixes the whole storm" in
  let workers =
    Cli_common.workers_arg ~default:1 ~doc:"worker domains (keep 1 for deterministic outcome counts)"
  in
  let retries = Arg.(value & opt int 3 & info [ "max-retries" ] ~doc:"transient-failure retries") in
  let floor =
    Arg.(value & opt float 0.9 & info [ "goodput-floor" ] ~doc:"minimum done/submitted ratio")
  in
  let require_recovery =
    Arg.(
      value & flag
      & info [ "require-recovery" ]
          ~doc:"also exit 1 unless a breaker completed an open -> half-open -> closed cycle")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"trace the run and validate the emitted Obs report (serve.request spans present)")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault storm over the serving runtime: deterministic fault injection, circuit \
          breakers and degradation under load; JSON report; exits 1 on accounting violations or \
          goodput below the floor")
    Term.(
      const run $ arch_arg $ requests $ rate $ poison $ resource $ arena_budget_mb $ seed
      $ workers $ retries $ floor $ require_recovery $ check $ Cli_common.devices_arg
      $ Cli_common.bucket_arg $ telemetry_arg $ Cli_common.pretty_arg)

(* warm ------------------------------------------------------------------- *)

let warm_cmd =
  (* Pre-populate the on-disk plan store for the serving zoo, then prove it
     took: pass 2 opens the store fresh (a simulated restart) and must see
     zero compile misses and zero functional executions — every plan loads
     already verified, so the warm analytic fast path engages immediately.
     Exits 1 otherwise; scripts/ci.sh uses this as the cold-start gate. *)
  let run arch store_dir names pretty =
    let zoo = mini_zoo () in
    let models =
      match names with
      | [] -> zoo
      | names ->
          List.map
            (fun n ->
              match List.find_opt (fun m -> m.Ir.Models.model_name = n) zoo with
              | Some m -> m
              | None ->
                  Printf.eprintf "error: unknown model %S (expected %s)\n" n
                    (String.concat " | "
                       (List.map (fun m -> m.Ir.Models.model_name) zoo));
                  exit 1)
            names
    in
    let backends = Backends.Baselines.spacefusion :: serve_backends () in
    let pass () =
      let store = Store.Plan_store.open_ store_dir in
      let cache = Runtime.Plan_cache.create ~store () in
      let f0 = metric_counter "run.functional_execs" in
      List.iter
        (fun (b : Backends.Policy.t) ->
          List.iter
            (fun (m : Ir.Models.model) ->
              match
                Runtime.Model_runner.run_workload_r ~cache ~functional:`Auto
                  (Runtime.Workload.make ~arch b m)
              with
              | Ok _ -> ()
              | Error (Core.Spacefusion.Error.Unsupported _) -> ()
              | Error e ->
                  Printf.eprintf "warm: %s/%s: %s\n" b.be_name m.Ir.Models.model_name
                    (Core.Spacefusion.Error.to_string e);
                  exit 1)
            models)
        backends;
      ( store,
        Runtime.Plan_cache.hits cache,
        Runtime.Plan_cache.misses cache,
        metric_counter "run.functional_execs" - f0 )
    in
    let pass1 = pass () in
    (* Fresh store handle + fresh cache: everything pass 2 sees came back
       off disk, exactly like a restarted server. *)
    let pass2 = pass () in
    let _, _, misses2, fn2 = pass2 in
    let warm = misses2 = 0 && fn2 = 0 in
    let num n = Obs.Json.Num (float_of_int n) in
    let pass_json (store, hits, misses, fn) =
      Obs.Json.Obj
        [
          ("hits", num hits);
          ("misses", num misses);
          ("functional_execs", num fn);
          ("entries", num (Store.Plan_store.length store));
          ("store", Store.Plan_store.report_to_json (Store.Plan_store.report store));
        ]
    in
    let json =
      Obs.Json.Obj
        [
          ("arch", Obs.Json.Str arch.Gpu.Arch.name);
          ( "models",
            Obs.Json.Arr
              (List.map (fun (m : Ir.Models.model) -> Obs.Json.Str m.model_name) models) );
          ( "backends",
            Obs.Json.Arr
              (List.map (fun (b : Backends.Policy.t) -> Obs.Json.Str b.be_name) backends) );
          ("pass1", pass_json pass1);
          ("pass2", pass_json pass2);
          ("warm", Obs.Json.Bool warm);
        ]
    in
    if pretty then begin
      let _, h1, m1, f1 = pass1 and _, h2, _, _ = pass2 in
      Format.printf "pass1: %d hits / %d misses / %d functional execs@." h1 m1 f1;
      Format.printf "pass2: %d hits / %d misses / %d functional execs@." h2 misses2 fn2;
      Format.printf "store %s: %s@." store_dir (if warm then "warm" else "NOT WARM")
    end
    else print_endline (Obs.Json.to_string json);
    if not warm then begin
      Printf.eprintf "warm: restart still cold (%d misses, %d functional execs)\n" misses2 fn2;
      exit 1
    end
  in
  let store_req =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR" ~doc:"plan-store directory to populate (created if missing)")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"MODEL" ~doc:"zoo models to warm (default: the whole serving zoo)")
  in
  let pretty = Cli_common.pretty_arg in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Populate the on-disk plan store for the serving zoo across all backends, then verify \
          with a simulated restart that a second pass needs zero compiles and zero functional \
          executions; exits 1 if the store failed to take")
    Term.(const run $ arch_arg $ store_req $ names $ pretty)

(* query ------------------------------------------------------------------ *)

let query_cmd =
  (* The read side of the telemetry store: filter one kind's runs and
     aggregate selected columns. No --kind lists the tables; --kind with no
     --select lists that table's runs and columns. *)
  let run dir kind label last selects =
    let t = Store.Telemetry.open_ dir in
    let out j = print_endline (Obs.Json.to_string j) in
    match kind with
    | None ->
        out
          (Obs.Json.Obj
             [
               ("dir", Obs.Json.Str dir);
               ( "kinds",
                 Obs.Json.Arr (List.map (fun k -> Obs.Json.Str k) (Store.Telemetry.kinds t)) );
             ])
    | Some kind -> (
        let selects = List.concat_map (String.split_on_char ',') selects in
        match selects with
        | [] ->
            let runs, _ = Store.Telemetry.query t ~kind ?label ?last [] in
            out
              (Obs.Json.Obj
                 [
                   ("kind", Obs.Json.Str kind);
                   ("runs", Obs.Json.Num (float_of_int runs));
                   ( "columns",
                     Obs.Json.Arr
                       (List.map (fun c -> Obs.Json.Str c) (Store.Telemetry.columns t ~kind)) );
                 ])
        | selects ->
            let runs, aggs = Store.Telemetry.query t ~kind ?label ?last selects in
            out
              (Obs.Json.Obj
                 [
                   ("kind", Obs.Json.Str kind);
                   ("runs", Obs.Json.Num (float_of_int runs));
                   ( "columns",
                     Obs.Json.Obj
                       (List.map (fun (c, a) -> (c, Store.Telemetry.agg_to_json a)) aggs) );
                 ]))
  in
  let dir =
    Arg.(
      value & opt string "telemetry"
      & info [ "dir" ] ~docv:"DIR" ~doc:"telemetry directory (default: telemetry)")
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND" ~doc:"table to query (serve | chaos | bench | ...)")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~doc:"restrict to runs recorded with this label")
  in
  let last =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N" ~doc:"restrict to the most recent N matching runs")
  in
  let selects =
    Arg.(
      value & opt_all string []
      & info [ "select"; "s" ] ~docv:"COL"
          ~doc:"column to aggregate (repeatable; comma-separated lists accepted)")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query the columnar telemetry store: list kinds, list a kind's columns, or aggregate \
          selected columns (count/sum/mean/min/max/last) over filtered runs")
    Term.(const run $ dir $ kind $ label $ last $ selects)

(* patterns --------------------------------------------------------------- *)

let patterns_cmd =
  let run arch =
    let models = Ir.Models.all_models ~batch:8 ~seq:256 in
    List.iter
      (fun (name, p) ->
        let c = Runtime.Patterns.census_of_models ~arch p models in
        Format.printf "%-12s %a@." name Runtime.Patterns.pp c)
      [
        ("SpaceFusion", Backends.Baselines.spacefusion);
        ("Welder", Backends.Baselines.welder);
        ("AStitch", Backends.Baselines.astitch);
      ]
  in
  Cmd.v (Cmd.info "patterns" ~doc:"Fusion-pattern census across the model zoo") Term.(const run $ arch_arg)

let () =
  if Sys.getenv_opt "SPACEFUSION_DEBUG" <> None then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Core.Log.src (Some Logs.Debug)
  end;
  let info = Cmd.info "spacefusion" ~doc:"SpaceFusion operator-fusion scheduler (simulated GPUs)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            explain_cmd; compile_cmd; run_cmd; bench_cmd; profile_cmd; serve_cmd; chaos_cmd;
            warm_cmd; query_cmd; verify_cmd; patterns_cmd;
          ]))
