(* Tests for multi-device sharding and fleet routing: interconnect cost
   sanity, the sharding scheduler's determinism and pick quality, the
   differential oracle (a sharded functional walk is bit-identical to the
   single-device walk), the unified Workload API and its legacy wrappers,
   devices-keyed plan caching, and a seeded fleet soak with an injected
   device death. *)

module Policy = Backends.Policy

let arch = Gpu.Arch.ampere
let mb = 1024. *. 1024.

(* ------------------------------------------------------------------ *)
(* Node: interconnect cost model                                       *)
(* ------------------------------------------------------------------ *)

let test_node_costs () =
  let single = Gpu.Node.single arch in
  Alcotest.(check (float 0.0))
    "collectives are free on one device" 0.0
    (Gpu.Node.all_reduce_time single ~bytes:(64. *. mb));
  let n4 = Gpu.Node.nvlink arch ~devices:4 in
  let ag b = Gpu.Node.all_gather_time n4 ~bytes:b in
  Alcotest.(check bool) "all-gather costs something" true (ag (64. *. mb) > 0.0);
  Alcotest.(check bool) "monotone in bytes" true (ag (128. *. mb) > ag (64. *. mb));
  Alcotest.(check bool)
    "all-reduce moves the payload twice" true
    (Gpu.Node.all_reduce_time n4 ~bytes:(64. *. mb) > ag (64. *. mb));
  Alcotest.(check (float 0.0)) "zero bytes cost zero" 0.0 (ag 0.0);
  (* A fully-ringed node is contention-free; halving the links doubles
     the slowdown factor. *)
  Alcotest.(check (float 0.0)) "fully ringed: no contention" 1.0 (Gpu.Node.contention n4);
  let cramped = Gpu.Node.make arch ~devices:4 ~links:2 in
  Alcotest.(check (float 0.0)) "2 links for 4 devices: 2x" 2.0 (Gpu.Node.contention cramped);
  Alcotest.(check bool)
    "contention slows the wire term" true
    (Gpu.Node.all_gather_time cramped ~bytes:(64. *. mb) > ag (64. *. mb))

(* ------------------------------------------------------------------ *)
(* Shard: scheduler picks                                              *)
(* ------------------------------------------------------------------ *)

let compile_sf name g = Backends.Baselines.spacefusion.Policy.compile arch ~name g

(* A decision as the arch-free per-kernel walk made it before plans
   memoised their walk: device count, strategy and every time bit for
   bit. *)
let pinned label (d : Core.Shard.decision) ~devices ~strategy ~time ~compute ~collective ~baseline =
  let bits x = Int64.bits_of_float x in
  Alcotest.(check int) (label ^ ": devices") devices d.Core.Shard.d_devices;
  Alcotest.(check string) (label ^ ": strategy") strategy (Core.Shard.strategy_name d.Core.Shard.d_strategy);
  Alcotest.(check (list int64))
    (label ^ ": time, compute, collective, baseline bits")
    (List.map bits [ time; compute; collective; baseline ])
    (List.map bits Core.Shard.[ d.d_time; d.d_compute_s; d.d_collective_s; d.d_baseline_s ])

let test_shard_small_stays_single () =
  (* A small memory-bound graph: every sharded candidate's collective
     costs more than the compute it saves, so the scheduler must keep it
     on one device. *)
  let plan = compile_sf "ln_small" (Ir.Models.layernorm_graph ~m:128 ~n:128) in
  let d = Core.Shard.best (Gpu.Node.nvlink arch ~devices:8) plan in
  pinned "ln_small" d ~devices:1 ~strategy:"data_parallel" ~time:0x1.94e4c9314dbeap-18
    ~compute:0x1.94e4c9314dbeap-18 ~collective:0.0 ~baseline:0x1.94e4c9314dbeap-18;
  Alcotest.(check int) "picked one device" 1 d.Core.Shard.d_devices;
  Alcotest.(check (float 0.0)) "speedup is exactly 1" 1.0 (Core.Shard.speedup d);
  Alcotest.(check (float 0.0)) "no collective time" 0.0 d.Core.Shard.d_collective_s

let test_shard_compute_bound_pays () =
  (* A wide-k large-batch GEMM is compute-bound: splitting its block grid
     saves more compute than the boundary all-gather costs. *)
  let plan = compile_sf "mlp_wide" (Ir.Models.mlp ~layers:1 ~m:8192 ~n:2048 ~k:8192) in
  let d = Core.Shard.best (Gpu.Node.nvlink arch ~devices:4) plan in
  pinned "mlp_wide" d ~devices:4 ~strategy:"data_parallel" ~time:0x1.6d69baed6e053p-11
    ~compute:0x1.26b945a3ceacap-11 ~collective:0x1.1ac1d5267d624p-13 ~baseline:0x1.571a8019690e7p-10;
  Alcotest.(check bool) "sharded" true (d.Core.Shard.d_devices > 1);
  Alcotest.(check bool)
    (Format.asprintf "speedup > 1.2: %a" Core.Shard.pp d)
    true
    (Core.Shard.speedup d > 1.2);
  Alcotest.(check bool) "collectives were priced" true (d.Core.Shard.d_collective_s > 0.0);
  Alcotest.(check bool)
    "sharded time = compute + collective" true
    (abs_float (d.Core.Shard.d_time -. (d.Core.Shard.d_compute_s +. d.Core.Shard.d_collective_s))
    < 1e-12)

let test_shard_deterministic () =
  let plan = compile_sf "mlp_det" (Ir.Models.mlp ~layers:2 ~m:256 ~n:256 ~k:256) in
  let node = Gpu.Node.nvlink arch ~devices:8 in
  let d1 = Core.Shard.best ~reps:4 node plan in
  let d2 = Core.Shard.best ~reps:4 node plan in
  pinned "mlp_det" d1 ~devices:1 ~strategy:"data_parallel" ~time:0x1.5b393337f43aap-17
    ~compute:0x1.5b393337f43aap-17 ~collective:0.0 ~baseline:0x1.5b393337f43aap-17;
  Alcotest.(check int) "same devices" d1.Core.Shard.d_devices d2.Core.Shard.d_devices;
  Alcotest.(check bool)
    "same strategy" true
    (d1.Core.Shard.d_strategy = d2.Core.Shard.d_strategy);
  Alcotest.(check (float 0.0)) "same time" d1.Core.Shard.d_time d2.Core.Shard.d_time;
  Alcotest.(check int) "same candidate count" d1.Core.Shard.d_candidates d2.Core.Shard.d_candidates;
  Alcotest.(check int) "same pruned count" d1.Core.Shard.d_pruned d2.Core.Shard.d_pruned

(* ------------------------------------------------------------------ *)
(* Differential oracle: sharded == single-device, bit for bit          *)
(* ------------------------------------------------------------------ *)

let test_sharded_walk_bit_identical () =
  (* Residue-class execution must partition the block grid: the union of
     the shards' writes equals the unsharded walk exactly — not within a
     tolerance, bit for bit. Odd sizes so 3 does not divide the grid. *)
  let g = Ir.Models.mlp ~layers:2 ~m:32 ~n:48 ~k:40 in
  let plan = compile_sf "oracle" g in
  let env = Ir.Interp.random_env ~seed:4242 g in
  let run_on f =
    let device = Gpu.Device.create () in
    Gpu.Plan.declare_all plan device;
    List.iter (fun (n, t) -> Gpu.Device.bind device n t) env;
    f device;
    device
  in
  let plain =
    run_on (fun device ->
        List.iter
          (fun k -> ignore (Gpu.Exec.run ~mode:Gpu.Exec.Full ~arch device k))
          plan.Gpu.Plan.p_kernels)
  in
  let sharded =
    run_on (fun device -> Core.Shard.run_functional ~arch device plan ~devices:3)
  in
  let compared = ref 0 in
  List.iter
    (fun name ->
      match (Gpu.Device.tensor plain name, Gpu.Device.tensor sharded name) with
      | exception _ -> ()
      | a, b ->
          incr compared;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "tensor %s identical" name)
            0.0
            (Tensor.max_abs_diff a b))
    (Gpu.Device.names plain);
  Alcotest.(check bool)
    (Printf.sprintf "compared %d tensors" !compared)
    true (!compared > List.length env)

(* ------------------------------------------------------------------ *)
(* Workload API and legacy wrappers                                    *)
(* ------------------------------------------------------------------ *)

let small_model =
  {
    Ir.Models.model_name = "wk";
    subprograms =
      [ { Ir.Models.sp_name = "g"; graph = Ir.Models.layernorm_graph ~m:64 ~n:64; count = 3 } ];
  }

let test_workload_identity () =
  let w1 = Runtime.Workload.make ~arch Backends.Baselines.spacefusion small_model in
  let w2 = Runtime.Workload.make ~arch Backends.Baselines.spacefusion small_model in
  Alcotest.(check string) "digest is stable" (Runtime.Workload.digest w1) (Runtime.Workload.digest w2);
  let w4 = Runtime.Workload.make ~devices:4 ~arch Backends.Baselines.spacefusion small_model in
  Alcotest.(check bool)
    "device count is part of the identity" true
    (Runtime.Workload.digest w1 <> Runtime.Workload.digest w4);
  Alcotest.(check string)
    "path key ignores devices (breakers guard the fused path)"
    (Runtime.Workload.path_key w1) (Runtime.Workload.path_key w4);
  Alcotest.check_raises "devices < 1 refused" (Invalid_argument "Workload.make: devices < 1")
    (fun () -> ignore (Runtime.Workload.make ~devices:0 ~arch Backends.Baselines.spacefusion small_model));
  Alcotest.check_raises "Pin outside the fleet refused"
    (Invalid_argument "Workload.make: Pin 4 outside [0, 4)") (fun () ->
      ignore
        (Runtime.Workload.make ~devices:4 ~placement:(Runtime.Workload.Pin 4) ~arch
           Backends.Baselines.spacefusion small_model))

let test_workload_multi_device_run () =
  let run devices =
    Core.Spacefusion.Error.get
      (Runtime.Model_runner.run_workload_r
         (Runtime.Workload.make ~devices ~arch Backends.Baselines.spacefusion small_model))
  in
  let r1 = run 1 in
  Alcotest.(check int) "ran as 1 device" 1 r1.Runtime.Model_runner.m_devices;
  Alcotest.(check bool) "no shard decision on one device" true
    (r1.Runtime.Model_runner.m_shard = None);
  let r = run 4 in
  Alcotest.(check int) "ran as 4 devices" 4 r.Runtime.Model_runner.m_devices;
  match r.Runtime.Model_runner.m_shard with
  | None -> Alcotest.fail "multi-device run must report a sharding decision"
  | Some d ->
      Alcotest.(check bool) "decision node matches" true (d.Core.Shard.d_node.Gpu.Node.nd_devices = 4)

let test_warm_multi_device_run () =
  (* Bert b1 on a 4-device node: the model runner's sharding decisions
     read each plan's memoised walk, so a warm rerun walks no plan, and
     both runs report what the arch-free walk decided. *)
  let counter name = match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0 in
  List.iter
    (fun ((b : Policy.t), devices, strategy, time, x_time) ->
      let cache = Runtime.Plan_cache.create () in
      let w = Runtime.Workload.make ~devices:4 ~arch b (Ir.Models.bert ~batch:1 ~seq:64) in
      let run () =
        let r = Core.Spacefusion.Error.get (Runtime.Model_runner.run_workload_r ~cache ~functional:`Auto w) in
        match r.Runtime.Model_runner.m_shard with
        | None -> Alcotest.fail "multi-device run must report a sharding decision"
        | Some d ->
            Alcotest.(check int) (b.be_name ^ ": devices") devices d.Core.Shard.d_devices;
            Alcotest.(check string) (b.be_name ^ ": strategy") strategy
              (Core.Shard.strategy_name d.Core.Shard.d_strategy);
            Alcotest.(check int64) (b.be_name ^ ": decision time bits") (Int64.bits_of_float time)
              (Int64.bits_of_float d.Core.Shard.d_time);
            Alcotest.(check int64) (b.be_name ^ ": model time bits") (Int64.bits_of_float x_time)
              (Int64.bits_of_float r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time)
      in
      run ();
      let w0 = counter "run.analytic_walks" in
      run ();
      Alcotest.(check int) (b.be_name ^ ": a warm run installs no memo") 0
        (counter "run.analytic_walks" - w0))
    [
      (Backends.Baselines.spacefusion, 2, "pipeline", 0x1.cae9247404718p-16, 0x1.a419763c0356ap-11);
      (Backends.Baselines.pytorch, 4, "pipeline", 0x1.253adca3972b7p-14, 0x1.38a5807549ff8p-9);
    ]

let test_plan_cache_devices_key () =
  let calls = Atomic.make 0 in
  let b =
    {
      Policy.be_name = "stub";
      dispatch_us = 0.0;
      supports = (fun _ -> true);
      compile =
        (fun arch ~name g ->
          Atomic.incr calls;
          Policy.compile_groups arch ~name g (Policy.singletons g));
    }
  in
  let c = Runtime.Plan_cache.create () in
  let g = Ir.Models.layernorm_graph ~m:32 ~n:32 in
  ignore (Runtime.Plan_cache.compile c b arch ~name:"m" g);
  ignore (Runtime.Plan_cache.compile c ~devices:4 b arch ~name:"m" g);
  Alcotest.(check int) "distinct device counts compile separately" 2 (Atomic.get calls);
  ignore (Runtime.Plan_cache.compile c ~devices:4 b arch ~name:"m" g);
  ignore (Runtime.Plan_cache.compile c ~devices:1 b arch ~name:"m" g);
  Alcotest.(check int) "both entries warm" 2 (Atomic.get calls);
  Alcotest.(check int) "two resident plans" 2 (Runtime.Plan_cache.length c)

(* ------------------------------------------------------------------ *)
(* Fleet soak: routing around an injected device death                 *)
(* ------------------------------------------------------------------ *)

let soak_models =
  List.map
    (fun (name, g) ->
      { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] })
    [
      ("ln", Ir.Models.layernorm_graph ~m:64 ~n:64);
      ("rms", Ir.Models.rmsnorm_graph ~m:64 ~n:64);
      ("softmax", Ir.Models.softmax_graph ~m:64 ~n:64);
    ]

let run_fleet_soak ~seed ~n =
  let rates =
    {
      Fault.Plan.zero_rates with
      Fault.Plan.launch_failure = 0.005;
      device_error = 0.002;
      device_death = 0.02;
    }
  in
  let cfg =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = n;
      max_retries = 4;
      backoff_s = 1e-5;
      backoff_cap_s = 1e-4;
      fault_plan = Some (Fault.Plan.make ~rates ~seed ());
      devices = 4;
    }
  in
  let s = Serve.Server.start ~config:cfg () in
  let tickets =
    List.init n (fun i ->
        Serve.Server.submit s ~arch Backends.Baselines.spacefusion
          (List.nth soak_models (i mod List.length soak_models)))
  in
  List.iter (fun tk -> ignore (Serve.Server.await tk)) tickets;
  Serve.Server.shutdown s;
  let st = Serve.Server.stats s in
  let fleet = match Serve.Server.fleet_json s with Some j -> Obs.Json.to_string j | None -> "" in
  (st, Serve.Server.fleet_alive s, fleet)

let test_fleet_soak_death_and_determinism () =
  let n = 120 and seed = 23 in
  let st, alive, fleet = run_fleet_soak ~seed ~n in
  Alcotest.(check bool) "accounting conserved" true (Serve.Stats.conserved st);
  Alcotest.(check int) "every request resolved" n st.Serve.Stats.s_submitted;
  (match alive with
  | None -> Alcotest.fail "multi-device server must expose a fleet"
  | Some a ->
      Alcotest.(check bool)
        (Printf.sprintf "a device died (%d alive of 4)" a)
        true (a < 4);
      Alcotest.(check bool) "the fleet survived" true (a >= 1));
  let goodput = float_of_int st.Serve.Stats.s_done /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "goodput %.3f >= 0.9" goodput) true (goodput >= 0.9);
  (* Same seed, same storm, same outcome — including which devices died
     and how many requests each one served. *)
  let st2, _, fleet2 = run_fleet_soak ~seed ~n in
  Alcotest.(check int) "deterministic done count" st.Serve.Stats.s_done st2.Serve.Stats.s_done;
  Alcotest.(check int) "deterministic failures" st.Serve.Stats.s_failed st2.Serve.Stats.s_failed;
  Alcotest.(check string) "deterministic fleet snapshot" fleet fleet2

let test_pinned_placement () =
  let cfg = { (Serve.Server.default_config ()) with Serve.Server.workers = 1; devices = 4 } in
  let s = Serve.Server.start ~config:cfg () in
  let w =
    Runtime.Workload.make ~devices:4 ~placement:(Runtime.Workload.Pin 2) ~arch
      Backends.Baselines.spacefusion (List.hd soak_models)
  in
  let tks = List.init 8 (fun _ -> Serve.Server.submit_w s w) in
  List.iter
    (fun tk ->
      match Serve.Server.await tk with
      | Serve.Server.Done _ -> ()
      | _ -> Alcotest.fail "pinned request did not complete")
    tks;
  Serve.Server.shutdown s;
  match Serve.Server.fleet_json s with
  | None -> Alcotest.fail "no fleet"
  | Some j ->
      let s = Obs.Json.to_string j in
      (* All eight requests landed on device 2: served = [0;0;8;0]. *)
      Alcotest.(check bool)
        (Printf.sprintf "all served on the pinned device: %s" s)
        true
        (Astring.String.is_infix ~affix:"[0,0,8,0]" s)

let () =
  Alcotest.run "shard"
    [
      ("node", [ Alcotest.test_case "interconnect costs" `Quick test_node_costs ]);
      ( "scheduler",
        [
          Alcotest.test_case "small stays single" `Quick test_shard_small_stays_single;
          Alcotest.test_case "compute-bound pays" `Quick test_shard_compute_bound_pays;
          Alcotest.test_case "deterministic" `Quick test_shard_deterministic;
        ] );
      ( "oracle",
        [ Alcotest.test_case "sharded walk bit-identical" `Quick test_sharded_walk_bit_identical ] );
      ( "workload",
        [
          Alcotest.test_case "identity" `Quick test_workload_identity;
          Alcotest.test_case "multi-device run" `Quick test_workload_multi_device_run;
          Alcotest.test_case "warm multi-device run reads the memo" `Quick test_warm_multi_device_run;
          Alcotest.test_case "cache keyed by devices" `Quick test_plan_cache_devices_key;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "soak: death, goodput, determinism" `Quick
            test_fleet_soak_death_and_determinism;
          Alcotest.test_case "pinned placement" `Quick test_pinned_placement;
        ] );
    ]
