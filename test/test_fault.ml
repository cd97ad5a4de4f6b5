(* Tests for the deterministic fault model: Plan purity (same triple ->
   same decision, same seed -> identical schedule), the injector's
   death-latching and slowdown bookkeeping, fault propagation through
   Gpu.Exec / Runtime.Runner / Runtime.Model_runner, the circuit breaker
   state machine under a fake clock, and the end-to-end chaos determinism
   property: two same-seed soak runs produce identical Stats outcomes. *)

module Plan = Fault.Plan
module Inject = Fault.Inject
module Policy = Backends.Policy
module Breaker = Serve.Breaker

let arch = Gpu.Arch.ampere

let model_of name g =
  { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }

let plan_of g = Policy.compile_groups arch ~name:"t" g (Policy.singletons g)
let only_rate r k = match k with
  | `Launch -> { Plan.zero_rates with launch_failure = r }
  | `Death -> { Plan.zero_rates with device_death = r }
  | `Spike m -> { Plan.zero_rates with latency_spike = r; spike_mult = m }

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let rates = Plan.storm ~rate:0.3 () in
  let p1 = Plan.make ~rates ~seed:42 () and p2 = Plan.make ~rates ~seed:42 () in
  List.iter
    (fun stream ->
      Alcotest.(check bool)
        (Printf.sprintf "stream %d identical" stream)
        true
        (Plan.schedule p1 ~stream ~n:256 = Plan.schedule p2 ~stream ~n:256))
    [ 0; 1; 7; 1000 ];
  (* Stateless: re-asking the same triple never changes the answer. *)
  Alcotest.(check bool) "decide is pure" true
    (Plan.decide p1 ~stream:3 ~seq:9 = Plan.decide p1 ~stream:3 ~seq:9);
  (* Different seeds disagree somewhere in a long window. *)
  let p3 = Plan.make ~rates ~seed:43 () in
  Alcotest.(check bool) "different seed differs" true
    (Plan.schedule p1 ~stream:0 ~n:512 <> Plan.schedule p3 ~stream:0 ~n:512)

let test_plan_zero_rates () =
  let p = Plan.make ~seed:7 () in
  Alcotest.(check bool) "all Pass" true
    (List.for_all (( = ) Plan.Pass) (Plan.schedule p ~stream:5 ~n:128))

let test_plan_storm_split () =
  let r = Plan.storm ~rate:0.1 () in
  Alcotest.(check (float 1e-12)) "split sums to rate" 0.1 (Plan.total_rate r);
  Alcotest.(check bool) "every component positive" true
    (r.Plan.launch_failure > 0. && r.device_error > 0. && r.device_death > 0.
    && r.smem_eviction > 0. && r.latency_spike > 0.);
  Alcotest.(check (float 1e-12)) "new kinds default to zero" 0.0
    (r.Plan.poison_request +. r.Plan.resource_exhausted)

let test_plan_storm_new_kinds () =
  (* poison/resource are additive: the legacy 40/25/5/10/20 split of [rate]
     must be bit-identical to a storm built before those kinds existed,
     resource joins the per-launch total, poison does not (per-request). *)
  let legacy = Plan.storm ~rate:0.1 () in
  let r = Plan.storm ~poison:0.01 ~resource:0.005 ~rate:0.1 () in
  Alcotest.(check bool) "legacy split unchanged" true
    (r.Plan.launch_failure = legacy.Plan.launch_failure
    && r.device_error = legacy.Plan.device_error
    && r.device_death = legacy.Plan.device_death
    && r.smem_eviction = legacy.Plan.smem_eviction
    && r.latency_spike = legacy.Plan.latency_spike);
  Alcotest.(check (float 1e-12)) "poison rate carried" 0.01 r.Plan.poison_request;
  Alcotest.(check (float 1e-12)) "resource rate carried" 0.005 r.Plan.resource_exhausted;
  Alcotest.(check (float 1e-12)) "resource is per-launch, poison is not" 0.105
    (Plan.total_rate r)

let test_plan_resource_preserves_legacy_schedule () =
  (* The resource_exhausted threshold is appended after the legacy bands,
     so turning it on may convert Pass slots to resource faults but must
     never change what an existing fault decision was. *)
  let mk resource = Plan.make ~rates:(Plan.storm ~resource ~rate:0.2 ()) ~seed:5 () in
  let p0 = mk 0.0 and p1 = mk 0.1 in
  let saw_resource = ref false in
  for seq = 0 to 511 do
    let d0 = Plan.decide p0 ~stream:0 ~seq and d1 = Plan.decide p1 ~stream:0 ~seq in
    (match d0 with
    | Plan.Pass ->
        if d1 = Plan.Fail Plan.Resource_exhausted then saw_resource := true
        else Alcotest.(check bool) "pass stays pass or becomes resource" true (d1 = Plan.Pass)
    | d -> Alcotest.(check bool) "legacy decision preserved" true (d1 = d));
    if Plan.decide p0 ~stream:0 ~seq = Plan.Fail Plan.Resource_exhausted then
      Alcotest.fail "zero resource rate drew a resource fault"
  done;
  Alcotest.(check bool) "resource faults appear at 10%" true !saw_resource

let test_plan_poisoned () =
  let p = Plan.make ~rates:(Plan.storm ~poison:0.3 ~rate:0.0 ()) ~seed:11 () in
  let draws = List.init 256 (fun i -> Plan.poisoned p ~request:i) in
  Alcotest.(check bool) "deterministic per request" true
    (draws = List.init 256 (fun i -> Plan.poisoned p ~request:i));
  let hits = List.length (List.filter Fun.id draws) in
  Alcotest.(check bool)
    (Printf.sprintf "poison fraction plausible (%d/256)" hits)
    true
    (hits > 256 * 3 / 20 && hits < 256 * 9 / 20);
  (* Poison draws live in their own stream namespace: they must not perturb
     the launch-injection schedule. *)
  let clean = Plan.make ~rates:(Plan.storm ~rate:0.2 ()) ~seed:11 () in
  let stormy = Plan.make ~rates:(Plan.storm ~poison:0.3 ~rate:0.2 ()) ~seed:11 () in
  Alcotest.(check bool) "launch schedule independent of poison rate" true
    (Plan.schedule clean ~stream:2 ~n:256 = Plan.schedule stormy ~stream:2 ~n:256);
  let zero = Plan.make ~seed:11 () in
  Alcotest.(check bool) "zero poison rate never poisons" true
    (not (List.exists (fun i -> Plan.poisoned zero ~request:i) (List.init 256 Fun.id)))

let test_plan_validation () =
  let bad rates = try ignore (Plan.make ~rates ~seed:0 ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative rate refused" true
    (bad { Plan.zero_rates with launch_failure = -0.1 });
  Alcotest.(check bool) "sum > 1 refused" true
    (bad { Plan.zero_rates with launch_failure = 0.6; device_error = 0.6 });
  Alcotest.(check bool) "spike_mult < 1 refused" true
    (bad { Plan.zero_rates with latency_spike = 0.1; spike_mult = 0.5 })

let test_plan_rate_distribution () =
  (* At a 50% total rate roughly half of a long window must fault; this is
     a sanity check on the hash, not a statistical test. *)
  let p = Plan.make ~rates:(only_rate 0.5 `Launch) ~seed:2 () in
  let n = 2000 in
  let fails =
    List.length (List.filter (function Plan.Fail _ -> true | _ -> false)
                   (Plan.schedule p ~stream:0 ~n))
  in
  Alcotest.(check bool)
    (Printf.sprintf "fault fraction plausible (%d/%d)" fails n)
    true
    (fails > n / 4 && fails < 3 * n / 4)

let prop_plan_deterministic =
  QCheck.Test.make ~count:200 ~name:"plan: same (seed, stream) -> same schedule"
    QCheck.(pair small_nat small_nat)
    (fun (seed, stream) ->
      let rates = Plan.storm ~rate:0.2 () in
      let p1 = Plan.make ~rates ~seed () and p2 = Plan.make ~rates ~seed () in
      Plan.schedule p1 ~stream ~n:64 = Plan.schedule p2 ~stream ~n:64)

let prop_schedule_prefix =
  QCheck.Test.make ~count:100 ~name:"plan: schedule n is a prefix of schedule n+k"
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, stream, k) ->
      let p = Plan.make ~rates:(Plan.storm ~rate:0.15 ()) ~seed () in
      let short = Plan.schedule p ~stream ~n:32 in
      let long = Plan.schedule p ~stream ~n:(32 + k) in
      short = List.filteri (fun i _ -> i < 32) long)

(* ------------------------------------------------------------------ *)
(* Inject                                                              *)
(* ------------------------------------------------------------------ *)

let test_inject_death_latches () =
  (* Find a stream whose first decision is a death and whose second would
     be a Pass, so the latch is observable: the second launch must still
     fail even though the plan says Pass. *)
  let p = Plan.make ~rates:(only_rate 0.5 `Death) ~seed:1 () in
  let rec find stream =
    if stream > 10_000 then Alcotest.fail "no latch-witness stream found"
    else if
      Plan.decide p ~stream ~seq:0 = Plan.Fail Plan.Device_death
      && Plan.decide p ~stream ~seq:1 = Plan.Pass
    then stream
    else find (stream + 1)
  in
  let stream = find 0 in
  let inj = Inject.create p ~stream in
  let raised k = try Inject.launch inj ~kernel:k; None with Plan.Injected f -> Some f in
  (match raised "k0" with
  | Some f ->
      Alcotest.(check string) "kind" "device_death" (Plan.kind_to_string f.Plan.f_kind);
      Alcotest.(check string) "kernel" "k0" f.Plan.f_kernel;
      Alcotest.(check int) "seq" 0 f.Plan.f_seq
  | None -> Alcotest.fail "first launch should die");
  Alcotest.(check bool) "dead latched" true (Inject.dead inj);
  (match raised "k1" with
  | Some f -> Alcotest.(check string) "still dead despite Pass decision"
                "device_death" (Plan.kind_to_string f.Plan.f_kind)
  | None -> Alcotest.fail "dead stream must keep failing");
  Alcotest.(check int) "launches counted" 2 (Inject.launches inj);
  Alcotest.(check int) "faults counted" 2 (Inject.faults inj)

let test_inject_slowdown () =
  let p = Plan.make ~rates:(only_rate 1.0 (`Spike 3.0)) ~seed:4 () in
  let inj = Inject.create p ~stream:0 in
  Inject.launch inj ~kernel:"k";
  Alcotest.(check (float 0.)) "spike recorded" 3.0 (Inject.last_slowdown inj);
  let quiet = Inject.create (Plan.make ~seed:4 ()) ~stream:0 in
  Inject.launch quiet ~kernel:"k";
  Alcotest.(check (float 0.)) "pass resets to 1" 1.0 (Inject.last_slowdown quiet);
  Alcotest.(check int) "no faults" 0 (Inject.faults quiet)

(* ------------------------------------------------------------------ *)
(* Propagation through Exec / Runner / Model_runner                    *)
(* ------------------------------------------------------------------ *)

let test_exec_raises_injected () =
  let plan = plan_of (Ir.Models.layernorm_graph ~m:64 ~n:64) in
  let dev = Gpu.Device.create () in
  Gpu.Device.attach_faults dev
    (Inject.create (Plan.make ~rates:(only_rate 1.0 `Launch) ~seed:0 ()) ~stream:0);
  (try
     ignore (Runtime.Runner.run_plan ~arch ~dispatch_us:0.0 dev plan);
     Alcotest.fail "expected an injected fault"
   with Plan.Injected f ->
     Alcotest.(check string) "kind" "launch_failure" (Plan.kind_to_string f.Plan.f_kind))

let test_runner_spike_scales_time () =
  let plan = plan_of (Ir.Models.layernorm_graph ~m:64 ~n:64) in
  let base = Runtime.Runner.run_plan ~arch ~dispatch_us:0.0 (Gpu.Device.create ()) plan in
  let dev = Gpu.Device.create () in
  Gpu.Device.attach_faults dev
    (Inject.create (Plan.make ~rates:(only_rate 1.0 (`Spike 2.0)) ~seed:0 ()) ~stream:0);
  let slow = Runtime.Runner.run_plan ~arch ~dispatch_us:0.0 dev plan in
  (* x2 is exact in floating point, so equality is legitimate. *)
  Alcotest.(check (float 0.)) "gpu time exactly doubled"
    (2.0 *. base.Runtime.Exec_stats.x_gpu_time)
    slow.Runtime.Exec_stats.x_gpu_time;
  Alcotest.(check int) "launch count unchanged"
    base.Runtime.Exec_stats.x_kernels slow.Runtime.Exec_stats.x_kernels

let test_model_runner_zero_rate_identical () =
  (* A zero-rate injector must be bit-identical to no injector at all. *)
  let m = model_of "ln" (Ir.Models.layernorm_graph ~m:64 ~n:64) in
  let be = Backends.Baselines.pytorch in
  let ok = function
    | Ok (r : Runtime.Model_runner.result) -> r
    | Error e -> Alcotest.fail (Core.Spacefusion.Error.to_string e)
  in
  let w = Runtime.Workload.make ~arch be m in
  let plain = ok (Runtime.Model_runner.run_workload_r w) in
  let injected =
    ok
      (Runtime.Model_runner.run_workload_r
         ~inject:(Inject.create (Plan.make ~seed:9 ()) ~stream:5)
         w)
  in
  Alcotest.(check bool) "exec stats bit-identical" true
    (compare plain.Runtime.Model_runner.m_exec injected.Runtime.Model_runner.m_exec = 0)

let test_classify_exn () =
  let f kind = Plan.Injected { Plan.f_kind = kind; f_kernel = "k"; f_seq = 0 } in
  let open Runtime.Model_runner in
  Alcotest.(check bool) "launch -> Retry" true (classify_exn (f Plan.Launch_failure) = Retry);
  Alcotest.(check bool) "error -> Retry" true (classify_exn (f Plan.Device_error) = Retry);
  Alcotest.(check bool) "death -> Reroute" true (classify_exn (f Plan.Device_death) = Reroute);
  Alcotest.(check bool) "smem -> Degrade" true (classify_exn (f Plan.Smem_eviction) = Degrade);
  Alcotest.(check bool) "poison -> Isolate" true (classify_exn (f Plan.Poison_request) = Isolate);
  Alcotest.(check bool) "resource -> Degrade" true
    (classify_exn (f Plan.Resource_exhausted) = Degrade);
  Alcotest.(check bool) "other -> No_fault" true (classify_exn (Failure "x") = No_fault)

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)
(* ------------------------------------------------------------------ *)

let test_breaker_lifecycle () =
  let now = ref 0.0 in
  let b = Breaker.create ~clock:(fun () -> !now) { Breaker.threshold = 2; cooldown_s = 10.0 } in
  let key = "be|arch" in
  let acquire () = Breaker.acquire b ~key in
  Alcotest.(check bool) "fresh key proceeds" true (acquire () = `Proceed);
  Breaker.failure b ~key ~probe:false;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.state b ~key = Breaker.Closed);
  ignore (acquire ());
  Breaker.failure b ~key ~probe:false;
  Alcotest.(check bool) "second consecutive failure trips" true (Breaker.state b ~key = Breaker.Open);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b ~key);
  Alcotest.(check bool) "open short-circuits" true (acquire () = `Short_circuit);
  now := 11.0;
  Alcotest.(check bool) "cooldown elapsed -> probe" true (acquire () = `Probe);
  Alcotest.(check bool) "probe slot is exclusive" true (acquire () = `Short_circuit);
  Breaker.failure b ~key ~probe:true;
  Alcotest.(check bool) "probe failure reopens" true (Breaker.state b ~key = Breaker.Open);
  Alcotest.(check int) "reopen counts as a trip" 2 (Breaker.trips b ~key);
  now := 25.0;
  Alcotest.(check bool) "second probe" true (acquire () = `Probe);
  Breaker.success b ~key ~probe:true;
  Alcotest.(check bool) "probe success closes" true (Breaker.state b ~key = Breaker.Closed);
  Alcotest.(check bool) "closed proceeds again" true (acquire () = `Proceed)

let test_breaker_success_resets () =
  let b = Breaker.create ~clock:(fun () -> 0.0) { Breaker.threshold = 2; cooldown_s = 0.0 } in
  let key = "k" in
  Breaker.failure b ~key ~probe:false;
  Breaker.success b ~key ~probe:false;
  Breaker.failure b ~key ~probe:false;
  Alcotest.(check bool) "non-consecutive failures don't trip" true
    (Breaker.state b ~key = Breaker.Closed);
  (* Keys are independent. *)
  Breaker.failure b ~key:"other" ~probe:false;
  Breaker.failure b ~key:"other" ~probe:false;
  Alcotest.(check bool) "other key tripped" true (Breaker.state b ~key:"other" = Breaker.Open);
  Alcotest.(check bool) "first key unaffected" true (Breaker.state b ~key = Breaker.Closed)

let test_breaker_validation () =
  let bad cfg = try ignore (Breaker.create cfg); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "threshold 0 refused" true
    (bad { Breaker.threshold = 0; cooldown_s = 0.0 });
  Alcotest.(check bool) "negative cooldown refused" true
    (bad { Breaker.threshold = 1; cooldown_s = -1.0 })

(* ------------------------------------------------------------------ *)
(* End-to-end chaos determinism                                        *)
(* ------------------------------------------------------------------ *)

let chaos_snapshot ~seed ~rate ~n =
  (* The deterministic soak configuration from DESIGN.md: one worker,
     event-driven breaker, no deadlines, queue sized to the run. *)
  let plan = Plan.make ~rates:(Plan.storm ~rate ()) ~seed () in
  let config =
    {
      (Serve.Server.default_config ()) with
      Serve.Server.workers = 1;
      queue_capacity = n;
      max_retries = 3;
      backoff_s = 1e-6;
      backoff_cap_s = 1e-5;
      fault_plan = Some plan;
      breaker = { Breaker.threshold = 1; cooldown_s = 0.0 };
    }
  in
  let s = Serve.Server.start ~cache:(Runtime.Plan_cache.create ()) ~config () in
  let models =
    [|
      model_of "ln" (Ir.Models.layernorm_graph ~m:48 ~n:48);
      model_of "rms" (Ir.Models.rmsnorm_graph ~m:48 ~n:48);
      model_of "sm" (Ir.Models.softmax_graph ~m:48 ~n:48);
    |]
  in
  let be = Backends.Baselines.pytorch in
  let tickets =
    List.init n (fun i -> Serve.Server.submit s ~arch be models.(i mod Array.length models))
  in
  List.iter (fun t -> ignore (Serve.Server.await t)) tickets;
  Serve.Server.shutdown s;
  Serve.Server.stats s

let test_chaos_same_seed_same_outcomes () =
  let a = chaos_snapshot ~seed:3 ~rate:0.05 ~n:42 in
  let b = chaos_snapshot ~seed:3 ~rate:0.05 ~n:42 in
  Alcotest.(check bool) "snapshots identical" true (a = b);
  Alcotest.(check int) "all submitted" 42 a.Serve.Stats.s_submitted;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved a)

let test_chaos_zero_rate_matches_no_plan () =
  (* Rate zero must resolve every request Done with zero retries, exactly
     like a run with no fault plan attached. *)
  let a = chaos_snapshot ~seed:3 ~rate:0.0 ~n:12 in
  Alcotest.(check int) "all done" 12 a.Serve.Stats.s_done;
  Alcotest.(check int) "no retries" 0 a.Serve.Stats.s_retries;
  Alcotest.(check int) "no degradation" 0 a.Serve.Stats.s_degraded

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "same seed, same schedule" `Quick test_plan_deterministic;
          Alcotest.test_case "zero rates pass everything" `Quick test_plan_zero_rates;
          Alcotest.test_case "storm splits the rate" `Quick test_plan_storm_split;
          Alcotest.test_case "storm poison/resource additive" `Quick test_plan_storm_new_kinds;
          Alcotest.test_case "resource keeps legacy schedule" `Quick
            test_plan_resource_preserves_legacy_schedule;
          Alcotest.test_case "poison draw pure and disjoint" `Quick test_plan_poisoned;
          Alcotest.test_case "rate validation" `Quick test_plan_validation;
          Alcotest.test_case "fault fraction plausible" `Quick test_plan_rate_distribution;
          q prop_plan_deterministic;
          q prop_schedule_prefix;
        ] );
      ( "inject",
        [
          Alcotest.test_case "device death latches" `Quick test_inject_death_latches;
          Alcotest.test_case "latency spike recorded" `Quick test_inject_slowdown;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "exec raises Injected" `Quick test_exec_raises_injected;
          Alcotest.test_case "spike scales kernel time" `Quick test_runner_spike_scales_time;
          Alcotest.test_case "zero-rate run is bit-identical" `Quick
            test_model_runner_zero_rate_identical;
          Alcotest.test_case "classify_exn" `Quick test_classify_exn;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "closed -> open -> half-open -> closed" `Quick
            test_breaker_lifecycle;
          Alcotest.test_case "success resets; keys independent" `Quick
            test_breaker_success_resets;
          Alcotest.test_case "config validation" `Quick test_breaker_validation;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "same seed, same outcomes" `Quick test_chaos_same_seed_same_outcomes;
          Alcotest.test_case "zero rate is clean" `Quick test_chaos_zero_rate_matches_no_plan;
        ] );
    ]
