(* Bounded soak for the serving runtime: 4 worker domains, >= 1k mixed
   requests (models x backends x deadlines) through a shared
   Plan_cache, submitted from the main domain with backpressure engaged.
   Asserts the accounting conservation law against both the server's own
   counters and an independent per-ticket tally, that nothing fails, that
   a captured Obs profile validates with the serve.request span present,
   and that a second server reusing the warmed shared cache serves every
   (model, backend) combination without a single compile miss.

   Deterministic load plan: seeded PRNG, SPACEFUSION_STRESS_SEED overrides
   the seed, and every assertion message names it so a failure is
   reproducible. *)

let seed =
  match Sys.getenv_opt "SPACEFUSION_STRESS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

let check msg = Alcotest.(check bool) (Printf.sprintf "[seed=%d] %s" seed msg) true

let arch = Gpu.Arch.ampere
let backends = [ Backends.Baselines.pytorch; Backends.Baselines.cublas; Backends.Baselines.cublaslt ]

let models =
  let one name g = { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] } in
  [
    one "ln" (Ir.Models.layernorm_graph ~m:32 ~n:64);
    one "rms" (Ir.Models.rmsnorm_graph ~m:32 ~n:64);
    one "softmax" (Ir.Models.softmax_graph ~m:32 ~n:64);
    one "mlp" (Ir.Models.mlp ~layers:2 ~m:16 ~n:32 ~k:32);
    one "sm-gemm" (Ir.Models.softmax_gemm ~m:16 ~l:32 ~n:32);
    {
      Ir.Models.model_name = "two-sp";
      subprograms =
        [
          { Ir.Models.sp_name = "a"; graph = Ir.Models.layernorm_graph ~m:16 ~n:32; count = 2 };
          { Ir.Models.sp_name = "b"; graph = Ir.Models.softmax_graph ~m:16 ~n:32; count = 1 };
        ];
    };
  ]

let config workers =
  {
    (Serve.Server.default_config ()) with
    Serve.Server.workers;
    queue_capacity = 64;
  }

let classify = function
  | Serve.Server.Done r -> `Done r
  | Serve.Server.Rejected _ -> `Rejected
  | Serve.Server.Timed_out -> `Timed_out
  | Serve.Server.Failed msg -> `Failed msg
  | Serve.Server.Shed _ -> `Shed
  | Serve.Server.Quarantined -> `Quarantined

let test_soak () =
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let cache = Runtime.Plan_cache.create () in
  let s = Serve.Server.start ~cache ~config:(config 4) () in
  (* Deterministic warm-up prefix: every (model, backend) combination once,
     so phase 2 can demand an all-hit cache regardless of what the random
     storm happens to draw. *)
  let warm =
    List.concat_map (fun m -> List.map (fun b -> Serve.Server.submit s ~arch b m) backends) models
  in
  List.iter
    (fun tk ->
      match classify (Serve.Server.await tk) with
      | `Done _ -> ()
      | `Failed msg -> Alcotest.failf "[seed=%d] warm-up failed: %s" seed msg
      | `Rejected | `Timed_out | `Shed | `Quarantined ->
          Alcotest.failf "[seed=%d] warm-up not served" seed)
    warm;
  (* Random storm: 1200 mixed requests. ~3%% carry an already-expired
     deadline (guaranteed Timed_out when admitted); submission outpaces
     4 workers at times, so admission rejections exercise backpressure. *)
  let n = 1200 in
  let tickets =
    List.init n (fun i ->
        if i mod 50 = 0 then Unix.sleepf 0.001;
        let m = List.nth models (Random.State.int rng (List.length models)) in
        let b = List.nth backends (Random.State.int rng (List.length backends)) in
        let deadline_s = if Random.State.int rng 100 < 3 then Some (-1.0) else None in
        Serve.Server.submit s ?deadline_s ~arch b m)
  in
  let done_ = ref 0 and rejected = ref 0 and timed_out = ref 0 and failed = ref 0 in
  List.iter
    (fun tk ->
      match classify (Serve.Server.await tk) with
      | `Done r ->
          incr done_;
          check "latency covers queue wait" Serve.Server.(r.r_latency_s >= r.r_queue_s)
      | `Rejected -> incr rejected
      | `Timed_out -> incr timed_out
      | `Failed msg -> incr failed; Printf.eprintf "[seed=%d] failure: %s\n%!" seed msg
      | `Shed | `Quarantined -> Alcotest.failf "[seed=%d] shed without overload control" seed)
    tickets;
  Serve.Server.shutdown s;
  let st = Serve.Server.stats s in
  let total = List.length warm + n in
  (* The server's counters, an independent per-ticket tally, and the
     conservation law must all agree. *)
  check "conserved" (Serve.Stats.conserved st);
  Alcotest.(check int) (Printf.sprintf "[seed=%d] submitted" seed) total st.Serve.Stats.s_submitted;
  Alcotest.(check int)
    (Printf.sprintf "[seed=%d] done agrees with tickets" seed)
    (!done_ + List.length warm) st.Serve.Stats.s_done;
  Alcotest.(check int) (Printf.sprintf "[seed=%d] rejected agrees" seed) !rejected
    st.Serve.Stats.s_rejected;
  Alcotest.(check int) (Printf.sprintf "[seed=%d] timed_out agrees" seed) !timed_out
    st.Serve.Stats.s_timed_out;
  Alcotest.(check int) (Printf.sprintf "[seed=%d] nothing failed" seed) 0 (!failed + st.Serve.Stats.s_failed);
  Alcotest.(check int)
    (Printf.sprintf "[seed=%d] one latency per done request, up to the ring's capacity" seed)
    (min st.Serve.Stats.s_done Serve.Stats.latency_capacity)
    (List.length (Serve.Server.latencies s));
  check "backlog empty after shutdown" (Serve.Server.queue_depth s = 0);
  (* Draining shutdown: every admitted request ends Done or Timed_out —
     nothing is dropped, nothing is double-counted. (How MANY get admitted
     vs rejected depends on machine load; the invariants do not.) *)
  Alcotest.(check int)
    (Printf.sprintf "[seed=%d] admitted all terminate via the queue" seed)
    st.Serve.Stats.s_admitted
    (st.Serve.Stats.s_done + st.Serve.Stats.s_timed_out);
  check "storm served a meaningful batch" (st.Serve.Stats.s_done > List.length warm);
  (* The captured profile must be structurally valid and contain the
     serve.request span recorded from the worker domains. *)
  (match
     Obs.Report.validate ~required_spans:[ "serve.request" ]
       (Obs.Report.to_json (Obs.Report.capture ()))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "[seed=%d] profile validation: %s" seed e);
  (* Phase 2: a fresh server over the same Plan_cache serves every
     combination entirely from cached plans. *)
  let s2 = Serve.Server.start ~cache ~config:(config 2) () in
  let again =
    List.concat_map (fun m -> List.map (fun b -> (m, b, Serve.Server.submit s2 ~arch b m)) backends) models
  in
  List.iter
    (fun ((m : Ir.Models.model), (b : Backends.Policy.t), tk) ->
      match classify (Serve.Server.await tk) with
      | `Done r ->
          Alcotest.(check int)
            (Printf.sprintf "[seed=%d] %s/%s all plans cached" seed m.model_name
               b.Backends.Policy.be_name)
            0 r.Serve.Server.r_result.Runtime.Model_runner.m_cache_misses
      | _ -> Alcotest.failf "[seed=%d] warmed request not served" seed)
    again;
  Serve.Server.shutdown s2;
  check "second server conserved" (Serve.Stats.conserved (Serve.Server.stats s2))

(* ------------------------------------------------------------------ *)
(* Mixed-shape soak (shape classes + continuous batching)              *)
(* ------------------------------------------------------------------ *)

let counter name =
  match Obs.Metrics.find name with Some (Obs.Metrics.Counter n) -> n | _ -> 0

(* A [Pow2] 4-domain storm over randomized batch dims: every sliceable
   family draws its leading dim from one shape class (16, 32], so the
   whole storm shares one classed plan per family while concurrent
   requests stack into sliced batches. After the storm, a second warmed
   server serving in-class shapes must run entirely on verified classed
   plans: zero functional executions, zero guard-miss compiles, zero
   cache misses — the shape-class analogue of phase 2 above. *)
let test_mixed_shape_soak () =
  Obs.Metrics.reset ();
  let rng = Random.State.make [| seed + 1 |] in
  let one name g =
    { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }
  in
  (* Sliceable families parameterized by their batch dim, plus one
     non-sliceable fixed-shape model riding along in [Shared] mode. *)
  let sliceable =
    [
      ("ln", fun r -> one "ln" (Ir.Models.layernorm_graph ~m:r ~n:64));
      ("rms", fun r -> one "rms" (Ir.Models.rmsnorm_graph ~m:r ~n:64));
      ("softmax", fun r -> one "softmax" (Ir.Models.softmax_graph ~m:r ~n:64));
      ("mlp", fun r -> one "mlp" (Ir.Models.mlp ~layers:2 ~m:r ~n:32 ~k:32));
    ]
  in
  let fixed = one "sm-gemm" (Ir.Models.softmax_gemm ~m:16 ~l:32 ~n:32) in
  let cache = Runtime.Plan_cache.create () in
  let cfg workers =
    { (config workers) with Serve.Server.shapes = Runtime.Shape_class.Pow2 }
  in
  let s = Serve.Server.start ~cache ~config:(cfg 4) () in
  let submit srv m = Serve.Server.submit srv ~arch Backends.Baselines.spacefusion m in
  let must_serve srv m what =
    match classify (Serve.Server.await (submit srv m)) with
    | `Done r -> r
    | `Failed msg -> Alcotest.failf "[seed=%d] %s failed: %s" seed what msg
    | `Rejected | `Timed_out | `Shed | `Quarantined ->
        Alcotest.failf "[seed=%d] %s not served" seed what
  in
  (* Deterministic warm-up: each family once at the class representative
     (and the non-sliceable model at its only shape), sequentially, so
     every plan phase 2 needs is compiled, functionally verified and
     stamped before the storm muddies the water. *)
  List.iter (fun (n, f) -> ignore (must_serve s (f 32) ("warm " ^ n))) sliceable;
  ignore (must_serve s fixed "warm sm-gemm");
  (* Storm: 600 requests with randomized in-class batch dims. Concurrent
     same-family requests share a digest, so workers stack them into
     sliced batches (executing one class up at the stacked total). *)
  let n = 600 in
  let tickets =
    List.init n (fun i ->
        if i mod 40 = 0 then Unix.sleepf 0.001;
        let rows = 17 + Random.State.int rng 16 in
        let m =
          if Random.State.int rng 5 = 0 then fixed
          else (snd (List.nth sliceable (Random.State.int rng 4))) rows
        in
        let deadline_s = if Random.State.int rng 100 < 3 then Some (-1.0) else None in
        Serve.Server.submit s ?deadline_s ~arch Backends.Baselines.spacefusion m)
  in
  let done_ = ref 0 and rejected = ref 0 and timed_out = ref 0 and failed = ref 0 in
  let batched_members = ref 0 in
  List.iter
    (fun tk ->
      match classify (Serve.Server.await tk) with
      | `Done r ->
          incr done_;
          if r.Serve.Server.r_batch > 1 then incr batched_members;
          check "latency covers queue wait" Serve.Server.(r.r_latency_s >= r.r_queue_s);
          (match r.Serve.Server.r_rows with
          | Some (off, len) -> check "slice in range" (off >= 0 && len > 0)
          | None -> ())
      | `Rejected -> incr rejected
      | `Timed_out -> incr timed_out
      | `Failed msg ->
          incr failed;
          Printf.eprintf "[seed=%d] mixed-shape failure: %s\n%!" seed msg
      | `Shed | `Quarantined -> Alcotest.failf "[seed=%d] shed without overload control" seed)
    tickets;
  Serve.Server.shutdown s;
  let st = Serve.Server.stats s in
  check "mixed-shape conserved" (Serve.Stats.conserved st);
  Alcotest.(check int) (Printf.sprintf "[seed=%d] nothing failed" seed) 0
    (!failed + st.Serve.Stats.s_failed);
  Alcotest.(check int)
    (Printf.sprintf "[seed=%d] tally agrees" seed)
    st.Serve.Stats.s_done
    (!done_ + List.length sliceable + 1);
  check "admitted all terminate"
    (st.Serve.Stats.s_admitted = st.Serve.Stats.s_done + st.Serve.Stats.s_timed_out);
  (* Phase 2: a fresh warmed server over the same cache serves in-class
     shapes it has never seen (17, 23, 32 rows) without ever touching the
     functional interpreter or recompiling — the guard admits them all
     into the warm class plan. *)
  let s2 = Serve.Server.start ~cache ~config:(cfg 2) () in
  let funct0 = counter "run.functional_execs" in
  let miss0 = counter "shape_class.guard_misses" in
  List.iter
    (fun (fname, f) ->
      List.iter
        (fun rows ->
          let r = must_serve s2 (f rows) (Printf.sprintf "warmed %s@%d" fname rows) in
          Alcotest.(check int)
            (Printf.sprintf "[seed=%d] %s@%d all plans cached" seed fname rows)
            0 r.Serve.Server.r_result.Runtime.Model_runner.m_cache_misses)
        [ 17; 23; 32 ])
    sliceable;
  ignore (must_serve s2 fixed "warmed sm-gemm");
  Serve.Server.shutdown s2;
  Alcotest.(check int)
    (Printf.sprintf "[seed=%d] zero functional executions on the warmed server" seed)
    0
    (counter "run.functional_execs" - funct0);
  Alcotest.(check int)
    (Printf.sprintf "[seed=%d] zero guard-miss compiles on the warmed server" seed)
    0
    (counter "shape_class.guard_misses" - miss0);
  check "second server conserved" (Serve.Stats.conserved (Serve.Server.stats s2))

let () =
  Alcotest.run "serve-stress"
    [
      ( "soak",
        [
          Alcotest.test_case "4 domains x 1k+ mixed requests" `Quick test_soak;
          Alcotest.test_case "4 domains x mixed shapes, Pow2 batching" `Quick
            test_mixed_shape_soak;
        ] );
    ]
