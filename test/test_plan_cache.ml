(* Tests for the thread-safe memoizing plan cache: hit/miss accounting,
   LRU eviction order, key separation across every key component, and a
   concurrent-access smoke test from multiple domains. *)

module PC = Runtime.Plan_cache
module Policy = Backends.Policy

let arch = Gpu.Arch.ampere

(* A real compile wrapped in a call counter, so tests can distinguish
   "served from the table" from "recompiled". *)
let stub ?(be_name = "stub") calls =
  {
    Policy.be_name;
    dispatch_us = 0.0;
    supports = (fun _ -> true);
    compile =
      (fun arch ~name g ->
        Atomic.incr calls;
        Policy.compile_groups arch ~name g (Policy.singletons g));
  }

let g_a = Ir.Models.layernorm_graph ~m:32 ~n:32
let g_b = Ir.Models.rmsnorm_graph ~m:32 ~n:32
let g_c = Ir.Models.softmax_graph ~m:32 ~n:32
let g_d = Ir.Models.batchnorm_graph ~m:32 ~n:32

let test_hit_miss () =
  let calls = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create () in
  let p1 = PC.compile c b arch ~name:"m" g_a in
  let p2 = PC.compile c b arch ~name:"m" g_a in
  Alcotest.(check bool) "second lookup returns the cached plan" true (p1 == p2);
  Alcotest.(check int) "one compile" 1 (Atomic.get calls);
  Alcotest.(check int) "one hit" 1 (PC.hits c);
  Alcotest.(check int) "one miss" 1 (PC.misses c);
  Alcotest.(check int) "one resident plan" 1 (PC.length c);
  Alcotest.(check int) "no evictions" 0 (PC.evictions c)

let test_lru_eviction () =
  let calls = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create ~capacity:2 () in
  ignore (PC.compile c b arch ~name:"m" g_a);
  ignore (PC.compile c b arch ~name:"m" g_b);
  (* Touch A so B becomes least-recently-used. *)
  ignore (PC.compile c b arch ~name:"m" g_a);
  ignore (PC.compile c b arch ~name:"m" g_c);
  Alcotest.(check int) "C evicted exactly one entry" 1 (PC.evictions c);
  Alcotest.(check int) "length stays at capacity" 2 (PC.length c);
  ignore (PC.compile c b arch ~name:"m" g_a);
  Alcotest.(check int) "A survived the eviction" 2 (PC.hits c);
  ignore (PC.compile c b arch ~name:"m" g_b);
  Alcotest.(check int) "B was the victim (recompiled)" 4 (PC.misses c);
  Alcotest.(check int) "compiles track misses" 4 (Atomic.get calls)

let test_key_separation () =
  let calls = Atomic.make 0 in
  let b = stub calls in
  let b2 = stub ~be_name:"other-backend" calls in
  let c = PC.create () in
  ignore (PC.compile c b arch ~name:"m" g_a);
  ignore (PC.compile c b2 arch ~name:"m" g_a);
  ignore (PC.compile c b Gpu.Arch.hopper ~name:"m" g_a);
  ignore (PC.compile c b arch ~name:"m2" g_a);
  ignore (PC.compile c b arch ~name:"m" g_b);
  Alcotest.(check int) "five distinct keys, five misses" 5 (PC.misses c);
  Alcotest.(check int) "no false hits" 0 (PC.hits c);
  Alcotest.(check int) "five resident plans" 5 (PC.length c);
  (* And each key still hits itself. *)
  ignore (PC.compile c b arch ~name:"m" g_a);
  ignore (PC.compile c b2 arch ~name:"m" g_a);
  Alcotest.(check int) "revisits hit" 2 (PC.hits c);
  Alcotest.(check int) "no extra compiles" 5 (Atomic.get calls)

let test_capacity_validation () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Plan_cache.create: capacity must be >= 1") (fun () ->
      ignore (PC.create ~capacity:0 ()))

let test_concurrent_smoke () =
  let calls = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create ~capacity:3 () in
  let graphs = [| g_a; g_b; g_c; g_d |] in
  let per_domain = 25 in
  let worker seed () =
    for i = 0 to per_domain - 1 do
      let g = graphs.((seed + i) mod Array.length graphs) in
      ignore (PC.compile c b arch ~name:"m" g)
    done
  in
  let domains = List.init 4 (fun s -> Domain.spawn (worker s)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "every lookup accounted as hit or miss" (4 * per_domain)
    (PC.hits c + PC.misses c);
  Alcotest.(check bool) "length within capacity" true (PC.length c <= 3);
  Alcotest.(check int) "one compile per miss, even racing" (PC.misses c)
    (Atomic.get calls)

let test_single_flight_same_key () =
  (* Four domains hammer one key. The first to miss claims the in-flight
     slot; the stub's compile blocks until every domain has entered the
     cache, so the losers demonstrably arrive while the compile is still
     running — and must wait on it rather than compile redundantly. *)
  let n = 4 in
  let started = Atomic.make 0 in
  let calls = Atomic.make 0 in
  let b =
    {
      Policy.be_name = "slow-stub";
      dispatch_us = 0.0;
      supports = (fun _ -> true);
      compile =
        (fun arch ~name g ->
          Atomic.incr calls;
          while Atomic.get started < n do
            Domain.cpu_relax ()
          done;
          Policy.compile_groups arch ~name g (Policy.singletons g));
    }
  in
  let c = PC.create () in
  let worker () =
    Atomic.incr started;
    ignore (PC.compile c b arch ~name:"m" g_a)
  in
  let domains = List.init n (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "single compile under same-key race" 1 (Atomic.get calls);
  Alcotest.(check int) "one miss" 1 (PC.misses c);
  Alcotest.(check int) "losers served as hits" (n - 1) (PC.hits c);
  Alcotest.(check int) "one resident plan" 1 (PC.length c)

let test_single_flight_eight_way () =
  (* The serving runtime's regression shape: 8 worker domains (twice the
     old test's pressure) race identical misses. All eight must be inside
     the cache before the one claimed compile is allowed to finish, so
     seven waiters demonstrably queue on the in-flight slot; everyone must
     then share one physically identical plan. *)
  let n = 8 in
  let started = Atomic.make 0 in
  let calls = Atomic.make 0 in
  let b =
    {
      Policy.be_name = "slow-stub-8";
      dispatch_us = 0.0;
      supports = (fun _ -> true);
      compile =
        (fun arch ~name g ->
          Atomic.incr calls;
          while Atomic.get started < n do
            Domain.cpu_relax ()
          done;
          Policy.compile_groups arch ~name g (Policy.singletons g));
    }
  in
  let c = PC.create () in
  let plans = Array.make n None in
  let worker i () =
    Atomic.incr started;
    plans.(i) <- Some (PC.compile c b arch ~name:"m" g_a)
  in
  let domains = List.init n (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "single compile under 8-way race" 1 (Atomic.get calls);
  Alcotest.(check int) "one miss" 1 (PC.misses c);
  Alcotest.(check int) "seven waiters served as hits" (n - 1) (PC.hits c);
  Alcotest.(check int) "one resident plan" 1 (PC.length c);
  let first = Option.get plans.(0) in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d shares the one plan" i)
        true
        (Option.get p == first))
    plans

let test_failed_compile_releases_claim () =
  (* A compile that raises must release its in-flight claim, or the next
     lookup of that key would block forever on a slot that never fills. *)
  let attempts = Atomic.make 0 in
  let b =
    {
      Policy.be_name = "flaky-stub";
      dispatch_us = 0.0;
      supports = (fun _ -> true);
      compile =
        (fun arch ~name g ->
          if Atomic.fetch_and_add attempts 1 = 0 then failwith "transient"
          else Policy.compile_groups arch ~name g (Policy.singletons g));
    }
  in
  let c = PC.create () in
  (try ignore (PC.compile c b arch ~name:"m" g_a)
   with Failure _ -> ());
  ignore (PC.compile c b arch ~name:"m" g_a);
  Alcotest.(check int) "retry recompiles after the failure" 2 (Atomic.get attempts);
  Alcotest.(check int) "both lookups were misses" 2 (PC.misses c);
  Alcotest.(check int) "plan cached on the retry" 1 (PC.length c)

let test_verified_survives_eviction () =
  (* Regression: the verified stamp names plan *content* (the key digests
     the graph), so eviction must not burn it — a re-insert of the same
     digest comes back stamped instead of re-running the functional
     interpreter for work that already completed. *)
  let calls = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create ~capacity:1 () in
  ignore (PC.compile c b arch ~name:"m" g_a);
  PC.mark_verified c b arch ~name:"m" g_a;
  let _, _, v = PC.compile_hit_verified c b arch ~name:"m" g_a in
  Alcotest.(check bool) "stamped while resident" true v;
  ignore (PC.compile c b arch ~name:"m" g_b);
  let _, hit, v = PC.compile_hit_verified c b arch ~name:"m" g_a in
  Alcotest.(check bool) "A recompiled (miss)" false hit;
  Alcotest.(check bool) "content stamp survives the eviction" true v;
  let _, hit, v = PC.compile_hit_verified c b arch ~name:"m" g_a in
  Alcotest.(check bool) "warm hit" true hit;
  Alcotest.(check bool) "re-inserted entry is stamped" true v

let test_mark_verified_during_compile () =
  (* Regression for the single-flight re-insert clobber: mark_verified
     lands while the key's compile is still in flight (the entry is in
     [pending], not [table]). The resolve path used to insert with
     [e_verified = false], silently discarding the stamp; it must re-apply
     it instead. *)
  let in_compile = Atomic.make false in
  let release = Atomic.make false in
  let b =
    {
      Policy.be_name = "slow-stub-mv";
      dispatch_us = 0.0;
      supports = (fun _ -> true);
      compile =
        (fun arch ~name g ->
          Atomic.set in_compile true;
          while not (Atomic.get release) do
            Domain.cpu_relax ()
          done;
          Policy.compile_groups arch ~name g (Policy.singletons g));
    }
  in
  let c = PC.create () in
  let compiler = Domain.spawn (fun () -> PC.compile_hit_verified c b arch ~name:"m" g_a) in
  while not (Atomic.get in_compile) do
    Domain.cpu_relax ()
  done;
  (* The compile is demonstrably in flight; stamp the key now. *)
  PC.mark_verified c b arch ~name:"m" g_a;
  Atomic.set release true;
  let _, hit, v = Domain.join compiler in
  Alcotest.(check bool) "compiler saw its own miss" false hit;
  Alcotest.(check bool) "stamp raced into the in-flight compile" true v;
  let _, hit, v = PC.compile_hit_verified c b arch ~name:"m" g_a in
  Alcotest.(check bool) "next lookup hits" true hit;
  Alcotest.(check bool) "and is verified — the stamp was not clobbered" true v

let () =
  Alcotest.run "plan_cache"
    [
      ( "plan_cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss;
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "key separation" `Quick test_key_separation;
          Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
          Alcotest.test_case "concurrent access smoke" `Quick test_concurrent_smoke;
          Alcotest.test_case "single flight on one key" `Quick
            test_single_flight_same_key;
          Alcotest.test_case "single flight, 8 concurrent misses" `Quick
            test_single_flight_eight_way;
          Alcotest.test_case "failed compile releases claim" `Quick
            test_failed_compile_releases_claim;
          Alcotest.test_case "verified stamp survives eviction" `Quick
            test_verified_survives_eviction;
          Alcotest.test_case "mark_verified during in-flight compile" `Quick
            test_mark_verified_during_compile;
        ] );
    ]
