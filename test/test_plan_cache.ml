(* Tests for the thread-safe memoizing plan cache: hit/miss accounting,
   key separation across every key component, a concurrent-access smoke
   test from multiple domains, and the single flight over a key's compile
   and first run. *)

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
  Alcotest.(check int) "one resident plan" 1 (PC.length c)

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

let test_concurrent_smoke () =
  let calls = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create () in
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
  Alcotest.(check int) "one compile per key, even racing" 4 (Atomic.get calls);
  Alcotest.(check int) "one miss per key" 4 (PC.misses c);
  Alcotest.(check int) "four resident plans" 4 (PC.length c)

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

(* A first run that blocks until [n] lookups have started (and a moment
   more, for them to reach the cache), counting its calls; the first
   [fail_first] of them raise instead of returning. *)
let gated_first_run ?(fail_first = 0) ~started n runs _plan =
  let k = Atomic.fetch_and_add runs 1 in
  while Atomic.get started < n do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.01;
  if k < fail_first then failwith "first run failed"

let test_single_flight_first_run () =
  (* Eight domains look up one cold key, each with a first run. The first
     claims the key for its compile and its first run; the first run holds
     until all eight have started, so the others arrive while it is in
     flight — and must wait for the verified entry, not run it again. *)
  let n = 8 in
  let started = Atomic.make 0 and calls = Atomic.make 0 and runs = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create () in
  let first_run = gated_first_run ~started n runs in
  let worker () =
    Atomic.incr started;
    PC.lookup c ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_a) g_a
  in
  let found = List.map Domain.join (List.init n (fun _ -> Domain.spawn worker)) in
  Alcotest.(check int) "one compile" 1 (Atomic.get calls);
  Alcotest.(check int) "one first run" 1 (Atomic.get runs);
  Alcotest.(check int) "one miss" 1 (PC.misses c);
  Alcotest.(check int) "seven hits" (n - 1) (PC.hits c);
  let ran, served = List.partition (fun (f : unit PC.found) -> Option.is_some f.first) found in
  Alcotest.(check int) "the claimer ran it" 1 (List.length ran);
  Alcotest.(check bool) "the claimer compiled" false (List.hd ran).hit;
  Alcotest.(check int) "seven hits ran nothing" (n - 1)
    (List.length (List.filter (fun (f : unit PC.found) -> f.hit && f.compile_s = 0.0) served));
  List.iter
    (fun (f : unit PC.found) ->
      Alcotest.(check bool) "one shared plan" true (f.plan == (List.hd ran).plan))
    served

let test_raising_first_run () =
  (* A first run that raises releases the claim: a lookup waiting on the
     key is served the plan, which stays resident and unstamped. The next
     lookup with a first run runs it again without recompiling; the one
     after is a verified hit. *)
  let started = Atomic.make 0 and calls = Atomic.make 0 and runs = Atomic.make 0 in
  let b = stub calls in
  let c = PC.create () in
  let first_run = gated_first_run ~fail_first:1 ~started 2 runs in
  let claimer =
    Domain.spawn (fun () ->
        Atomic.incr started;
        match PC.lookup c ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_a) g_a with
        | _ -> Alcotest.fail "the first run should have raised"
        | exception Failure _ -> ())
  in
  while Atomic.get runs < 1 do
    Domain.cpu_relax ()
  done;
  (* The claimer is inside its first run: this lookup waits on the claim. *)
  let waiter =
    Domain.spawn (fun () ->
        Atomic.incr started;
        PC.compile c b arch ~name:"m" g_a)
  in
  Domain.join claimer;
  ignore (Domain.join waiter);
  Alcotest.(check int) "one compile" 1 (Atomic.get calls);
  Alcotest.(check int) "the plan stays resident" 1 (PC.length c);
  let f = PC.lookup c ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_a) g_a in
  Alcotest.(check bool) "rerun is a hit" true f.hit;
  Alcotest.(check bool) "unstamped: the first run runs again" true (Option.is_some f.first);
  Alcotest.(check int) "no recompile" 1 (Atomic.get calls);
  let f = PC.lookup c ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_a) g_a in
  Alcotest.(check bool) "then a verified hit" true (f.hit && Option.is_none f.first);
  Alcotest.(check int) "two first runs in all" 2 (Atomic.get runs)

let () =
  Alcotest.run "plan_cache"
    [
      ( "plan_cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss;
          Alcotest.test_case "key separation" `Quick test_key_separation;
          Alcotest.test_case "concurrent access smoke" `Quick test_concurrent_smoke;
          Alcotest.test_case "single flight on one key" `Quick
            test_single_flight_same_key;
          Alcotest.test_case "one first run for 8 concurrent lookups" `Quick
            test_single_flight_first_run;
          Alcotest.test_case "raising first run releases claim" `Quick
            test_raising_first_run;
          Alcotest.test_case "single flight, 8 concurrent misses" `Quick
            test_single_flight_eight_way;
          Alcotest.test_case "failed compile releases claim" `Quick
            test_failed_compile_releases_claim;
        ] );
    ]
