(* Tests for the differential-verification subsystem itself: generator
   determinism and closure under shrinking, the oracle on known-good
   plans, the seeded-defect corpus gate, shrinker minimality, and the
   non-finite / failing-seed reporting contracts of Runtime.Verify. *)

module G = Ir.Graph
module Op = Ir.Op

let arch = Gpu.Arch.ampere

let contains ~affix s = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let spec = { Check.Gen.sp_nodes = 9; sp_seed = 1234 } in
  let t1 = Check.Gen.trace_of_spec spec and t2 = Check.Gen.trace_of_spec spec in
  Alcotest.(check bool) "same spec, same trace" true (t1 = t2);
  let dsl t = Ir.Parse.to_dsl (Check.Gen.build t) in
  Alcotest.(check string) "same trace, same graph" (dsl t1) (dsl t2)

let test_gen_sublists_well_typed () =
  (* The closure property the shrinker relies on: every prefix of a
     trace's entry list still builds (and the build has an output). *)
  let t = Check.Gen.trace_of_spec { Check.Gen.sp_nodes = 12; sp_seed = 99 } in
  let rec prefixes = function [] -> [ [] ] | x :: r -> [] :: List.map (fun p -> x :: p) (prefixes r) in
  List.iter
    (fun entries ->
      let g = Check.Gen.build { t with Check.Gen.g_entries = entries } in
      Alcotest.(check bool) "has outputs" true (G.outputs g <> []))
    (prefixes t.Check.Gen.g_entries)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_accepts_correct_plans () =
  let zoo =
    [
      ("layernorm", Ir.Models.layernorm_graph ~m:16 ~n:32);
      ("softmax", Ir.Models.softmax_graph ~m:8 ~n:16);
      ("mha", Ir.Models.mha ~batch_heads:2 ~seq_q:8 ~seq_kv:8 ~head_dim:4 ());
    ]
  in
  List.iter
    (fun (name, g) ->
      match Check.Oracle.check ~arch ~name Backends.Baselines.spacefusion g with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg))
    zoo

let test_corpus_gate () =
  let entries = Check.Fuzz.corpus_gate ~arch () in
  (* Every seeded defect must be flagged on at least one base plan. *)
  List.iter
    (fun (m : Check.Mutation.t) ->
      let mine = List.filter (fun (e : Check.Fuzz.corpus_entry) -> e.c_mutation = m.m_name) entries in
      Alcotest.(check bool) (m.m_name ^ " applies somewhere") true
        (List.exists
           (fun (e : Check.Fuzz.corpus_entry) -> e.c_status <> Check.Fuzz.Inapplicable)
           mine);
      Alcotest.(check bool) (m.m_name ^ " detected") true
        (List.exists
           (fun (e : Check.Fuzz.corpus_entry) ->
             match e.c_status with Check.Fuzz.Detected _ -> true | _ -> false)
           mine))
    Check.Mutation.corpus;
  Alcotest.(check bool) "gate passes" true (Check.Fuzz.corpus_pass entries)

(* Both walks sum integer-valued floats below 2^53, so their counters are
   exact: one flop in 10^12 is a divergence, not rounding. *)
let test_counters_exact () =
  let ks gemm =
    {
      Gpu.Exec.ks_name = "k";
      ks_blocks = 64;
      ks_steps = 1;
      ks_gemm_flops = gemm;
      ks_simd_flops = 0.0;
      ks_smem_bytes = 0;
      ks_reg_bytes = 0;
      ks_moved_bytes = 0.0;
      ks_reads = [];
      ks_writes = [];
      ks_tags = [];
    }
  in
  Alcotest.(check bool) "equal counters agree" true
    (Check.Oracle.counters_agree ~name:"exact" (ks 1e12) (ks 1e12) = Ok ());
  match Check.Oracle.counters_agree ~name:"exact" (ks 1e12) (ks (1e12 +. 1.0)) with
  | Ok () -> Alcotest.fail "a one-flop difference at 1e12 was accepted"
  | Error msg ->
      Alcotest.(check bool) ("names both sums: " ^ msg) true
        (contains ~affix:"1000000000000 <> 1000000000001" msg)

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

(* A backend with a planted defect: it compiles correctly, then drops the
   first store. Every graph it compiles fails verification, so the
   shrinker should walk any failing case down to a near-empty graph. *)
let mutant_backend =
  {
    Backends.Baselines.spacefusion with
    Backends.Policy.be_name = "mutant";
    compile =
      (fun arch ~name g ->
        let p = Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name g in
        match Check.Mutation.drop_store.Check.Mutation.m_mutate p with
        | Some p' -> p'
        | None -> p);
  }

let test_shrinker_minimizes () =
  let spec = { Check.Gen.sp_nodes = 10; sp_seed = 3 } in
  let trace = Check.Gen.trace_of_spec spec in
  let fails t =
    let g = Check.Gen.build t in
    Runtime.Verify.reference_finite g
    && Check.Oracle.check ~arch ~name:"shrink" mutant_backend g <> Ok ()
  in
  Alcotest.(check bool) "the original case fails" true (fails trace);
  let shrunk = Check.Gen.shrink ~still_fails:fails trace in
  Alcotest.(check bool) "the shrunk case still fails" true (fails shrunk);
  let n = G.num_nodes (Check.Gen.build shrunk) in
  Alcotest.(check bool) (Printf.sprintf "shrunk to <= 4 nodes (got %d)" n) true (n <= 4)

(* ------------------------------------------------------------------ *)
(* Verify reporting contracts                                          *)
(* ------------------------------------------------------------------ *)

let test_verify_names_failing_seed () =
  let g = Ir.Models.layernorm_graph ~m:8 ~n:16 in
  let plan =
    Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"v" g
  in
  let bad =
    match Check.Mutation.swap_binop.Check.Mutation.m_mutate plan with
    | Some p -> p
    | None -> Alcotest.fail "swap_binop should apply to layernorm"
  in
  match Runtime.Verify.verify_plan ~arch ~name:"v" g bad with
  | Ok () -> Alcotest.fail "mutated plan passed verification"
  | Error msg ->
      Alcotest.(check bool) ("message names the seed: " ^ msg) true
        (contains ~affix:"seed" msg)

let test_verify_rejects_nonfinite () =
  (* exp(exp(exp(exp x))) overflows for standard-normal inputs, so the
     reference itself is non-finite: verify must fail rather than compare
     infinities for equality, and fuzzers must be able to skip the case. *)
  let g = G.create () in
  let x = G.input g "x0" [| 4; 4 |] in
  let rec chain n id = if n = 0 then id else chain (n - 1) (G.unary g Op.Exp id) in
  G.mark_output g (chain 4 x);
  Alcotest.(check bool) "reference_finite is false" false
    (Runtime.Verify.reference_finite g);
  let plan =
    Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"nf" g
  in
  match Runtime.Verify.verify_plan ~arch ~name:"nf" g plan with
  | Ok () -> Alcotest.fail "non-finite outputs passed verification"
  | Error msg ->
      Alcotest.(check bool) ("message flags non-finite: " ^ msg) true
        (contains ~affix:"non-finite" msg)

let test_verify_sweeps_seeds () =
  (* A sweep over n seeds executes the plan n times; an empty sweep is a
     caller bug. *)
  let g = Ir.Models.softmax_graph ~m:4 ~n:8 in
  let plan =
    Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"s" g
  in
  (match Runtime.Verify.verify_plan ~seeds:[ 1; 2; 3; 4 ] ~arch ~name:"s" g plan with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.check_raises "empty seed list rejected"
    (Invalid_argument "Verify.verify_plan: empty seed list") (fun () ->
      ignore (Runtime.Verify.verify_plan ~seeds:[] ~arch ~name:"s" g plan))

(* A plan that declares a tensor at a shape the graph does not have is
   a verification failure, reported like any other: named, with both
   shapes and the seed, never raised. *)
let test_verify_reports_shape_clash () =
  let g = Ir.Models.softmax_graph ~m:4 ~n:8 in
  let plan = Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"v" g in
  let redeclare name shape =
    Gpu.Plan.make ~name:plan.p_name ~kernels:plan.p_kernels
      ~decls:(List.map (fun (n, s) -> if n = name then (n, shape) else (n, s)) plan.p_decls)
  in
  List.iter
    (fun (name, shape, expected) ->
      match Runtime.Verify.verify_plan ~arch ~name:"v" g (redeclare name shape) with
      | Ok () -> Alcotest.failf "%s declared %s passed verification" name (Shape.to_string shape)
      | Error msg -> Alcotest.(check string) name expected msg)
    [
      ("v:out0", [| 8; 8 |], "v: output v:out0 has shape [8x8], reference [4x8] (seed 42)");
      ("x", [| 4; 9 |], "v: input x is declared [4x9] by the plan but drawn [4x8] (seed 42)");
    ]

(* Above the floor, seeds are checked on helper domains; the answer must
   be the serial sweep's, down to which failing seed it names. *)
let test_verify_parallel_matches_serial () =
  let ln = Ir.Models.layernorm_graph ~m:64 ~n:256 in
  let plan = Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"p" ln in
  let bad =
    match Check.Mutation.swap_binop.Check.Mutation.m_mutate plan with
    | Some p -> p
    | None -> Alcotest.fail "swap_binop should apply to layernorm"
  in
  (* exp(exp(rowsum x − 3)) over 64×64 inputs overflows on some seeds
     only: of seeds 0, 1, 2 and 4, seeds 1 and 4 overflow. *)
  let overflow = G.create () in
  let x = G.input overflow "x0" [| 64; 64 |] in
  let s = G.reduce overflow Op.Rsum ~keepdims:true ~axis:1 x in
  let s = G.binary overflow Op.Sub s (G.const overflow 3.0) in
  G.mark_output overflow (G.unary overflow Op.Exp (G.unary overflow Op.Exp s));
  let overflow_plan =
    Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"p" overflow
  in
  List.iter
    (fun (case, g, seeds, p, expect) ->
      let verify jobs =
        Core.Parallel.with_jobs jobs (fun () -> Runtime.Verify.verify_plan ?seeds ~arch ~name:"p" g p)
      in
      let serial = verify 1 in
      (match (serial, expect) with
      | Ok (), None -> ()
      | Error msg, Some seed ->
          Alcotest.(check bool) (case ^ " names the first failing seed: " ^ msg) true
            (contains ~affix:(Printf.sprintf "seed %d)" seed) msg)
      | _ -> Alcotest.failf "%s: unexpected verdict" case);
      Alcotest.(check (result unit string)) case serial (verify 4))
    [
      ("good plan", ln, None, plan, None);
      ("swap_binop", ln, None, bad, Some 42);
      ("good plan, 4 seeds", ln, Some [ 5; 6; 7; 8 ], plan, None);
      ("swap_binop, 4 seeds", ln, Some [ 5; 6; 7; 8 ], bad, Some 5);
      ("later seeds overflow", overflow, Some [ 0; 1; 2; 4 ], overflow_plan, Some 1);
    ]

(* ------------------------------------------------------------------ *)
(* Fuzz driver                                                         *)
(* ------------------------------------------------------------------ *)

let test_fuzz_deterministic_and_green () =
  let config =
    { Check.Fuzz.default_config with Check.Fuzz.cf_budget = 8; cf_archs = [ arch ] }
  in
  let r1 = Check.Fuzz.fuzz config in
  let r2 = Check.Fuzz.fuzz config in
  Alcotest.(check int) "same checks both runs" r1.Check.Fuzz.r_checks r2.Check.Fuzz.r_checks;
  Alcotest.(check int) "no failures" 0 (List.length r1.Check.Fuzz.r_failures);
  Alcotest.(check bool) "json emits pass" true
    (contains ~affix:"\"pass\":true" (Check.Fuzz.report_to_json r1))

let () =
  Alcotest.run "check"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "closed under entry sublists" `Quick
            test_gen_sublists_well_typed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "accepts correct plans" `Quick
            test_oracle_accepts_correct_plans;
          Alcotest.test_case "corpus gate detects every defect" `Quick test_corpus_gate;
          Alcotest.test_case "counters compared exactly" `Quick test_counters_exact;
        ] );
      ( "shrink",
        [ Alcotest.test_case "minimizes to <= 4 nodes" `Quick test_shrinker_minimizes ] );
      ( "verify",
        [
          Alcotest.test_case "failing seed named" `Quick test_verify_names_failing_seed;
          Alcotest.test_case "non-finite rejected" `Quick test_verify_rejects_nonfinite;
          Alcotest.test_case "seed sweep" `Quick test_verify_sweeps_seeds;
          Alcotest.test_case "shape clash reported" `Quick test_verify_reports_shape_clash;
          Alcotest.test_case "parallel matches serial" `Quick test_verify_parallel_matches_serial;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "deterministic and green" `Quick
            test_fuzz_deterministic_and_green;
        ] );
    ]
