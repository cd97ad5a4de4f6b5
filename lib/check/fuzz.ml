(* Bounded fuzzing driver around the differential oracle, plus the
   seeded-defect corpus gate. Everything is deterministic under a fixed
   seed so CI failures reproduce exactly. *)

module G = Ir.Graph
module Op = Ir.Op

type config = {
  cf_budget : int;
  cf_seed : int;
  cf_max_nodes : int;
  cf_seeds : int list;
  cf_archs : Gpu.Arch.t list;
  cf_backends : Backends.Policy.t list;
}

let default_backends =
  [
    Backends.Baselines.spacefusion;
    Backends.Baselines.welder;
    Backends.Baselines.astitch;
    Backends.Baselines.pytorch;
  ]

let default_config =
  {
    cf_budget = 50;
    cf_seed = 7;
    cf_max_nodes = 12;
    cf_seeds = Runtime.Verify.default_seeds;
    cf_archs = [ Gpu.Arch.volta; Gpu.Arch.ampere; Gpu.Arch.hopper ];
    cf_backends = default_backends;
  }

type failure = {
  f_backend : string;
  f_arch : string;
  f_spec : Gen.spec;
  f_msg : string;
  f_shrunk : Gen.t;
  f_shrunk_nodes : int;
}

type corpus_status = Detected of string | Missed | Inapplicable

type corpus_entry = { c_mutation : string; c_base : string; c_status : corpus_status }

type report = {
  r_cases : int;
  r_skipped : int;  (** non-finite reference: vacuous for comparison *)
  r_checks : int;  (** oracle invocations (case x arch x backend) *)
  r_failures : failure list;
  r_corpus : corpus_entry list;
}

(* ------------------------------------------------------------------ *)
(* Random-graph fuzzing                                                *)
(* ------------------------------------------------------------------ *)

let fuzz config =
  let rng = Rng.create config.cf_seed in
  let int lo hi =
    lo + (Int64.to_int (Rng.next_int64 rng) land max_int) mod (hi - lo + 1)
  in
  let skipped = ref 0 and checks = ref 0 and failures = ref [] in
  for _ = 1 to config.cf_budget do
    let spec =
      { Gen.sp_nodes = int 1 config.cf_max_nodes; sp_seed = int 0 1_000_000 }
    in
    let trace = Gen.trace_of_spec spec in
    let g = Gen.build trace in
    if not (Runtime.Verify.reference_finite ~seeds:config.cf_seeds g) then incr skipped
    else
      List.iter
        (fun arch ->
          List.iter
            (fun (b : Backends.Policy.t) ->
              if b.supports arch then begin
                incr checks;
                match Oracle.check ~seeds:config.cf_seeds ~arch ~name:"fuzz" b g with
                | Ok () -> ()
                | Error msg ->
                    (* Shrink against the same (backend, arch) oracle; the
                       finiteness guard keeps the shrinker from walking
                       into numerically degenerate territory where the
                       comparison would be vacuous. *)
                    let still_fails t =
                      let g' = Gen.build t in
                      Runtime.Verify.reference_finite ~seeds:config.cf_seeds g'
                      && Oracle.check ~seeds:config.cf_seeds ~arch ~name:"fuzz" b g' <> Ok ()
                    in
                    let shrunk = Gen.shrink ~max_steps:120 ~still_fails trace in
                    failures :=
                      {
                        f_backend = b.be_name;
                        f_arch = arch.Gpu.Arch.name;
                        f_spec = spec;
                        f_msg = msg;
                        f_shrunk = shrunk;
                        f_shrunk_nodes = G.num_nodes (Gen.build shrunk);
                      }
                      :: !failures
              end)
            config.cf_backends)
        config.cf_archs
  done;
  {
    r_cases = config.cf_budget;
    r_skipped = !skipped;
    r_checks = !checks;
    r_failures = List.rev !failures;
    r_corpus = [];
  }

(* ------------------------------------------------------------------ *)
(* Seeded-defect corpus gate                                           *)
(* ------------------------------------------------------------------ *)

(* Base plans the mutations are planted into: together they cover grids,
   gemms, binaries, reductions, non-zero fills, and — via the long-row
   layernorm, which only fits on chip one temporal tile at a time — a
   serial loop with cross-step accumulation, so every mutation has at
   least one applicable site. *)
let bases ~arch =
  let sf = Backends.Baselines.spacefusion in
  [
    ("mha", Ir.Models.mha ~batch_heads:2 ~seq_q:16 ~seq_kv:32 ~head_dim:8 (), sf);
    ("layernorm", Ir.Models.layernorm_graph ~m:16 ~n:32, sf);
    ("softmax_gemm", Ir.Models.softmax_gemm ~m:8 ~l:32 ~n:8, sf);
    ("layernorm_long", Ir.Models.layernorm_graph ~m:4 ~n:65536, sf);
  ]
  |> List.map (fun (name, g, (b : Backends.Policy.t)) ->
         (name, g, b.compile arch ~name g))

let corpus_gate ?(arch = Gpu.Arch.ampere) () =
  let bases = bases ~arch in
  List.concat_map
    (fun (m : Mutation.t) ->
      List.map
        (fun (bname, g, plan) ->
          let status =
            match m.m_mutate plan with
            | None -> Inapplicable
            | Some mutated -> (
                match Oracle.check_plan ~arch ~name:bname g mutated with
                | Error msg -> Detected msg
                | Ok () -> Missed)
          in
          { c_mutation = m.m_name; c_base = bname; c_status = status })
        bases)
    Mutation.corpus

(* Every mutation must be caught on at least one base where it applies,
   and none may be applicable nowhere. *)
let corpus_pass entries =
  List.for_all
    (fun (m : Mutation.t) ->
      List.exists
        (fun e ->
          e.c_mutation = m.m_name && match e.c_status with Detected _ -> true | _ -> false)
        entries)
    Mutation.corpus

let pass r = r.r_failures = [] && (r.r_corpus = [] || corpus_pass r.r_corpus)

let m_cases = Obs.Metrics.counter "fuzz.cases"
let m_checks = Obs.Metrics.counter "fuzz.checks"
let m_skipped = Obs.Metrics.counter "fuzz.skipped"
let m_failures = Obs.Metrics.counter "fuzz.failures"

let publish r =
  Obs.Metrics.incr ~by:r.r_cases m_cases;
  Obs.Metrics.incr ~by:r.r_checks m_checks;
  Obs.Metrics.incr ~by:r.r_skipped m_skipped;
  Obs.Metrics.incr ~by:(List.length r.r_failures) m_failures

let run ?(config = default_config) () =
  let r = fuzz config in
  let r = { r with r_corpus = corpus_gate ~arch:Gpu.Arch.ampere () } in
  publish r;
  r

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let status_to_string = function
  | Detected _ -> "detected"
  | Missed -> "missed"
  | Inapplicable -> "inapplicable"

let report_to_json r =
  let failure f =
    Printf.sprintf
      "{\"backend\":\"%s\",\"arch\":\"%s\",\"spec\":\"%s\",\"message\":\"%s\",\"shrunk\":\"%s\",\"shrunk_nodes\":%d}"
      (json_escape f.f_backend) (json_escape f.f_arch)
      (json_escape (Gen.spec_to_string f.f_spec))
      (json_escape f.f_msg)
      (json_escape (Gen.to_string f.f_shrunk))
      f.f_shrunk_nodes
  in
  let corpus e =
    Printf.sprintf "{\"mutation\":\"%s\",\"base\":\"%s\",\"status\":\"%s\"}"
      (json_escape e.c_mutation) (json_escape e.c_base) (status_to_string e.c_status)
  in
  Printf.sprintf
    "{\"cases\":%d,\"skipped\":%d,\"checks\":%d,\"failures\":[%s],\"corpus\":[%s],\"pass\":%b}"
    r.r_cases r.r_skipped r.r_checks
    (String.concat "," (List.map failure r.r_failures))
    (String.concat "," (List.map corpus r.r_corpus))
    (pass r)

let pp_report ppf r =
  Format.fprintf ppf "fuzz: %d cases (%d skipped as non-finite), %d oracle checks@."
    r.r_cases r.r_skipped r.r_checks;
  List.iter
    (fun f ->
      Format.fprintf ppf "FAIL %s/%s on %s: %s@.  shrunk to %d nodes: %s@." f.f_backend
        f.f_arch (Gen.spec_to_string f.f_spec) f.f_msg f.f_shrunk_nodes
        (Gen.to_string f.f_shrunk))
    r.r_failures;
  if r.r_corpus <> [] then begin
    List.iter
      (fun (m : Mutation.t) ->
        let statuses =
          List.filter_map
            (fun e ->
              if e.c_mutation = m.m_name then
                Some (e.c_base ^ ":" ^ status_to_string e.c_status)
              else None)
            r.r_corpus
        in
        Format.fprintf ppf "corpus %-18s %s@." m.m_name (String.concat " " statuses))
      Mutation.corpus
  end;
  Format.fprintf ppf "verdict: %s@." (if pass r then "PASS" else "FAIL")
