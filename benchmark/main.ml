(* The canonical benchmark (README.md beside this file).

     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--quick] [--out FILE]
     main.exe compare [--exact-only] A B

   [run] measures one workload in this process and prints, as the last
   line of stdout, {"correct","attempted","failed","metrics"}: the
   end-to-end metrics untraced, the per-layer metrics with --trace 1.
   --out appends the full run document (samples, quartiles, exact
   fields) to FILE as one JSON line; [compare] reads two such files.
   Both run from the checkout root and read BENCHMARK.json there. *)

let schema = "spacefusion.benchmark/1"

let workloads : (string * (module Window.S)) list =
  [
    ("compile_cold", (module Compile_cold));
    ("serve_pow2", (module Serve_load.Pow2));
    ("serve_cold", (module Serve_load.Cold));
    ("verify_full", (module Verify_full));
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 2) fmt

let read_json path =
  let s = try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> die "%s" e in
  match Obs.Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e

let str = function Some (Obs.Json.Str s) -> s | _ -> ""
let num = function Some (Obs.Json.Num n) -> n | _ -> nan
let arr = function Some (Obs.Json.Arr l) -> l | _ -> []

(* [at j ["a"; "b"]] is field b of field a of [j]. *)
let at j keys = List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some j) keys

(* ---- the metric catalogue: BENCHMARK.json's ------------------------- *)

type def = { name : string; unit : string; better : string; bound : float  (** nan per layer *) }

let manifest = lazy (read_json "BENCHMARK.json")

let catalogue key =
  List.map
    (fun m ->
      let f k = Obs.Json.member k m in
      { name = str (f "name"); unit = str (f "unit"); better = str (f "better"); bound = num (f "bound") })
    (arr (Obs.Json.member key (Lazy.force manifest)))

let end_to_end = lazy (catalogue "end_to_end")
let per_layer = lazy (catalogue "per_layer")

(* A metric measured here but missing from the catalogue is a renamed or
   forgotten entry: fail rather than drop it. *)
let require_listed defs measured =
  List.iter
    (fun n -> if not (List.exists (fun d -> d.name = n) defs) then die "BENCHMARK.json does not list the metric %s" n)
    measured

(* ---- run ------------------------------------------------------------ *)

let metric_json (d, (m : Window.metric)) =
  let samples = List.filter Float.is_finite m.samples in
  let q1, q2, q3 = Stats.quartiles samples in
  ( d.name,
    Obs.Json.Obj
      [
        ("value", Obs.Json.Num m.value);
        ("unit", Obs.Json.Str d.unit);
        ("n", Obs.Json.Num (float_of_int (List.length samples)));
        ("median", Obs.Json.Num q2);
        ("q1", Obs.Json.Num q1);
        ("q3", Obs.Json.Num q3);
        ("samples", Obs.Json.Arr (List.map (fun x -> Obs.Json.Num x) samples));
      ] )

(* In the catalogue's order; each listed metric must be measured. *)
let e2e_of ~setup (w : Window.t) =
  let measured = [ ("setup_s", Window.of_samples setup); ("p50_ms", w.p50_ms); ("ops_per_s", w.ops_per_s) ] in
  let defs = Lazy.force end_to_end in
  require_listed defs (List.map fst measured);
  List.map
    (fun d ->
      match List.assoc_opt d.name measured with
      | Some m -> (d, m)
      | None -> die "BENCHMARK.json lists %s, which this benchmark does not measure" d.name)
    defs

(* Layer numbers read from the program's own counters and spans over a
   traced window, per operation of that window. *)
let counted_layers before after ops =
  let d = Probe.delta before after in
  let per x = x /. float_of_int (max 1 ops) in
  let costed = d "tuner.costed" and pruned = d "tuner.pruned" in
  [
    ("core.compile_s", per (d "compile.seconds"));
    ("core.ss_s", per (d "compile.ss_seconds"));
    ("core.ts_s", per (d "compile.ts_seconds"));
    ("core.enum_s", per (d "compile.enum_seconds"));
    ("core.tune_s", per (d "compile.tune_seconds"));
    ("core.lower_s", per (Probe.span_total "core.lower"));
    ("core.compiles", per (d "compile.count"));
    ("core.lower_calls", per (d "lower.calls"));
    ("core.cfgs_costed", per costed);
    ("core.cfgs_pruned", per pruned);
    ("core.prune_ratio", Probe.ratio pruned (costed +. pruned));
    ("core.partitions", per (d "sched.partitions"));
    ("runtime.cache_hit_ratio", Probe.ratio (d "cache.hits") (d "cache.hits" +. d "cache.misses"));
    ("runtime.guard_misses", per (d "shape_class.guard_misses"));
    ("runtime.functional_execs", per (d "run.functional_execs"));
    ("tensor.arena_hit_ratio", Probe.ratio (d "arena.hits") (d "arena.hits" +. d "arena.misses"));
    ("tensor.arena_bytes_held", Probe.gauge after "arena.bytes_held");
    ("serve.degraded", per (d "serve.degraded"));
    ("serve.retries", per (d "serve.retries"));
  ]

let run ~name ~seed ~seconds ~trace ~quick ~out =
  let (module W : Window.S) =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None -> die "unknown workload %S (one of: %s)" name (String.concat ", " (List.map fst workloads))
  in
  ignore (Lazy.force end_to_end, Lazy.force per_layer);
  (* Set up several times, keep the last: setup_s is their median. Each
     set-up first runs the serial warm-up (Prime) that must precede any
     parallel work in the process. *)
  let rec setups k acc prev =
    let st, dt =
      Probe.timed (fun () ->
          Prime.run ();
          W.setup ~seed ~quick)
    in
    Option.iter W.teardown prev;
    if k <= 1 then (st, List.rev (dt :: acc)) else setups (k - 1) (dt :: acc) (Some st)
  in
  let st, setup = setups (if quick then 1 else 3) [] None in
  let tally = Window.tally () in
  let untraced, traced, layers =
    if not trace then begin
      let w = W.measure st tally ~seconds ~traced:false in
      W.post_check st tally;
      (w, None, [])
    end
    else begin
      (* Half the window untraced, half traced: the same process gives
         the per-layer numbers and the tracing overhead. *)
      let half = seconds /. 2.0 in
      let wu = W.measure st tally ~seconds:half ~traced:false in
      W.post_check st tally;
      Hashtbl.reset Probe.spans;
      Obs.Trace.reset ();
      Obs.Trace.set_enabled true;
      let before = Probe.snapshot () in
      let wt = W.measure st tally ~seconds:half ~traced:true in
      let after = Probe.snapshot () in
      Probe.fold_trace ();
      Obs.Trace.set_enabled false;
      W.post_check st tally;
      let own = W.layers st in
      let overhead (a : Window.metric) (b : Window.metric) = Probe.ratio b.value a.value in
      let layers =
        counted_layers before after wt.ops
        @ own @ Replay.warm_layers ()
        @ [
            ("trace_overhead.p50_ms", overhead wu.p50_ms wt.p50_ms);
            ("trace_overhead.ops_per_s", overhead wu.ops_per_s wt.ops_per_s);
          ]
      in
      (wu, Some wt, layers)
    end
  in
  W.teardown st;
  let rss = Probe.peak_rss_mb () in
  let layers = ("process.peak_rss_mb", rss) :: layers in
  let e2e = e2e_of ~setup untraced in
  List.iter
    (fun (d, (m : Window.metric)) ->
      if not (Float.is_finite m.value && m.value > 0.0) then die "%s: %s measured %g" name d.name m.value)
    e2e;
  let per_layer = Lazy.force per_layer in
  require_listed per_layer (List.map fst layers);
  (* A listed layer this workload does not exercise reads 0. *)
  let layer n = match List.assoc_opt n layers with Some v when Float.is_finite v -> v | _ -> 0.0 in
  let correct = tally.failed = 0 in
  let detail =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str schema);
         ("workload", Obs.Json.Str name);
         ("seed", Obs.Json.Num (float_of_int seed));
         ("seconds", Obs.Json.Num seconds);
         ("trace", Obs.Json.Bool trace);
         ("quick", Obs.Json.Bool quick);
         ("jobs", Obs.Json.Num (float_of_int (Core.Parallel.default_jobs ())));
         ("ops", Obs.Json.Num (float_of_int untraced.ops));
         ("peak_rss_mb", Obs.Json.Num rss);
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Num (float_of_int tally.attempted));
         ("failed", Obs.Json.Num (float_of_int tally.failed));
         ("failures", Obs.Json.Arr (List.rev_map (fun s -> Obs.Json.Str s) tally.notes));
         ("end_to_end", Obs.Json.Obj (List.map metric_json e2e));
         ("exact", Obs.Json.Obj untraced.exact);
       ]
      @
      match traced with
      | None -> []
      | Some wt ->
          [
            ("traced_end_to_end", Obs.Json.Obj (List.map metric_json (e2e_of ~setup wt)));
            ("traced_exact", Obs.Json.Obj wt.exact);
            ( "per_layer",
              Obs.Json.Obj (List.map (fun d -> (d.name, Obs.Json.Num (layer d.name))) per_layer) );
          ])
  in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      output_string oc (Obs.Json.to_string detail ^ "\n");
      close_out oc)
    out;
  List.iter (fun n -> prerr_endline ("benchmark: " ^ name ^ ": " ^ n)) (List.rev tally.notes);
  let metrics =
    if trace then
      List.map
        (fun d -> (d.name, Obs.Json.Obj [ ("value", Obs.Json.Num (layer d.name)); ("unit", Obs.Json.Str d.unit) ]))
        per_layer
    else
      List.map
        (fun (d, (m : Window.metric)) ->
          (d.name, Obs.Json.Obj [ ("value", Obs.Json.Num m.value); ("unit", Obs.Json.Str d.unit) ]))
        e2e
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Num (float_of_int tally.attempted));
            ("failed", Obs.Json.Num (float_of_int tally.failed));
            ("metrics", Obs.Json.Obj metrics);
          ]))

(* ---- compare ------------------------------------------------------- *)

let read_runs path =
  let s = try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> die "%s" e in
  List.filter_map
    (fun l ->
      match Obs.Json.parse l with
      | Ok j when str (Obs.Json.member "schema" j) = schema -> Some j
      | _ -> None)
    (String.split_on_char '\n' s)

let value_of run name = num (at run [ "end_to_end"; name; "value" ])

let in_run_samples run name =
  List.map (function Obs.Json.Num x -> x | _ -> nan) (arr (at run [ "end_to_end"; name; "samples" ]))

let pct x = if Float.is_finite x then Printf.sprintf "%+.1f%%" (100.0 *. x) else "n/a"

(* Per workload and end-to-end metric: B's median against A's, judged by
   the metric's bound. A spread wider than the bound, or unknown, leaves
   the metric unresolved unless every run of B beats every run of A. *)
let compare_e2e a b =
  let bad = ref false in
  let workload r = str (Obs.Json.member "workload" r) in
  let untraced rs = List.filter (fun r -> Obs.Json.member "trace" r = Some (Obs.Json.Bool false)) rs in
  List.iter
    (fun (w, _) ->
      let ra = List.filter (fun r -> workload r = w) (untraced a)
      and rb = List.filter (fun r -> workload r = w) (untraced b) in
      if ra <> [] && rb <> [] then begin
        Printf.printf "%s (A: %d runs, B: %d runs)\n" w (List.length ra) (List.length rb);
        List.iter
          (fun { name; better; bound; _ } ->
            let va = List.map (fun r -> value_of r name) ra and vb = List.map (fun r -> value_of r name) rb in
            (* One run per side: the spread within that run stands in. *)
            let spread rs vs =
              match rs with [ r ] -> Stats.spread (in_run_samples r name) | _ -> Stats.spread vs
            in
            let ma = Stats.median va and mb = Stats.median vb in
            let worse = if better = "higher" then (ma -. mb) /. ma else (mb -. ma) /. ma in
            let sp = Float.max (spread ra va) (spread rb vb) in
            let beats x y = if better = "higher" then x > y else x < y in
            let all_better = List.for_all (fun x -> List.for_all (fun y -> beats x y) va) vb in
            let verdict =
              if sp > bound && not all_better then "unresolved"
              else if worse > bound then begin
                bad := true;
                "REGRESSION"
              end
              else if all_better && -.worse > sp then "better"
              else "ok"
            in
            Printf.printf "  %-12s A %-12.6g B %-12.6g change %-8s bound %-6s spread %-6s %s\n" name ma mb
              (pct ((mb -. ma) /. ma)) (pct bound) (pct sp) verdict)
          (Lazy.force end_to_end)
      end)
    workloads;
  !bad

(* Runs of the same workload, seed and settings must agree on every exact
   field: plans picked, counts, simulated latency, arrival schedule. *)
let compare_exact a b =
  let bad = ref false and pairs = ref 0 in
  let key r =
    List.map
      (fun k -> Option.fold ~none:"" ~some:Obs.Json.to_string (Obs.Json.member k r))
      [ "workload"; "seed"; "seconds"; "trace"; "quick" ]
  in
  List.iter
    (fun ra ->
      List.iter
        (fun rb ->
          if key ra = key rb then begin
            incr pairs;
            List.iter
              (fun section ->
                let ea = Obs.Json.member section ra and eb = Obs.Json.member section rb in
                if ea <> eb then begin
                  bad := true;
                  Printf.printf "EXACT MISMATCH %s %s:\n  A %s\n  B %s\n" (String.concat " " (key ra)) section
                    (Option.fold ~none:"-" ~some:Obs.Json.to_string ea)
                    (Option.fold ~none:"-" ~some:Obs.Json.to_string eb)
                end)
              [ "exact"; "traced_exact" ]
          end)
        b)
    a;
  (!bad, !pairs)

(* Traced runs: per-layer medians side by side, to locate a change. *)
let compare_layers a b =
  let traced w rs =
    List.filter
      (fun r -> str (Obs.Json.member "workload" r) = w && Obs.Json.member "trace" r = Some (Obs.Json.Bool true))
      rs
  in
  List.iter
    (fun (w, _) ->
      let ta = traced w a and tb = traced w b in
      if ta <> [] && tb <> [] then begin
        Printf.printf "%s per layer (A: %d traced runs, B: %d)\n" w (List.length ta) (List.length tb);
        List.iter
          (fun d ->
            let med rs = Stats.median (List.map (fun r -> num (at r [ "per_layer"; d.name ])) rs) in
            let ma = med ta and mb = med tb in
            if ma <> 0.0 || mb <> 0.0 then
              Printf.printf "  %-26s A %-12.6g B %-12.6g %s\n" d.name ma mb
                (if ma = 0.0 then "" else pct ((mb -. ma) /. ma)))
          (Lazy.force per_layer)
      end)
    workloads

let compare ~exact_only a b =
  let ra = read_runs a and rb = read_runs b in
  if ra = [] || rb = [] then die "no run documents in %s" (if ra = [] then a else b);
  let exact_bad, pairs = compare_exact ra rb in
  if exact_only && pairs = 0 then die "no runs of the same workload, seed and settings to compare";
  let bad =
    if exact_only then false
    else begin
      let r = compare_e2e ra rb in
      compare_layers ra rb;
      r
    end
  in
  if exact_bad || bad then exit 1

(* ---- command line --------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--quick" | "--exact-only") as f :: rest -> opts ((f, "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [ k ] when String.length k > 2 && String.sub k 0 2 = "--" -> die "%s needs a value" k
    | pos :: rest ->
        let o, p = opts acc rest in
        (o, pos :: p)
    | [] -> (acc, [])
  in
  let int_of k v = match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %S" k v in
  match args with
  | "run" :: rest ->
      let o, pos = opts [] rest in
      if pos <> [] then die "run: unexpected %s" (String.concat " " pos);
      List.iter
        (fun (k, _) ->
          if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--quick"; "--out" ]) then
            die "run: unknown option %s" k)
        o;
      let get k = List.assoc_opt k o in
      let seconds =
        match get "--seconds" with
        | Some v -> float_of_int (int_of "--seconds" v)
        | None -> num (Obs.Json.member "run_seconds" (Lazy.force manifest))
      in
      if not (seconds > 0.0) then die "--seconds must be positive";
      run
        ~name:(match get "--workload" with Some w -> w | None -> die "run: --workload is required")
        ~seed:(match get "--seed" with Some v -> int_of "--seed" v | None -> 1)
        ~seconds
        ~trace:(match get "--trace" with None | Some "0" -> false | Some "1" -> true | Some v -> die "--trace %s: 0 or 1" v)
        ~quick:(get "--quick" <> None) ~out:(get "--out")
  | "compare" :: rest -> (
      let o, pos = opts [] rest in
      match pos with
      | [ a; b ] when List.for_all (fun (k, _) -> k = "--exact-only") o ->
          compare ~exact_only:(o <> []) a b
      | _ -> die "usage: compare [--exact-only] A B")
  | _ -> die "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE] | compare A B"
