(* Tests for the observability subsystem: span nesting determinism, the
   disabled-mode hot path, metrics registry concurrency, and JSON
   round-tripping of a captured profile. *)

let arch = Gpu.Arch.ampere

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let traced_compile_paths g =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      ignore (Core.Spacefusion.compile ~arch ~name:"obs" g);
      Obs.Trace.agg_paths (Obs.Trace.aggregate (Obs.Trace.roots ())))

let test_parallel_span_determinism () =
  (* Independent components are scheduled one after another; their spans
     must attach under the compile's schedule span, and two compiles of the
     same graph must trace the same aggregated path set. *)
  let g = Ir.Models.independent_chains ~copies:4 ~m:64 ~n:64 () in
  let p1 = traced_compile_paths g in
  let p2 = traced_compile_paths g in
  Alcotest.(check (list string)) "two runs agree" p1 p2;
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " present") true (List.mem path p1))
    [
      "compile";
      "compile/build";
      "compile/schedule";
      "compile/schedule/auto_schedule";
      "compile/schedule/auto_schedule/lower";
      "compile/schedule/tune";
      "compile/select";
    ]

let test_disabled_no_alloc () =
  Obs.Trace.set_enabled false;
  let f () = 42 in
  for _ = 1 to 10 do
    ignore (Obs.Trace.with_span "warmup" f)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Obs.Trace.with_span "hot" f)
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled with_span allocates nothing (%.0f words / 1000 calls)" dw)
    true (dw < 256.0)

let test_span_nesting_and_attrs () =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      Obs.Trace.with_span ~attrs:[ ("k", "v") ] "outer" (fun () ->
          Obs.Trace.with_span "inner" (fun () -> ());
          Obs.Trace.with_span "inner" (fun () -> ()));
      (match Obs.Trace.roots () with
      | [ root ] ->
          Alcotest.(check string) "root name" "outer" root.Obs.Trace.sp_name;
          Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ]
            root.Obs.Trace.sp_attrs;
          Alcotest.(check int) "two children" 2 (List.length root.Obs.Trace.sp_children)
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
      match Obs.Trace.aggregate (Obs.Trace.roots ()) with
      | [ agg ] -> (
          Alcotest.(check int) "root count" 1 agg.Obs.Trace.a_count;
          Alcotest.(check bool) "duration non-negative" true (agg.Obs.Trace.a_total_s >= 0.0);
          match agg.Obs.Trace.a_children with
          | [ child ] ->
              Alcotest.(check string) "folded child" "inner" child.Obs.Trace.a_name;
              Alcotest.(check int) "siblings folded" 2 child.Obs.Trace.a_count
          | kids -> Alcotest.failf "expected one folded child, got %d" (List.length kids))
      | aggs -> Alcotest.failf "expected one aggregate root, got %d" (List.length aggs))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_concurrency () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.obs.counter" in
  let h = Obs.Metrics.histogram "test.obs.histo" in
  let per_worker = 10_000 in
  List.iter Domain.join
    (List.init 4 (fun _ ->
         Domain.spawn (fun () ->
             for i = 1 to per_worker do
               Obs.Metrics.incr c;
               Obs.Metrics.observe h (float_of_int i)
             done)));
  Alcotest.(check int) "every increment lands" (4 * per_worker) (Obs.Metrics.counter_value c);
  (match Obs.Metrics.find "test.obs.histo" with
  | Some (Obs.Metrics.Histogram { h_count; h_min; h_max; _ }) ->
      Alcotest.(check int) "every observation lands" (4 * per_worker) h_count;
      Alcotest.(check (float 0.0)) "min" 1.0 h_min;
      Alcotest.(check (float 0.0)) "max" (float_of_int per_worker) h_max
  | _ -> Alcotest.fail "histogram missing from registry");
  (* Interning: the same name yields the same cell; a kind clash raises. *)
  Obs.Metrics.incr (Obs.Metrics.counter "test.obs.counter");
  Alcotest.(check int) "interned handle shares the cell" ((4 * per_worker) + 1)
    (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "kind mismatch raises" true
    (match Obs.Metrics.gauge "test.obs.counter" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Reset zeroes in place: stale handles stay attached. *)
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "old handle still live after reset" 1 (Obs.Metrics.counter_value c)

let test_histogram_parallel_consistency () =
  (* 8 domains (twice the test above) hammer one histogram with
     integer-valued observations whose aggregate is exactly representable
     in a float — so count, sum, min and max must all be *exact*
     afterwards: a lost update, torn read or non-atomic (count, sum) pair
     would show up as a wrong number, not as rounding noise. *)
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.obs.histo8" in
  let domains = 8 and per_domain = 5_000 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Metrics.observe h (float_of_int (((d * per_domain) + i) mod 100))
            done))
  in
  List.iter Domain.join spawned;
  match Obs.Metrics.find "test.obs.histo8" with
  | Some (Obs.Metrics.Histogram { h_count; h_sum; h_min; h_max }) ->
      Alcotest.(check int) "exact count" (domains * per_domain) h_count;
      (* Every domain's residues mod 100 cover 0..99 in equal proportion:
         40_000 observations -> 400 full cycles of sum 4950. *)
      Alcotest.(check (float 0.0)) "exact sum" (float_of_int (domains * per_domain / 100 * 4950)) h_sum;
      Alcotest.(check (float 0.0)) "exact min" 0.0 h_min;
      Alcotest.(check (float 0.0)) "exact max" 99.0 h_max
  | _ -> Alcotest.fail "histogram missing from registry"

(* ------------------------------------------------------------------ *)
(* Report JSON round-trip                                              *)
(* ------------------------------------------------------------------ *)

let test_report_roundtrip () =
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () -> ignore (Core.Spacefusion.compile ~arch ~name:"rt" (Ir.Models.layernorm_graph ~m:32 ~n:32)));
  let json = Obs.Report.to_json ~extra:[ ("model", Obs.Json.Str "ln") ] (Obs.Report.capture ()) in
  let s = Obs.Json.to_string json in
  match Obs.Json.parse s with
  | Error msg -> Alcotest.failf "emitted JSON does not parse: %s" msg
  | Ok parsed ->
      (match
         Obs.Report.validate
           ~required_spans:[ "compile"; "build"; "schedule"; "tune"; "lower"; "select" ]
           parsed
       with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "validation failed: %s" msg);
      Alcotest.(check string) "byte-stable re-serialization" s (Obs.Json.to_string parsed);
      (match Obs.Json.member "model" parsed with
      | Some (Obs.Json.Str "ln") -> ()
      | _ -> Alcotest.fail "extra field lost in round-trip");
      (* Negative-duration and missing-phase documents must be rejected. *)
      let bad_span =
        Obs.Json.Obj
          [
            ( "spans",
              Obs.Json.Arr
                [
                  Obs.Json.Obj
                    [
                      ("name", Obs.Json.Str "compile");
                      ("count", Obs.Json.Num 1.0);
                      ("total_s", Obs.Json.Num (-1.0));
                      ("children", Obs.Json.Arr []);
                    ];
                ] );
            ("metrics", Obs.Json.Obj []);
          ]
      in
      (match Obs.Report.validate bad_span with
      | Error msg ->
          Alcotest.(check bool) "names the negative duration" true
            (Astring.String.is_infix ~affix:"negative" msg)
      | Ok () -> Alcotest.fail "negative duration accepted");
      match Obs.Report.validate ~required_spans:[ "execute" ] parsed with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "missing required span accepted"

(* ------------------------------------------------------------------ *)
(* JSON \uXXXX decoding                                                *)
(* ------------------------------------------------------------------ *)

let parse_str s =
  match Obs.Json.parse s with
  | Ok (Obs.Json.Str v) -> v
  | Ok _ -> Alcotest.failf "expected a string for %s" s
  | Error msg -> Alcotest.failf "parse failed for %s: %s" s msg

(* Escape inputs built at runtime ([u_esc ["0041"]] is the six source
   characters backslash-u-0-0-4-1, inside quotes) so this test source
   stays plain ASCII. *)
let bs = String.make 1 (Char.chr 92)
let u_esc hexes = "\"" ^ String.concat "" (List.map (fun h -> bs ^ "u" ^ h) hexes) ^ "\""

let test_unicode_escapes () =
  Alcotest.(check string) "ascii" "A" (parse_str (u_esc [ "0041" ]));
  Alcotest.(check string) "control stays a raw byte" "\031" (parse_str (u_esc [ "001f" ]));
  (* U+00E9 -> C3 A9; U+20AC -> E2 82 AC; U+1F600 via the surrogate pair
     D83D DE00 -> F0 9F 98 80. Before the fix these truncated to one
     mangled byte instead of the code point's UTF-8. *)
  Alcotest.(check string) "two-byte utf-8" "\xc3\xa9" (parse_str (u_esc [ "00e9" ]));
  Alcotest.(check string) "three-byte utf-8" "\xe2\x82\xac" (parse_str (u_esc [ "20ac" ]));
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (parse_str (u_esc [ "d83d"; "de00" ]));
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed escape %s" s)
    [
      u_esc [ "d83d" ] (* unpaired high surrogate at end of string *);
      "\"" ^ bs ^ "ud83dx\"" (* high surrogate followed by a raw char *);
      u_esc [ "d83d"; "0041" ] (* high surrogate followed by a non-low escape *);
      u_esc [ "de00" ] (* lone low surrogate *);
      u_esc [ "12g4" ] (* bad hex digit *);
      u_esc [ "1_34" ] (* int_of_string would silently accept the underscore *);
      "\"" ^ bs ^ "u123\"" (* truncated *);
    ]

let test_unicode_byte_stability () =
  (* Strings that reach disk (plan store, telemetry) go through
     parse -> to_string cycles; non-ASCII must be a fixed point. *)
  let v =
    parse_str
      ("\"caf" ^ bs ^ "u00e9 " ^ bs ^ "u20ac " ^ bs ^ "ud83d" ^ bs ^ "ude00\"")
  in
  Alcotest.(check string) "decoded utf-8 bytes" "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80" v;
  let s = Obs.Json.to_string (Obs.Json.Str v) in
  match Obs.Json.parse s with
  | Ok (Obs.Json.Str v') ->
      Alcotest.(check string) "byte-stable" v v';
      Alcotest.(check string) "re-serialization fixed point" s
        (Obs.Json.to_string (Obs.Json.Str v'))
  | _ -> Alcotest.fail "re-parse failed"

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "parallel span determinism" `Quick test_parallel_span_determinism;
          Alcotest.test_case "disabled hot path is allocation-free" `Quick test_disabled_no_alloc;
          Alcotest.test_case "nesting, attrs, aggregation" `Quick test_span_nesting_and_attrs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "concurrent updates" `Quick test_metrics_concurrency;
          Alcotest.test_case "histogram exact under 8 domains" `Quick
            test_histogram_parallel_consistency;
        ] );
      ("report", [ Alcotest.test_case "json round-trip" `Quick test_report_roundtrip ]);
      ( "json",
        [
          Alcotest.test_case "unicode escapes decode to UTF-8" `Quick test_unicode_escapes;
          Alcotest.test_case "unicode byte stability" `Quick test_unicode_byte_stability;
        ] );
    ]
