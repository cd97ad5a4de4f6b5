(* Tests for lib/store: plan codec round-trip, the crash-safe plan store
   (kill-mid-write recovery, corrupted-entry quarantine, version-mismatch
   rejection, restart integration with the plan cache), the columnar
   telemetry store (record/query round-trip, torn-tail tolerance), and
   the workload identity every store key derives from (pinned bytes,
   rebatched identities). *)

module PS = Store.Plan_store
module T = Store.Telemetry
module PC = Runtime.Plan_cache
module Policy = Backends.Policy

let arch = Gpu.Arch.ampere

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [f] on a fresh directory under the system temp dir, removed when [f]
   returns or raises. *)
let with_dir =
  let n = ref 0 in
  fun f ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sf-store-test-%d-%d" (Unix.getpid ()) !n)
    in
    Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let g_a = Ir.Models.layernorm_graph ~m:32 ~n:32
let g_b = Ir.Models.rmsnorm_graph ~m:32 ~n:32

let compile_plan name g =
  match Core.Spacefusion.compile_r ~arch ~name g with
  | Ok c -> c.Core.Spacefusion.c_plan
  | Error e -> Alcotest.failf "compile failed: %s" (Core.Spacefusion.Error.to_string e)

let key_of name g =
  {
    PS.sk_backend = "SpaceFusion";
    sk_arch = arch.Gpu.Arch.name;
    sk_name = name;
    sk_graph = Digest.to_hex (Digest.string (Ir.Parse.to_dsl g));
    sk_devices = 1;
    sk_class = "-";
  }

(* Structural plan equality via the codec's canonical JSON: two plans that
   encode to the same bytes are the same plan. *)
let plan_repr p = Obs.Json.to_string (Store.Codec.plan_to_json p)

let stub calls =
  {
    Policy.be_name = "store-stub";
    dispatch_us = 0.0;
    supports = (fun _ -> true);
    compile =
      (fun arch ~name g ->
        Atomic.incr calls;
        Policy.compile_groups arch ~name g (Policy.singletons g));
  }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  List.iter
    (fun (name, g) ->
      let plan = compile_plan name g in
      let s = plan_repr plan in
      let parsed =
        match Obs.Json.parse s with
        | Ok j -> j
        | Error msg -> Alcotest.failf "%s: emitted JSON does not parse: %s" name msg
      in
      match Store.Codec.plan_of_json parsed with
      | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg
      | Ok plan' -> Alcotest.(check string) (name ^ " round-trips") s (plan_repr plan'))
    [
      ("ln", g_a);
      ("sm-gemm", Ir.Models.softmax_gemm ~m:16 ~l:32 ~n:16);
      ("mlp", Ir.Models.mlp ~layers:2 ~m:16 ~n:32 ~k:32);
    ]

let test_codec_rejects_garbage () =
  List.iter
    (fun (what, j) ->
      match Store.Codec.plan_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "codec accepted %s" what)
    [
      ("a number", Obs.Json.Num 3.0);
      ("an empty object", Obs.Json.Obj []);
      ( "a plan with a broken kernel list",
        Obs.Json.Obj [ ("n", Obs.Json.Str "x"); ("kernels", Obs.Json.Num 1.0);
                       ("decls", Obs.Json.Arr []) ] );
    ]

(* ------------------------------------------------------------------ *)
(* Plan store                                                          *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_dir @@ fun dir ->
  let s = PS.open_ dir in
  Alcotest.(check int) "fresh store is empty" 0 (PS.report s).PS.lr_loaded;
  let plan = compile_plan "ln" g_a in
  let k = key_of "ln" g_a in
  PS.put s k ~verified:true plan;
  Alcotest.(check bool) "mem after put" true (PS.mem s k);
  Alcotest.(check int) "one entry file" 1 (PS.length s);
  let s2 = PS.open_ dir in
  (match PS.entries s2 with
  | [ (k', verified, plan') ] ->
      Alcotest.(check bool) "key round-trips" true (k' = k);
      Alcotest.(check bool) "verified stamp persisted" true verified;
      Alcotest.(check string) "plan round-trips through disk" (plan_repr plan) (plan_repr plan')
  | es -> Alcotest.failf "expected one entry after reopen, got %d" (List.length es));
  let rep = PS.report s2 in
  Alcotest.(check int) "reopen loads it" 1 rep.PS.lr_loaded;
  Alcotest.(check int) "nothing quarantined" 0 (List.length rep.PS.lr_quarantined);
  Alcotest.(check int) "nothing rejected" 0 (List.length rep.PS.lr_rejected)

let test_kill_mid_write () =
  with_dir @@ fun dir ->
  let s = PS.open_ dir in
  PS.put s (key_of "ln" g_a) ~verified:true (compile_plan "ln" g_a);
  PS.put s (key_of "rms" g_b) ~verified:false (compile_plan "rms" g_b);
  (* A writer killed before its rename leaves only a temp file... *)
  let tmp = Filename.concat dir ".tmp-dead.1234.5678" in
  let oc = open_out_bin tmp in
  output_string oc "{\"magic\":\"spacefusion.pl";
  close_out oc;
  (* ...and a torn entry (disk-level truncation) breaks mid-payload. *)
  let victim = Filename.concat dir (PS.filename_of_key (key_of "rms" g_b)) in
  let text =
    let ic = open_in_bin victim in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin victim in
  output_string oc (String.sub text 0 (String.length text / 2));
  close_out oc;
  let s2 = PS.open_ dir in
  let rep = PS.report s2 in
  Alcotest.(check bool) "stale temp file swept" false (Sys.file_exists tmp);
  Alcotest.(check int) "intact entry still loads" 1 rep.PS.lr_loaded;
  (match rep.PS.lr_quarantined with
  | [ { PS.i_file; i_reason } ] ->
      Alcotest.(check string) "quarantine names the file"
        (PS.filename_of_key (key_of "rms" g_b))
        i_file;
      Alcotest.(check bool) "quarantine names a reason" true (String.length i_reason > 0);
      let qdir = Filename.concat dir "quarantine" in
      Alcotest.(check bool) "bytes preserved in quarantine/" true
        (Sys.file_exists (Filename.concat qdir i_file));
      Alcotest.(check bool) "reason sidecar written" true
        (Sys.file_exists (Filename.concat qdir (i_file ^ ".reason")))
  | q -> Alcotest.failf "expected one quarantined entry, got %d" (List.length q));
  (* The surviving entry is the verified one. *)
  match PS.entries s2 with
  | [ (k, true, _) ] -> Alcotest.(check bool) "survivor is ln" true (k = key_of "ln" g_a)
  | _ -> Alcotest.fail "expected exactly the intact verified entry"

let test_tamper_quarantine () =
  with_dir @@ fun dir ->
  let s = PS.open_ dir in
  PS.put s (key_of "ln" g_a) ~verified:false (compile_plan "ln" g_a);
  let file = Filename.concat dir (PS.filename_of_key (key_of "ln" g_a)) in
  let text =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* Flip one digit inside the payload: the JSON still parses, so only the
     checksum can catch it. *)
  let payload_at =
    match Astring.String.find_sub ~sub:"\"payload\":" text with
    | Some i -> i
    | None -> Alcotest.fail "entry has no payload field"
  in
  let b = Bytes.of_string text in
  let flipped = ref false in
  (try
     for i = payload_at to Bytes.length b - 1 do
       match Bytes.get b i with
       | '0' .. '8' as c when not !flipped ->
           Bytes.set b i (Char.chr (Char.code c + 1));
           flipped := true;
           raise Exit
       | _ -> ()
     done
   with Exit -> ());
  Alcotest.(check bool) "found a digit to flip" true !flipped;
  let oc = open_out_bin file in
  output_string oc (Bytes.to_string b);
  close_out oc;
  let s2 = PS.open_ dir in
  let rep = PS.report s2 in
  Alcotest.(check int) "tampered entry not loaded" 0 rep.PS.lr_loaded;
  match rep.PS.lr_quarantined with
  | [ { PS.i_reason; _ } ] ->
      Alcotest.(check bool)
        (Printf.sprintf "reason names the checksum (%s)" i_reason)
        true
        (Astring.String.is_infix ~affix:"checksum" i_reason
        || Astring.String.is_infix ~affix:"undecodable" i_reason)
  | q -> Alcotest.failf "expected one quarantined entry, got %d" (List.length q)

let test_version_mismatch () =
  with_dir @@ fun dir ->
  let old = PS.open_ ~code_version:"store-v0-test" dir in
  PS.put old (key_of "ln" g_a) ~verified:true (compile_plan "ln" g_a);
  (* A new code version must reject — not quarantine, not crash — so a
     rollback to the old version can still read its own entry. *)
  let s = PS.open_ dir in
  let rep = PS.report s in
  Alcotest.(check int) "not loaded" 0 rep.PS.lr_loaded;
  Alcotest.(check int) "not quarantined" 0 (List.length rep.PS.lr_quarantined);
  (match rep.PS.lr_rejected with
  | [ { PS.i_reason; _ } ] ->
      Alcotest.(check bool) "reason names the version" true
        (Astring.String.is_infix ~affix:"store-v0-test" i_reason)
  | r -> Alcotest.failf "expected one rejected entry, got %d" (List.length r));
  Alcotest.(check int) "file left in place" 1 (PS.length s);
  let back = PS.open_ ~code_version:"store-v0-test" dir in
  Alcotest.(check int) "rollback reads it again" 1 (PS.report back).PS.lr_loaded

let writes () =
  match Obs.Metrics.find "store.writes" with Some (Obs.Metrics.Counter c) -> c | _ -> 0

let test_cache_restart_integration () =
  (* The end-to-end contract the warm CLI gates on, at library level: a
     cache backed by the store persists plans and verified stamps with one
     write per settled entry, and a restarted cache serves them without
     one compile. *)
  with_dir @@ fun dir ->
  let calls = Atomic.make 0 and runs = Atomic.make 0 in
  let b = stub calls in
  let first_run _ = Atomic.incr runs in
  let c = PC.create ~store:(PS.open_ dir) () in
  let w0 = writes () in
  ignore (PC.lookup c ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_a) g_a);
  Alcotest.(check int) "compile + first run: one store write" 1 (writes () - w0);
  ignore (PC.compile c b arch ~name:"m" g_b);
  Alcotest.(check int) "compile without a first run: one store write" 2 (writes () - w0);
  Alcotest.(check int) "two compiles before restart" 2 (Atomic.get calls);
  Alcotest.(check int) "one first run before restart" 1 (Atomic.get runs);
  let c2 = PC.create ~store:(PS.open_ dir) () in
  Alcotest.(check int) "restart loads both entries" 2 (PC.length c2);
  let f = PC.lookup c2 ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_a) g_a in
  Alcotest.(check bool) "verified entry hits from disk, no first run" true
    (f.PC.hit && Option.is_none f.PC.first);
  let f = PC.lookup c2 ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_b) g_b in
  Alcotest.(check bool) "unverified entry hits from disk and runs first" true
    (f.PC.hit && Option.is_some f.PC.first);
  Alcotest.(check int) "restart compiled nothing" 2 (Atomic.get calls);
  Alcotest.(check int) "the stamp is one more write" 3 (writes () - w0);
  let c3 = PC.create ~store:(PS.open_ dir) () in
  let f = PC.lookup c3 ~first_run b arch ~name:"m" ~digest:(PC.graph_digest g_b) g_b in
  Alcotest.(check bool) "stamp persisted across another restart" true
    (f.PC.hit && Option.is_none f.PC.first);
  Alcotest.(check int) "two first runs in all" 2 (Atomic.get runs)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let feps = Alcotest.float 1e-9

let test_telemetry_roundtrip () =
  with_dir @@ fun dir ->
  let t = T.open_ dir in
  let s1 = T.record t ~kind:"bench" ~label:"a" [ ("x", 1.0); ("y", 10.0) ] in
  let s2 = T.record t ~kind:"bench" ~label:"b" [ ("x", 3.0) ] in
  Alcotest.(check int) "sequence advances" (s1 + 1) s2;
  Alcotest.(check (list string)) "kinds" [ "bench" ] (T.kinds t);
  Alcotest.(check (list string)) "columns" [ "x"; "y" ] (T.columns t ~kind:"bench");
  (* Reopen: everything below reads only what is on disk. *)
  let t = T.open_ dir in
  let runs, aggs = T.query t ~kind:"bench" [ "x"; "y"; "missing" ] in
  Alcotest.(check int) "both runs match" 2 runs;
  (match aggs with
  | [ ("x", Some ax); ("y", Some ay); ("missing", None) ] ->
      Alcotest.(check int) "x count" 2 ax.T.a_count;
      Alcotest.check feps "x sum" 4.0 ax.T.a_sum;
      Alcotest.check feps "x mean" 2.0 ax.T.a_mean;
      Alcotest.check feps "x min" 1.0 ax.T.a_min;
      Alcotest.check feps "x max" 3.0 ax.T.a_max;
      Alcotest.check feps "x last" 3.0 ax.T.a_last;
      Alcotest.(check int) "y is sparse" 1 ay.T.a_count;
      Alcotest.check feps "y last" 10.0 ay.T.a_last
  | _ -> Alcotest.fail "unexpected aggregate shape");
  let runs, aggs = T.query t ~kind:"bench" ~label:"a" [ "x" ] in
  Alcotest.(check int) "label filter" 1 runs;
  (match aggs with
  | [ ("x", Some ax) ] -> Alcotest.check feps "label-filtered last" 1.0 ax.T.a_last
  | _ -> Alcotest.fail "label filter lost the column");
  let runs, aggs = T.query t ~kind:"bench" ~last:1 [ "x" ] in
  Alcotest.(check int) "last-N filter" 1 runs;
  match aggs with
  | [ ("x", Some ax) ] -> Alcotest.check feps "most recent run wins" 3.0 ax.T.a_last
  | _ -> Alcotest.fail "last-N filter lost the column"

let test_telemetry_torn_tail () =
  with_dir @@ fun dir ->
  let t = T.open_ dir in
  ignore (T.record t ~kind:"chaos" [ ("g", 0.5) ]);
  (* A killed writer tears both an index line and a column line. *)
  let torn path garbage =
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc garbage;
    close_out oc
  in
  torn (Filename.concat dir "chaos/index.jsonl") "{\"seq\":2,\"ts\":1.0,\"lab";
  torn (Filename.concat dir "chaos/cols/g.col") "2 0.9";
  let t = T.open_ dir in
  let runs, aggs = T.query t ~kind:"chaos" [ "g" ] in
  Alcotest.(check int) "torn run is invisible" 1 runs;
  (match aggs with
  | [ ("g", Some a) ] ->
      Alcotest.(check int) "torn column line skipped" 1 a.T.a_count;
      Alcotest.check feps "surviving value intact" 0.5 a.T.a_last
  | _ -> Alcotest.fail "column lost");
  (* The next record must not be swallowed by the torn tail. *)
  let seq = T.record t ~kind:"chaos" [ ("g", 0.7) ] in
  Alcotest.(check bool) "append survives the torn tail" true (seq >= 2);
  let runs, aggs = T.query t ~kind:"chaos" [ "g" ] in
  Alcotest.(check int) "new run visible" 2 runs;
  match aggs with
  | [ ("g", Some a) ] -> Alcotest.check feps "new value aggregated" 0.7 a.T.a_last
  | _ -> Alcotest.fail "column lost after healing append"

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

module W = Runtime.Workload
module SC = Runtime.Shape_class

let one name g =
  { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }

(* The workload digest derived from scratch, as the code derived it per
   request before [Workload.make] stored it. *)
let legacy_digest (w : W.t) =
  let b = Buffer.create 256 in
  List.iter (Buffer.add_string b)
    [ w.backend.be_name; "\x00"; w.arch.name; "\x00"; string_of_int w.devices; "\x00";
      w.model.model_name ];
  List.iter
    (fun (sp : Ir.Models.subprogram) ->
      List.iter (Buffer.add_string b) [ "\x00"; sp.sp_name; string_of_int sp.count ];
      match SC.plan_graph ~policy:w.shapes sp.graph with
      | Some (c, cg) -> List.iter (Buffer.add_string b) [ SC.id c; Digest.string (Ir.Parse.to_dsl cg) ]
      | None -> Buffer.add_string b (Digest.string (Ir.Parse.to_dsl sp.graph)))
    w.model.subprograms;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Request keys, batch spaces and the store files a store-backed run
   writes, recorded from the code that derived them per request. Plan
   stores written by it must keep loading and hitting, so none of these
   bytes may move. *)
let pinned () =
  let b = Backends.Baselines.spacefusion and pt = Backends.Baselines.pytorch in
  let pow2 = SC.Pow2 in
  let ln m = one "ln" (Ir.Models.layernorm_graph ~m ~n:64) in
  let bert = Ir.Models.bert ~batch:1 ~seq:64 in
  [
    ( "ln 37x64 pow2", W.make ~shapes:pow2 ~arch b (ln 37),
      "81f72c67738dfce83293a5b35d7280cd", Some (37, 128),
      [ "16584be18ec49c588d059cbc717beeee.plan" ] );
    ( "ln 64x64 pow2", W.make ~shapes:pow2 ~arch b (ln 64),
      "81f72c67738dfce83293a5b35d7280cd", Some (64, 128),
      [ "16584be18ec49c588d059cbc717beeee.plan" ] );
    ( "rmsnorm 128x128 exact", W.make ~arch b (one "rms" (Ir.Models.rmsnorm_graph ~m:128 ~n:128)),
      "0e569714dc1e4e1cc1d6a8d48fa66a1a", None,
      [ "402b5eab461877b72bbf465f5ee8b084.plan" ] );
    ( "bert b1 s64", W.make ~arch b bert, "d513050d9b3618d7cc72a13b8fb62997", None,
      [ "d03db926b0f04381104513b9574f871a.plan"; "eb455bb164dafe2681dfed4d279880ec.plan";
        "ec888d2566d5926e61dd92b71ec897ff.plan"; "f83a461ba405a55ad660ba6a9f85c5df.plan" ] );
    ( "bert b1 s64 x4", W.make ~devices:4 ~arch b bert, "d6e87724f6a8e4f96a8e56f394dd5c8b", None,
      [ "392edf6f8aa8d952a294858190bfaf60.plan"; "82cfe99a11b2676932b4ab397cbc627d.plan";
        "f8b76bc06428861ca031b700380ed361.plan"; "fe7a4f99b59639b4b34c0bf124d3d335.plan" ] );
    ( "ln 37x64 pow2 pytorch", W.make ~shapes:pow2 ~arch pt (ln 37),
      "c29505e0d75ed44e44849106ed5443ba", Some (37, 128),
      [ "600666e5ea37f9e53d25c1f444b068bd.plan" ] );
    ( "batchnorm 128x128 pow2 pytorch",
      W.make ~shapes:pow2 ~arch pt (one "bn" (Ir.Models.batchnorm_graph ~m:128 ~n:128)),
      "2ab862c1d77d7e23b2ee17863ee95011", None,
      [ "0644ca316ebd7879b06d76b3a6bbe338.plan" ] );
  ]

let test_identity_pinned () =
  List.iter
    (fun (label, w, digest, space, files) ->
      Alcotest.(check string) (label ^ ": digest") digest (W.digest w);
      Alcotest.(check string) (label ^ ": digest derived from scratch") digest (legacy_digest w);
      Alcotest.(check (option (pair int int))) (label ^ ": batch space") space (W.batch_space w);
      with_dir @@ fun dir ->
      let cache = PC.create ~store:(PS.open_ dir) () in
      (match Runtime.Model_runner.run_workload_r ~cache w with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" label (Core.Spacefusion.Error.to_string e));
      let written =
        List.sort compare
          (List.filter (fun f -> Filename.check_suffix f ".plan") (Array.to_list (Sys.readdir dir)))
      in
      Alcotest.(check (list string)) (label ^ ": store files") files written)
    (pinned ())

(* The identity a rebatched workload carries is the one [make] derives
   for the rebatched model, at every row count a batch of the serving
   families can stack to — so a cheaper [rebatch] cannot carry its
   leader's stale identity into a stacked run — and both match the
   per-request derivation. *)
let test_rebatch_identity () =
  let families =
    [
      ("ln", fun m -> Ir.Models.layernorm_graph ~m ~n:64);
      ("rms", fun m -> Ir.Models.rmsnorm_graph ~m ~n:64);
      ("softmax", fun m -> Ir.Models.softmax_graph ~m ~n:64);
      ("mlp", fun m -> Ir.Models.mlp ~layers:2 ~m ~n:32 ~k:32);
    ]
  in
  let make m = W.make ~shapes:SC.Pow2 ~arch Backends.Baselines.spacefusion m in
  List.iter
    (fun (fam, graph) ->
      for d = 9 to 64 do
        let w = make (one fam (graph d)) in
        let cap =
          match W.batch_space w with
          | Some (d', cap) when d' = d -> cap
          | _ -> Alcotest.failf "%s/%d: not row-sliceable at its own rows" fam d
        in
        for rows = d to cap do
          let r = W.rebatch w ~rows in
          let fresh =
            make
              { w.model with
                subprograms =
                  List.map
                    (fun (sp : Ir.Models.subprogram) -> { sp with graph = SC.rebatch sp.graph ~rows })
                    w.model.subprograms }
          in
          let label = Printf.sprintf "%s/%d at %d rows" fam d rows in
          if W.digest r <> W.digest fresh || W.batch_space r <> W.batch_space fresh then
            Alcotest.failf "%s: rebatched identity differs from a fresh make" label;
          if W.digest r <> legacy_digest r then
            Alcotest.failf "%s: digest differs from the per-request derivation" label
        done
      done)
    families

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "plan JSON round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
        ] );
      ( "plan_store",
        [
          Alcotest.test_case "put / reopen round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "kill-mid-write recovery" `Quick test_kill_mid_write;
          Alcotest.test_case "tampered payload quarantined" `Quick test_tamper_quarantine;
          Alcotest.test_case "version mismatch rejected in place" `Quick test_version_mismatch;
          Alcotest.test_case "cache restart integration" `Quick test_cache_restart_integration;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "record / query round-trip" `Quick test_telemetry_roundtrip;
          Alcotest.test_case "torn tail tolerated and healed" `Quick test_telemetry_torn_tail;
        ] );
      ( "identity",
        [
          Alcotest.test_case "digests and store files pinned" `Quick test_identity_pinned;
          Alcotest.test_case "rebatch derives make's identity" `Quick test_rebatch_identity;
        ] );
    ]
