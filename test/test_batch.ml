(* Property-test gate for shape-class plan compilation and continuous
   batching (ISSUE 9):

   1. Slice equivalence — in one stacked execution of N row-sliceable
      requests, each member's output rows depend only on that member's
      input rows: rerunning the same batched plan with every other row
      replaced leaves the member's rows bit-identical. This row
      independence is the oracle that licenses the server handing slices
      of one batched run's result to its members.
   2. Guard totality — every positive dim maps to exactly one shape
      class, satisfies its own guard, and no other class on the ladder
      admits it.
   3. Conservation — submitted = done + rejected + timed_out + failed +
      shed + quarantined holds on a [Pow2] server under batched
      accounting, against both the server's counters and an independent
      per-ticket tally.

   Plus a deterministic (staged-backlog) server test that three in-class
   requests actually stack into one sliced batch partitioning the class
   row space. *)

module SC = Runtime.Shape_class
module Gen = Check.Gen

let arch = Gpu.Arch.ampere

(* Drop column reductions from a trace: the resulting trace is still a
   valid build (closure under sublists) and is row-sliceable, so every
   QCheck case counts instead of being discarded. *)
let sliceable_trace spec =
  let t = Gen.trace_of_spec spec in
  {
    t with
    Gen.g_entries =
      List.filter
        (fun (e : Gen.entry) ->
          match e.Gen.e_kind with Gen.KColReduce _ -> false | _ -> true)
        t.Gen.g_entries;
  }

(* Execute a compiled plan functionally over [env]; the same pipeline
   Runtime.Verify drives, returning the output tensors. *)
let exec ~name plan graph env =
  let device = Gpu.Device.create () in
  Gpu.Plan.declare_all plan device;
  List.iter (fun (n, t) -> Gpu.Device.bind device n t) env;
  List.iter
    (fun k -> ignore (Gpu.Exec.run ~mode:Gpu.Exec.Full ~arch device k))
    plan.Gpu.Plan.p_kernels;
  List.mapi
    (fun i _ -> Gpu.Device.tensor device (Printf.sprintf "%s:out%d" name i))
    (Ir.Graph.outputs graph)

(* Rows [off, off+len) of [member], every other row of [other]. *)
let splice_rows ~off ~len member other =
  Tensor.init (Tensor.shape member) (fun idx ->
      let src = if idx.(0) >= off && idx.(0) < off + len then member else other in
      Tensor.get src idx)

(* Bitwise equality of rows [off, off+len) of [a] and [b]: Int64 payload
   compare, so -0.0 vs 0.0 or NaN payload drift would fail where [=] or
   allclose would not. *)
let rows_bit_identical ~off ~len a b =
  let row = Tensor.numel a / (Tensor.shape a).(0) in
  let ba = Tensor.buffer a and bb = Tensor.buffer b in
  Tensor.shape a = Tensor.shape b
  &&
  try
    for j = off * row to ((off + len) * row) - 1 do
      if Int64.bits_of_float ba.{j} <> Int64.bits_of_float bb.{j} then raise Exit
    done;
    true
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* 1. Slice equivalence                                                *)
(* ------------------------------------------------------------------ *)

(* Each member runs through the batched plan, not a plan compiled at its
   own row count: the tuner may pick a different schedule at another
   shape (e.g. a temporal raw-aggregation plan at the batched rows and a
   spatial-only one at the member's), whose results can differ in the
   last bit — a comparison of two plans, not of batching. *)
let slice_equivalent (nodes, seed, r1, r2) =
  let t = sliceable_trace { Gen.sp_nodes = nodes; sp_seed = seed } in
  let total = r1 + r2 in
  let gB = Gen.build (Gen.with_rows t total) in
  (* Cross-check the generator's notion of sliceable against the
     runtime's carrier analysis: the batched graph must be sliceable
     along exactly its stacked leading dim. *)
  if SC.slice_dim gB <> Some total then
    QCheck.Test.fail_reportf "slice_dim rejected a sliceable trace: %s" (Gen.to_string t);
  let plan = Backends.Baselines.spacefusion.Backends.Policy.compile arch ~name:"batch" gB in
  let env = Ir.Interp.random_env ~seed:7 gB in
  let outs_b = exec ~name:"batch" plan gB env in
  let x0 = List.assoc "x0" env and other = List.assoc "x0" (Ir.Interp.random_env ~seed:8 gB) in
  List.for_all
    (fun (off, len) ->
      let env_i =
        List.map
          (fun (n, tens) -> if n = "x0" then (n, splice_rows ~off ~len x0 other) else (n, tens))
          env
      in
      List.for_all2 (rows_bit_identical ~off ~len) outs_b (exec ~name:"batch" plan gB env_i))
    [ (0, r1); (r1, r2) ]

let prop_slice_equivalence =
  QCheck.Test.make ~count:120
    ~name:"batched run == individual runs, bit-identical per row slice"
    QCheck.(
      quad (int_range 2 8) (int_range 0 99_999) (int_range 1 8) (int_range 1 8))
    (fun ((_, _, r1, r2) as case) ->
      (* The shrinker walks row counts below the generator's range. *)
      QCheck.assume (r1 >= 1 && r2 >= 1);
      slice_equivalent case)

(* Spec (4, 16713) compiles to a temporal raw-aggregation plan at 3 rows
   and a spatial-only plan at 1 and 2 rows. *)
let test_slice_fixed_case () =
  Alcotest.(check bool) "spec (4, 16713) at rows 1+2" true (slice_equivalent (4, 16713, 1, 2))

(* ------------------------------------------------------------------ *)
(* 2. Guard totality                                                   *)
(* ------------------------------------------------------------------ *)

let prop_guard_total =
  QCheck.Test.make ~count:500 ~name:"every dim has exactly one admitting class"
    QCheck.(int_range 1 1_000_000)
    (fun d ->
      let c = SC.classify d in
      let rep = SC.representative c in
      let admitting =
        List.filter (fun c' -> SC.guard c' d) (SC.ladder ~max_hi:rep)
      in
      SC.guard c d && rep >= d && admitting = [ c ])

(* ------------------------------------------------------------------ *)
(* 3. Conservation under batched accounting                            *)
(* ------------------------------------------------------------------ *)

let classify_outcome = function
  | Serve.Server.Done r -> `Done r
  | Serve.Server.Rejected _ -> `Rejected
  | Serve.Server.Timed_out -> `Timed_out
  | Serve.Server.Failed m -> `Failed m
  | Serve.Server.Shed _ -> `Shed
  | Serve.Server.Quarantined -> `Quarantined

let model_at trace rows =
  {
    Ir.Models.model_name = "gen-batch";
    subprograms =
      [ { Ir.Models.sp_name = "g"; graph = Gen.build (Gen.with_rows trace rows); count = 1 } ];
  }

let prop_conservation =
  QCheck.Test.make ~count:4
    ~name:"submitted = done + rejected + timed_out + failed + shed + quarantined"
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let trace = sliceable_trace { Gen.sp_nodes = 4; sp_seed = seed } in
      let cfg =
        {
          (Serve.Server.default_config ()) with
          Serve.Server.workers = 3;
          queue_capacity = 16;
          shapes = SC.Pow2;
        }
      in
      let s = Serve.Server.start ~config:cfg () in
      let n = 80 in
      let tickets =
        List.init n (fun _ ->
            (* Mixed in-class rows (all land in (4, 8]) so concurrent
               requests share a digest and stack; ~10% arrive already
               expired, and the tight queue exercises rejection. *)
            let rows = 5 + Random.State.int rng 4 in
            let deadline_s =
              if Random.State.int rng 10 = 0 then Some (-1.0) else None
            in
            let w =
              Runtime.Workload.make ~shapes:SC.Pow2 ~arch
                Backends.Baselines.pytorch (model_at trace rows)
            in
            Serve.Server.submit_w s ?deadline_s w)
      in
      let done_ = ref 0
      and rejected = ref 0
      and timed_out = ref 0
      and failed = ref 0 in
      List.iter
        (fun tk ->
          match classify_outcome (Serve.Server.await tk) with
          | `Done r ->
              incr done_;
              (* Batched accounting: a sliced member's latency still
                 covers its own queue wait, and its slice is in range. *)
              if not Serve.Server.(r.r_latency_s >= r.r_queue_s) then
                QCheck.Test.fail_reportf "latency below queue wait";
              (match r.Serve.Server.r_rows with
              | Some (off, len) when off < 0 || len < 1 ->
                  QCheck.Test.fail_reportf "bad slice (%d, %d)" off len
              | _ -> ())
          | `Rejected -> incr rejected
          | `Timed_out -> incr timed_out
          | `Failed m -> QCheck.Test.fail_reportf "request failed: %s" m
          | `Shed | `Quarantined ->
              QCheck.Test.fail_reportf "shed/quarantined without overload control")
        tickets;
      Serve.Server.shutdown s;
      let st = Serve.Server.stats s in
      Serve.Stats.conserved st
      && st.Serve.Stats.s_submitted = n
      && st.Serve.Stats.s_done = !done_
      && st.Serve.Stats.s_rejected = !rejected
      && st.Serve.Stats.s_timed_out = !timed_out
      && st.Serve.Stats.s_failed = !failed
      && st.Serve.Stats.s_admitted = st.Serve.Stats.s_done + st.Serve.Stats.s_timed_out)

(* ------------------------------------------------------------------ *)
(* Blast-radius bisection (ISSUE 10)                                   *)
(* ------------------------------------------------------------------ *)

(* Synthetic harness for [Serve.Batcher.execute]: members carry their
   own index as tag, a bitmask marks some tags poisoned, and the run
   callback behaves like the server's — any subset containing a poisoned
   member splits, a clean subset serves. The property is the blast-radius
   contract: every member is delivered exactly once, in admission order;
   every non-poisoned member is served from a clean sub-run at its
   cumulative row offset, every poisoned member is isolated alone, a
   fully clean batch runs exactly once, the split and isolation counters
   move only inside batches of several members, and the whole bisection
   tree is deterministic. *)
let prop_bisect_blast_radius =
  QCheck.Test.make ~count:300 ~name:"bisection isolates exactly the poisoned members"
    QCheck.(pair (list_of_size (Gen.int_range 1 12) (int_range 1 8)) (int_bound 4095))
    (fun (row_list, pmask) ->
      let module B = Serve.Batcher in
      let n = List.length row_list in
      let poisoned i = (pmask lsr i) land 1 = 1 in
      let counter name =
        match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0
      in
      (* One execution: the (index, slot) deliveries in callback order, and
         the number of runs. *)
      let execute () =
        let got = ref [] and runs = ref 0 in
        let members =
          List.mapi
            (fun i r -> { B.m_rows = r; m_deadline = None; m_tag = i; m_cb = (fun s -> got := (i, s) :: !got) })
            row_list
        in
        let run ms ~rows =
          incr runs;
          let ids = List.map (fun m -> m.B.m_tag) ms in
          if List.exists poisoned ids then `Split (false, ids, rows) else `Served (true, ids, rows)
        in
        B.execute (B.form ~cap:(List.fold_left ( + ) 0 row_list) members) ~clock:(fun () -> 0.0) ~run;
        (List.rev !got, !runs)
      in
      let isolated0 = counter "batch.isolated" and bisections0 = counter "batch.bisections" in
      let got, runs = execute () in
      let isolated = counter "batch.isolated" - isolated0
      and bisections = counter "batch.bisections" - bisections0 in
      let got', runs' = execute () in
      let n_poisoned = List.length (List.filter poisoned (List.init n Fun.id)) in
      let exactly_once_in_order = List.map fst got = List.init n Fun.id in
      let member_ok (i, (s : _ B.slot)) =
        let ok, ids, rows = s.sl_result in
        s.sl_len = List.nth row_list i
        && (not s.sl_expired)
        &&
        if poisoned i then (not ok) && s.sl_members = 1 && ids = [ i ]
        else
          ok
          && (not (List.exists poisoned ids))
          && s.sl_members = List.length ids
          && s.sl_rows = rows
          && rows = List.fold_left (fun a j -> a + List.nth row_list j) 0 ids
          &&
          (* served at the cumulative offset of its predecessors in
             sub-run order — the slice the server would deliver *)
          let rec expect acc = function
            | [] -> -1
            | j :: _ when j = i -> acc
            | j :: tl -> expect (acc + List.nth row_list j) tl
          in
          s.sl_off = expect 0 ids
      in
      let clean_fast_path =
        n_poisoned > 0 || (runs = 1 && List.for_all (fun (_, (s : _ B.slot)) -> s.sl_members = n) got)
      in
      let counted =
        if n = 1 then isolated = 0 && bisections = 0
        else isolated = n_poisoned && (n_poisoned = 0) = (bisections = 0)
      in
      exactly_once_in_order
      && List.for_all member_ok got
      && clean_fast_path && counted && got = got' && runs = runs')

(* ------------------------------------------------------------------ *)
(* Deterministic batch formation                                       *)
(* ------------------------------------------------------------------ *)

(* Staged backlog, one worker: all three requests are queued before the
   worker pops the first, which takes the other two from the backlog —
   so they are guaranteed to share one sliced batch, independent of
   scheduler timing. *)
let test_batch_partitions_rows () =
  let trace = sliceable_trace { Gen.sp_nodes = 5; sp_seed = 11 } in
  let cfg = { (Serve.Server.default_config ()) with Serve.Server.workers = 1; shapes = SC.Pow2 } in
  let s = Serve.Server.start ~config:cfg () in
  (* Rows 5, 6, 5: all in class (4, 8], stacking to exactly the next
     boundary 16 = cap. *)
  let rows = [ 5; 6; 5 ] in
  Serve.Server.pause s;
  let tickets =
    List.map
      (fun r ->
        ( r,
          Serve.Server.submit_w s
            (Runtime.Workload.make ~shapes:SC.Pow2 ~arch Backends.Baselines.pytorch
               (model_at trace r)) ))
      rows
  in
  Serve.Server.resume s;
  let slices =
    List.map
      (fun (r, tk) ->
        match classify_outcome (Serve.Server.await tk) with
        | `Done resp ->
            Alcotest.(check int) "all three members delivered together" 3
              resp.Serve.Server.r_batch;
            (match resp.Serve.Server.r_rows with
            | Some (off, len) ->
                Alcotest.(check int) "slice length is the member's own rows" r len;
                (off, len)
            | None -> Alcotest.fail "sliced member delivered without a row slice")
        | _ -> Alcotest.fail "batched request not served")
      tickets
  in
  Serve.Server.shutdown s;
  (* The member slices partition [0, 16) without gap or overlap. *)
  let sorted = List.sort compare slices in
  let last =
    List.fold_left
      (fun expect (off, len) ->
        Alcotest.(check int) "slices are contiguous" expect off;
        off + len)
      0 sorted
  in
  Alcotest.(check int) "slices cover the stacked row space" 16 last;
  let st = Serve.Server.stats s in
  Alcotest.(check int) "two members joined the leader" 2 st.Serve.Stats.s_coalesced;
  Alcotest.(check int) "every member counted as batched" 3 st.Serve.Stats.s_batched

let () =
  Alcotest.run "batch"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_slice_equivalence;
            prop_guard_total;
            prop_conservation;
            prop_bisect_blast_radius;
          ] );
      ( "server",
        [
          Alcotest.test_case "three in-class requests partition one batch" `Quick
            test_batch_partitions_rows;
        ] );
      ( "slicing",
        [ Alcotest.test_case "spec (4, 16713) at rows 1+2" `Quick test_slice_fixed_case ] );
    ]
