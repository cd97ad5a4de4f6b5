(* Tests for the serving runtime: admission-queue invariants (capacity
   bound, FIFO order, deadline expiry), batch formation, bisection and
   delivery, batches gathered from the backlog, and the server's
   exactly-once outcome guarantee across the Done / Rejected / Timed_out /
   Failed terminal states, including degrade and retry paths. *)

module Q = Serve.Queue
module Policy = Backends.Policy

let arch = Gpu.Arch.ampere

let model_of name g =
  { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }

let ln n = model_of (Printf.sprintf "ln%d" n) (Ir.Models.layernorm_graph ~m:n ~n)

(* A real compile behind a call counter and an optional gate, so tests can
   hold a worker inside a compile deterministically. *)
let stub ?(be_name = "stub") ?gate ?(fail_first = 0) calls =
  let attempts = Atomic.make 0 in
  {
    Policy.be_name;
    dispatch_us = 0.0;
    supports = (fun _ -> true);
    compile =
      (fun arch ~name g ->
        Atomic.incr calls;
        (match gate with
        | Some gate ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done
        | None -> ());
        if Atomic.fetch_and_add attempts 1 < fail_first then failwith "transient stub failure";
        Policy.compile_groups arch ~name g (Policy.singletons g));
  }

(* A bounded wait: a condition that still does not hold after [seconds]
   fails the test, naming what it waited for, instead of hanging the
   suite. *)
let wait_until ?(seconds = 5.0) what cond =
  let stop = Unix.gettimeofday () +. seconds in
  while not (cond ()) do
    if Unix.gettimeofday () > stop then Alcotest.failf "still waiting after %.0f s: %s" seconds what;
    Unix.sleepf 1e-4
  done

(* A watchdog await: a request that never resolves fails the test. *)
let await_within ?seconds tk =
  wait_until ?seconds "a request to resolve" (fun () -> Serve.Server.peek tk <> None);
  Option.get (Serve.Server.peek tk)

let counter name =
  match Obs.Metrics.find name with Some (Obs.Metrics.Counter c) -> c | _ -> 0

(* ------------------------------------------------------------------ *)
(* Queue                                                               *)
(* ------------------------------------------------------------------ *)

let pushed =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt (match r with `Queued -> "queued" | `Full -> "full" | `Closed -> "closed"))
    ( = )

let test_queue_fifo () =
  let q = Q.create ~capacity:16 () in
  List.iter (fun x -> Alcotest.check pushed ("push " ^ x) `Queued (Q.push q x)) [ "a1"; "a2"; "b1"; "c1"; "a3" ];
  let popped () =
    match Q.pop q with
    | `Item p -> p.Q.p_payload
    | `Expired _ -> Alcotest.fail "unexpected expiry"
    | `Closed -> Alcotest.fail "unexpected close"
  in
  Alcotest.(check (list string)) "admission order" [ "a1"; "a2" ] (List.init 2 (fun _ -> popped ()));
  Alcotest.check pushed "push after pops" `Queued (Q.push q "d1");
  Alcotest.(check (list string)) "a later arrival queues behind the backlog" [ "b1"; "c1"; "a3" ]
    (List.init 3 (fun _ -> popped ()));
  Q.close q;
  Alcotest.check pushed "push after close refused" `Closed (Q.push q "late");
  Alcotest.(check string) "a closed queue still drains its backlog" "d1" (popped ());
  Alcotest.(check bool) "pop after close+empty" true (Q.pop q = `Closed)

let test_queue_capacity () =
  let q = Q.create ~capacity:3 () in
  Alcotest.(check (list pushed)) "fourth arrival refused"
    [ `Queued; `Queued; `Queued; `Full ]
    (List.init 4 (fun i -> Q.push q i));
  Alcotest.(check int) "backlog capped" 3 (Q.length q);
  (match Q.pop q with `Item _ -> () | _ -> Alcotest.fail "expected an item");
  Alcotest.check pushed "slot freed" `Queued (Q.push q 4);
  Alcotest.check pushed "full again" `Full (Q.push q 5);
  Alcotest.(check int) "still capped" 3 (Q.length q);
  Q.close q;
  Alcotest.check pushed "a full, closed queue says closed" `Closed (Q.push q 6)

let test_queue_deadline_expiry () =
  let now = ref 0.0 in
  let q = Q.create ~clock:(fun () -> !now) ~capacity:8 () in
  Alcotest.check pushed "push with deadline" `Queued (Q.push q ~deadline:5.0 "d5");
  Alcotest.check pushed "push without deadline" `Queued (Q.push q "live");
  now := 10.0;
  (match Q.pop q with
  | `Expired p ->
      Alcotest.(check string) "expired payload surfaced" "d5" p.Q.p_payload;
      Alcotest.(check (float 1e-9)) "queued time measured on the fake clock" 10.0 p.Q.p_queued_s
  | _ -> Alcotest.fail "deadline 5 at clock 10 must expire");
  (match Q.pop q with
  | `Item p -> Alcotest.(check string) "deadline-free item lives" "live" p.Q.p_payload
  | _ -> Alcotest.fail "expected a live item");
  Alcotest.check pushed "fresh deadline not expired" `Queued (Q.push q ~deadline:20.0 "d20");
  match Q.pop q with
  | `Item p -> Alcotest.(check string) "deadline in the future is live" "d20" p.Q.p_payload
  | _ -> Alcotest.fail "deadline 20 at clock 10 must not expire"

let test_queue_take () =
  (* [take] removes exactly the items its predicate accepts, in pop order,
     reports an expired one as [`Expired] the way [pop] would, leaves the
     rest in order, and takes nothing while the queue is paused. *)
  let now = ref 0.0 in
  let q = Q.create ~clock:(fun () -> !now) ~capacity:8 () in
  List.iter
    (fun (x, deadline) -> ignore (Q.push q ?deadline x))
    [ ("a1", None); ("b1", Some 5.0); ("a2", None); ("b2", None); ("b3", None) ];
  Q.pause q;
  let calls = ref 0 in
  Alcotest.(check int) "nothing taken while paused" 0
    (List.length (Q.take q (fun ~expired:_ _ -> incr calls; true)));
  Alcotest.(check int) "predicate not consulted while paused" 0 !calls;
  Alcotest.(check int) "backlog intact" 5 (Q.length q);
  Q.resume q;
  now := 10.0;
  let seen = ref [] in
  let taken =
    Q.take q (fun ~expired x ->
        seen := x :: !seen;
        x.[0] = 'b' && (expired || x <> "b3"))
  in
  Alcotest.(check (list string)) "predicate sees every item once, in pop order"
    [ "a1"; "b1"; "a2"; "b2"; "b3" ] (List.rev !seen);
  Alcotest.(check (list string)) "taken in pop order, expiry reported"
    [ "expired b1"; "item b2" ]
    (List.map
       (function `Expired p -> "expired " ^ p.Q.p_payload | `Item p -> "item " ^ p.Q.p_payload)
       taken);
  Alcotest.(check int) "length drops by the taken" 3 (Q.length q);
  let popped () = match Q.pop q with `Item p -> p.Q.p_payload | _ -> Alcotest.fail "expected an item" in
  Alcotest.(check (list string)) "the rest keep their order" [ "a1"; "a2"; "b3" ]
    (List.init 3 (fun _ -> popped ()))

(* Model-based property: against a reference FIFO, the real queue accepts
   exactly when the model is under capacity, never exceeds capacity, pops
   in admission order, and [take]s exactly the items a stateful predicate
   accepts (here: at most two ids of one residue mod 3) oldest first while
   the rest keep their order. At the end every admitted item has left
   exactly once. *)
let prop_queue_model =
  QCheck.Test.make ~count:300 ~name:"queue model: capacity + FIFO"
    QCheck.(list (pair (int_bound 2) (int_bound 2)))
    (fun ops ->
      let cap = 4 in
      let q = Q.create ~capacity:cap () in
      let model = ref (Stdlib.Queue.create ()) in
      let mlen () = Stdlib.Queue.length !model in
      let admitted = ref [] and left = ref [] in
      let next = ref 0 in
      let pop () =
        match Q.pop q with
        | `Item p ->
            let expected = Stdlib.Queue.pop !model in
            left := p.Q.p_payload :: !left;
            p.Q.p_payload = expected && Q.length q = mlen ()
        | `Expired _ | `Closed -> false
      in
      let step (kind, arg) =
        match kind with
        | 0 ->
            let id = !next in
            incr next;
            let accepted = Q.push q id = `Queued in
            let should = mlen () < cap in
            if accepted then begin
              Stdlib.Queue.add id !model;
              admitted := id :: !admitted
            end;
            accepted = should && Q.length q = mlen () && Q.length q <= cap
        | 1 -> mlen () = 0 (* a pop would block; the op is a no-op *) || pop ()
        | _ ->
            let before = List.of_seq (Stdlib.Queue.to_seq !model) in
            let seen = ref [] and k = ref 0 in
            let want ~expired id =
              seen := id :: !seen;
              (not expired) && id mod 3 = arg && (incr k; !k <= 2)
            in
            let taken =
              List.map (function `Item p -> p.Q.p_payload | `Expired p -> -1 - p.Q.p_payload) (Q.take q want)
            in
            let k = ref 0 in
            let expected = List.filter (fun id -> id mod 3 = arg && (incr k; !k <= 2)) before in
            model := Stdlib.Queue.of_seq (List.to_seq (List.filter (fun id -> not (List.mem id expected)) before));
            left := taken @ !left;
            List.rev !seen = before && taken = expected && Q.length q = mlen ()
      in
      List.for_all step ops
      && List.for_all (fun _ -> pop ()) (List.init (mlen ()) Fun.id)
      && List.sort compare !left = List.sort compare !admitted)

(* ------------------------------------------------------------------ *)
(* Batcher                                                             *)
(* ------------------------------------------------------------------ *)

module B = Serve.Batcher

let member ?(rows = 1) ?deadline cb = { B.m_rows = rows; m_deadline = deadline; m_tag = 0; m_cb = cb }
let serve_whole b r = B.execute b ~clock:(fun () -> 0.0) ~run:(fun _ ~rows:_ -> `Served r)

let test_batcher_sliced_rows_and_boundary () =
  (* A batch forms complete: members stack their rows in admission order
     up to the class boundary, one run serves them all, and each gets its
     own disjoint row slice. A member list past the boundary is refused —
     the member that does not fit leads the next batch instead. A
     non-sliceable request is a one-member batch without a slice. *)
  let slots = ref [] in
  let joiner tag rows = member ~rows (fun s -> slots := (tag, s) :: !slots) in
  let full0 = counter "batch.boundary_closes" in
  let b = B.form ~cap:8 [ joiner "a" 3; joiner "b" 2; joiner "c" 3 ] in
  Alcotest.(check int) "members" 3 (B.members b);
  Alcotest.(check int) "a batch that reached the cap counts" 1 (counter "batch.boundary_closes" - full0);
  Alcotest.check_raises "one row past the boundary"
    (Invalid_argument "Batcher.form: 9 rows exceed the cap 8") (fun () ->
      ignore (B.form ~cap:8 [ joiner "a" 3; joiner "b" 2; joiner "c" 3; joiner "d" 1 ]));
  Alcotest.check_raises "a member without rows does not stack"
    (Invalid_argument "Batcher.form: a member without rows") (fun () ->
      ignore (B.form ~cap:8 [ joiner "a" 3; joiner "z" 0 ]));
  let b2 = B.form ~cap:8 [ joiner "d" 1 ] in
  let solo = B.form ~cap:0 [ joiner "e" 0 ] in
  Alcotest.(check int) "a batch under the cap, or without rows, does not count" 1
    (counter "batch.boundary_closes" - full0);
  let runs = ref [] in
  B.execute b ~clock:(fun () -> 0.0) ~run:(fun ms ~rows ->
      runs := (List.length ms, rows) :: !runs;
      `Served 7);
  Alcotest.(check (list (pair int int))) "one run serves the whole batch, rows stacked" [ (3, 8) ] !runs;
  let find tag = List.assoc tag (List.rev !slots) in
  List.iter
    (fun (tag, off, len) ->
      let s = find tag in
      Alcotest.(check (pair int int)) (tag ^ " slice") (off, len) (s.B.sl_off, s.B.sl_len);
      Alcotest.(check int) (tag ^ " members") 3 s.B.sl_members;
      Alcotest.(check int) (tag ^ " rows") 8 s.B.sl_rows;
      Alcotest.(check int) (tag ^ " result") 7 s.B.sl_result;
      Alcotest.(check bool) (tag ^ " not expired") false s.B.sl_expired)
    [ ("a", 0, 3); ("b", 3, 2); ("c", 5, 3) ];
  Alcotest.(check (list string)) "callbacks run in admission order" [ "a"; "b"; "c" ]
    (List.rev_map fst !slots);
  serve_whole b2 9;
  Alcotest.(check int) "follow-on batch delivered its own result" 9 (find "d").B.sl_result;
  Alcotest.(check (pair int int)) "follow-on batch starts at row 0" (0, 1)
    ((find "d").B.sl_off, (find "d").B.sl_len);
  serve_whole solo 5;
  let e = find "e" in
  Alcotest.(check (list int)) "a non-sliceable member: served alone, no rows" [ 5; 1; 0; 0 ]
    [ e.B.sl_result; e.B.sl_members; e.B.sl_rows; e.B.sl_len ]

let test_batcher_member_deadlines () =
  (* Each member of a batch keeps its own absolute deadline and expires
     independently at delivery — joining never substitutes the leader's
     deadline. The run honors the slackest member. *)
  let clock = ref 0.0 in
  let slots = ref [] in
  let joiner tag deadline = member ?deadline (fun s -> slots := (tag, s) :: !slots) in
  Alcotest.(check (option (float 1e-9))) "run honors the slackest deadline" (Some 10.0)
    (B.run_deadline (B.form ~cap:8 [ joiner "x" (Some 0.5); joiner "y" (Some 10.0) ]));
  let b = B.form ~cap:8 [ joiner "leader" (Some 10.0); joiner "tight" (Some 0.5); joiner "slack" None ] in
  Alcotest.(check (option (float 1e-9))) "a deadline-free member frees the run" None (B.run_deadline b);
  (* The run takes long enough to blow only the tight deadline. *)
  B.execute b ~clock:(fun () -> !clock) ~run:(fun _ ~rows:_ ->
      clock := 1.0;
      `Served 1);
  let find tag = List.assoc tag (List.rev !slots) in
  Alcotest.(check bool) "leader within budget" false (find "leader").B.sl_expired;
  Alcotest.(check bool) "tight member expired on its own deadline" true (find "tight").B.sl_expired;
  Alcotest.(check bool) "deadline-free member served" false (find "slack").B.sl_expired

(* ------------------------------------------------------------------ *)
(* Shed: admission feasibility and quarantine                          *)
(* ------------------------------------------------------------------ *)

module Shed = Serve.Shed

let test_shed_ewma () =
  let sh = Shed.create () in
  Alcotest.(check (option (float 1e-12))) "unknown key" None (Shed.estimate sh ~key:"k");
  Shed.observe sh ~key:"k" ~service_s:1.0;
  Alcotest.(check (option (float 1e-12))) "first observation initialises" (Some 1.0)
    (Shed.estimate sh ~key:"k");
  Shed.observe sh ~key:"k" ~service_s:2.0;
  Alcotest.(check (option (float 1e-12))) "ewma folds at alpha 0.3" (Some 1.3)
    (Shed.estimate sh ~key:"k");
  Shed.observe sh ~key:"k" ~service_s:(-1.0);
  Shed.observe sh ~key:"k" ~service_s:Float.nan;
  Alcotest.(check (option (float 1e-12))) "bad samples ignored" (Some 1.3)
    (Shed.estimate sh ~key:"k")

let test_shed_admission () =
  let sh = Shed.create ~workers:2 () in
  (* Never-seen key: admits even under an impossible deadline (cold starts
     must not shed on ignorance) and charges nothing. *)
  (match Shed.admit sh ~key:"cold" ~deadline_rel:0.0 () with
  | `Admit c -> Alcotest.(check (float 1e-12)) "cold start is free" 0.0 c
  | `Shed m -> Alcotest.failf "cold start shed: %s" m);
  Shed.observe sh ~key:"k" ~service_s:1.0;
  let c1 =
    match Shed.admit sh ~key:"k" ~deadline_rel:1.5 () with
    | `Admit c -> c
    | `Shed m -> Alcotest.failf "feasible request shed: %s" m
  in
  Alcotest.(check (float 1e-12)) "charged its estimate" 1.0 c1;
  Alcotest.(check (float 1e-12)) "backlog carries the charge" 1.0 (Shed.backlog_seconds sh);
  (* wait 1.0/2 + svc 1.0 = 1.5 > 1.2: infeasible, and nothing charged. *)
  (match Shed.admit sh ~key:"k" ~deadline_rel:1.2 () with
  | `Shed _ -> ()
  | `Admit _ -> Alcotest.fail "infeasible deadline admitted");
  Alcotest.(check (float 1e-12)) "shed charges nothing" 1.0 (Shed.backlog_seconds sh);
  (* No deadline: always admits, but still weighs on the backlog. *)
  (match Shed.admit sh ~key:"k" () with
  | `Admit c -> Alcotest.(check (float 1e-12)) "deadline-free charge" 1.0 c
  | `Shed m -> Alcotest.failf "deadline-free request shed: %s" m);
  Shed.drain sh c1;
  Shed.drain sh 1.0;
  Alcotest.(check (float 1e-12)) "drained back to zero" 0.0 (Shed.backlog_seconds sh);
  Shed.drain sh 5.0;
  Alcotest.(check (float 1e-12)) "drain clamps at zero" 0.0 (Shed.backlog_seconds sh)

let test_shed_quarantine () =
  let sh = Shed.create ~quarantine_threshold:2 () in
  Alcotest.(check bool) "clean key not quarantined" false (Shed.quarantined sh ~key:"k");
  Alcotest.(check int) "first offense" 1 (Shed.offense sh ~key:"k");
  Alcotest.(check bool) "below threshold" false (Shed.quarantined sh ~key:"k");
  Alcotest.(check int) "second offense" 2 (Shed.offense sh ~key:"k");
  Alcotest.(check bool) "at threshold" true (Shed.quarantined sh ~key:"k");
  Alcotest.(check bool) "keys independent" false (Shed.quarantined sh ~key:"other");
  let off = Shed.create () in
  ignore (Shed.offense off ~key:"k");
  Alcotest.(check bool) "threshold 0 disables quarantine" false (Shed.quarantined off ~key:"k")

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let config ?(workers = 2) ?(capacity = 64) ?(retries = 2) () =
  {
    (Serve.Server.default_config ()) with
    Serve.Server.workers;
    queue_capacity = capacity;
    max_retries = retries;
    backoff_s = 1e-6;
    backoff_cap_s = 1e-5;
  }

let expect_done = function
  | Serve.Server.Done r -> r
  | Rejected m -> Alcotest.failf "rejected: %s" m
  | Timed_out -> Alcotest.fail "timed out"
  | Failed m -> Alcotest.failf "failed: %s" m
  | Shed m -> Alcotest.failf "shed: %s" m
  | Quarantined -> Alcotest.fail "quarantined"

let test_server_serves () =
  let calls = Atomic.make 0 in
  let b = stub calls in
  let s = Serve.Server.start ~config:(config ()) () in
  let tickets = List.init 5 (fun i -> Serve.Server.submit s ~arch b (ln (32 + (8 * i)))) in
  let rs = List.map (fun tk -> expect_done (Serve.Server.await tk)) tickets in
  Serve.Server.shutdown s;
  List.iter
    (fun (r : Serve.Server.response) ->
      Alcotest.(check bool) "not degraded" false r.r_degraded;
      Alcotest.(check bool) "latency covers the queue wait" true (r.r_latency_s >= r.r_queue_s))
    rs;
  let st = Serve.Server.stats s in
  Alcotest.(check int) "all admitted" 5 st.Serve.Stats.s_admitted;
  Alcotest.(check int) "all done" 5 st.Serve.Stats.s_done;
  Alcotest.(check bool) "accounting conserved" true (Serve.Stats.conserved st);
  Alcotest.(check int) "a latency per done request" 5 (List.length (Serve.Server.latencies s))

let test_server_exactly_once_outcomes () =
  (* One worker, capacity 2, leader held inside its compile: while it is
     blocked we can fill the backlog (admitted), overflow it (rejected)
     and park an already-expired request (timed out) — then release and
     check every ticket resolved exactly once, conserving the counts. *)
  let gate = Atomic.make false in
  let calls = Atomic.make 0 in
  let gated = stub ~be_name:"gated" ~gate calls in
  let plain = stub (Atomic.make 0) in
  let s = Serve.Server.start ~config:(config ~workers:1 ~capacity:2 ()) () in
  let t_a = Serve.Server.submit s ~arch gated (ln 32) in
  wait_until "the worker inside A's compile" (fun () -> Atomic.get calls >= 1);
  (* Worker is inside A's compile; the queue is empty again. *)
  let t_expired = Serve.Server.submit s ~deadline_s:(-1.0) ~arch plain (ln 40) in
  let t_b = Serve.Server.submit s ~arch plain (ln 48) in
  let t_over = Serve.Server.submit s ~arch plain (ln 56) in
  (match Serve.Server.peek t_over with
  | Some (Serve.Server.Rejected _) -> ()
  | _ -> Alcotest.fail "overflow must reject immediately");
  Atomic.set gate true;
  ignore (expect_done (Serve.Server.await t_a));
  (match Serve.Server.await t_expired with
  | Serve.Server.Timed_out -> ()
  | _ -> Alcotest.fail "expired-in-backlog request must time out");
  ignore (expect_done (Serve.Server.await t_b));
  Serve.Server.shutdown s;
  (* Awaiting again returns the same outcome: resolution is sticky. *)
  Alcotest.(check bool) "second await identical" true
    (Serve.Server.await t_expired = Serve.Server.Timed_out);
  let st = Serve.Server.stats s in
  Alcotest.(check int) "submitted" 4 st.Serve.Stats.s_submitted;
  Alcotest.(check int) "admitted" 3 st.Serve.Stats.s_admitted;
  Alcotest.(check int) "done" 2 st.Serve.Stats.s_done;
  Alcotest.(check int) "rejected" 1 st.Serve.Stats.s_rejected;
  Alcotest.(check int) "timed out" 1 st.Serve.Stats.s_timed_out;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_server_identical_compile_once () =
  (* Four identical non-sliceable requests on two workers, the first held
     inside its compile: each request runs as its own one-member batch,
     and the plan cache's single flight still compiles the plan once and
     runs its functional first run once — the other worker waits on that
     claim and is served the verified plan on the analytic fast path. *)
  let gate = Atomic.make false in
  let calls = Atomic.make 0 in
  let gated = stub ~be_name:"gated" ~gate calls in
  let f0 = counter "run.functional_execs" and w0 = counter "run.warm_fast_path" in
  let s = Serve.Server.start ~config:(config ~workers:2 ()) () in
  let tickets = List.init 4 (fun _ -> Serve.Server.submit s ~arch gated (ln 32)) in
  wait_until "the first compile to start" (fun () -> Atomic.get calls >= 1);
  Atomic.set gate true;
  let rs = List.map (fun tk -> expect_done (await_within tk)) tickets in
  Serve.Server.shutdown s;
  Alcotest.(check int) "one compile for four requests" 1 (Atomic.get calls);
  Alcotest.(check int) "one functional first run" 1 (counter "run.functional_execs" - f0);
  Alcotest.(check int) "three warm fast paths" 3 (counter "run.warm_fast_path" - w0);
  List.iter
    (fun (r : Serve.Server.response) ->
      Alcotest.(check bool) "served by its own run" false r.r_coalesced;
      Alcotest.(check int) "a one-member batch" 1 r.r_batch)
    rs;
  let st = Serve.Server.stats s in
  Alcotest.(check int) "all four done" 4 st.Serve.Stats.s_done;
  Alcotest.(check int) "none coalesced" 0 st.Serve.Stats.s_coalesced;
  Alcotest.(check int) "none batched" 0 st.Serve.Stats.s_batched;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_server_degrades_on_unschedulable () =
  let b =
    {
      Policy.be_name = "unsched";
      dispatch_us = 0.0;
      supports = (fun _ -> true);
      compile = (fun _ ~name:_ _ -> raise (Core.Spacefusion.Unschedulable "no schedule"));
    }
  in
  let s = Serve.Server.start ~config:(config ~workers:1 ()) () in
  let r = expect_done (Serve.Server.await (Serve.Server.submit s ~arch b (ln 32))) in
  Serve.Server.shutdown s;
  Alcotest.(check bool) "served from the baseline" true r.Serve.Server.r_degraded;
  Alcotest.(check int) "degrade recorded" 1 (Serve.Server.stats s).Serve.Stats.s_degraded

let test_server_arena_budget_relief () =
  (* A solo fused run that allocates past its arena budget takes a typed
     Resource_exhausted fault: the batch-admission cap halves and the
     request is served from the unbudgeted unfused baseline. *)
  let trips0 = counter "arena.budget_trips" in
  let config = { (config ~workers:1 ()) with Serve.Server.arena_budget_bytes = Some 1024 } in
  let s = Serve.Server.start ~config () in
  let tk = Serve.Server.submit s ~arch (stub (Atomic.make 0)) (ln 32) in
  let r = expect_done (Serve.Server.await tk) in
  let cap_shift = Serve.Server.batch_cap_shift s in
  Serve.Server.shutdown s;
  Alcotest.(check bool) "served from the relief path" true r.Serve.Server.r_degraded;
  Alcotest.(check bool) "the arena budget tripped" true (counter "arena.budget_trips" > trips0);
  Alcotest.(check int) "the batch cap halved once" 1 cap_shift;
  Alcotest.(check int) "degrade recorded" 1 (Serve.Server.stats s).Serve.Stats.s_degraded

let test_server_rejects_unsupported () =
  let b = { (stub (Atomic.make 0)) with Policy.be_name = "volta-only"; supports = (fun _ -> false) } in
  let s = Serve.Server.start ~config:(config ~workers:1 ()) () in
  let tk = Serve.Server.submit s ~arch b (ln 32) in
  (match Serve.Server.await tk with
  | Serve.Server.Rejected msg ->
      Alcotest.(check bool) "names the backend" true
        (Astring.String.is_infix ~affix:"volta-only" msg)
  | _ -> Alcotest.fail "unsupported (backend, arch) must reject");
  Serve.Server.shutdown s;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved (Serve.Server.stats s))

let test_server_rejections_say_why () =
  (* A refused submission names its cause: a full backlog (staged behind
     [pause]) reads "queue full", and one submitted after [shutdown]
     reads "server shut down", not "queue full". *)
  let plain = stub (Atomic.make 0) in
  let s = Serve.Server.start ~config:(config ~workers:1 ~capacity:2 ()) () in
  Serve.Server.pause s;
  let admitted = List.map (fun rows -> Serve.Server.submit s ~arch plain (ln rows)) [ 32; 40 ] in
  let rejected msg tk =
    match Serve.Server.peek tk with
    | Some (Serve.Server.Rejected m) -> Alcotest.(check string) "rejection message" msg m
    | _ -> Alcotest.failf "expected an immediate Rejected %S" msg
  in
  rejected "queue full" (Serve.Server.submit s ~arch plain (ln 48));
  Serve.Server.shutdown s;
  List.iter (fun tk -> ignore (expect_done (Serve.Server.await tk))) admitted;
  rejected "server shut down" (Serve.Server.submit s ~arch plain (ln 56));
  let st = Serve.Server.stats s in
  Alcotest.(check int) "submitted" 4 st.Serve.Stats.s_submitted;
  Alcotest.(check int) "rejected" 2 st.Serve.Stats.s_rejected;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_server_retries_transient () =
  let calls = Atomic.make 0 in
  let flaky = stub ~be_name:"flaky" ~fail_first:2 calls in
  let s = Serve.Server.start ~config:(config ~workers:1 ~retries:2 ()) () in
  let r = expect_done (Serve.Server.await (Serve.Server.submit s ~arch flaky (ln 32))) in
  Serve.Server.shutdown s;
  Alcotest.(check int) "two retries recorded on the response" 2 r.Serve.Server.r_retries;
  Alcotest.(check int) "three attempts" 3 (Atomic.get calls);
  let st = Serve.Server.stats s in
  Alcotest.(check int) "retry counter" 2 st.Serve.Stats.s_retries;
  Alcotest.(check int) "no failure" 0 st.Serve.Stats.s_failed

let test_server_fails_after_retry_budget () =
  let calls = Atomic.make 0 in
  let doomed = stub ~be_name:"doomed" ~fail_first:max_int calls in
  let s = Serve.Server.start ~config:(config ~workers:1 ~retries:1 ()) () in
  (match Serve.Server.await (Serve.Server.submit s ~arch doomed (ln 32)) with
  | Serve.Server.Failed msg ->
      Alcotest.(check bool) "carries the exception" true
        (Astring.String.is_infix ~affix:"transient stub failure" msg)
  | _ -> Alcotest.fail "exhausted retries must fail");
  Serve.Server.shutdown s;
  Alcotest.(check int) "initial attempt + one retry" 2 (Atomic.get calls);
  let st = Serve.Server.stats s in
  Alcotest.(check int) "failure recorded" 1 st.Serve.Stats.s_failed;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_server_breaker_recovery () =
  (* Two consecutive fused failures trip a threshold-2 breaker; with a zero
     cooldown the very next retry is the half-open probe, and its success
     closes the breaker again: open -> half-open -> closed within one
     request's retry loop. *)
  let calls = Atomic.make 0 in
  let flaky = stub ~be_name:"flaky" ~fail_first:2 calls in
  let cfg =
    {
      (config ~workers:1 ~retries:2 ()) with
      Serve.Server.breaker = { Serve.Breaker.threshold = 2; cooldown_s = 0.0 };
    }
  in
  let s = Serve.Server.start ~config:cfg () in
  let r = expect_done (Serve.Server.await (Serve.Server.submit s ~arch flaky (ln 32))) in
  Serve.Server.shutdown s;
  Alcotest.(check int) "two retries on the response" 2 r.Serve.Server.r_retries;
  Alcotest.(check bool) "probe served the fused path" false r.Serve.Server.r_degraded;
  let path = Runtime.Workload.make ~arch flaky (ln 32) in
  Alcotest.(check int) "breaker tripped once" 1 (Serve.Server.breaker_trips_w s path);
  Alcotest.(check bool) "breaker recovered closed" true
    (Serve.Server.breaker_state_w s path = Serve.Breaker.Closed)

let test_server_deadline_aware_backoff () =
  (* A retry whose backoff would sleep past the request's absolute deadline
     resolves Timed_out immediately instead of sleeping: under a frozen
     clock and a one-second backoff this test only terminates fast if no
     real sleep happens. *)
  let calls = Atomic.make 0 in
  let doomed = stub ~be_name:"doomed" ~fail_first:max_int calls in
  let cfg =
    {
      (config ~workers:1 ~retries:5 ()) with
      Serve.Server.clock = (fun () -> 0.0);
      backoff_s = 1.0;
      backoff_cap_s = 1.0;
    }
  in
  let s = Serve.Server.start ~config:cfg () in
  let t0 = Unix.gettimeofday () in
  (match Serve.Server.await (Serve.Server.submit s ~deadline_s:0.5 ~arch doomed (ln 32)) with
  | Serve.Server.Timed_out -> ()
  | _ -> Alcotest.fail "backoff past the deadline must time out");
  Serve.Server.shutdown s;
  Alcotest.(check bool) "no backoff sleep happened" true (Unix.gettimeofday () -. t0 < 0.9);
  Alcotest.(check int) "single attempt" 1 (Atomic.get calls);
  let st = Serve.Server.stats s in
  Alcotest.(check int) "no retry recorded" 0 st.Serve.Stats.s_retries;
  Alcotest.(check int) "timed out" 1 st.Serve.Stats.s_timed_out;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_server_sheds_infeasible () =
  (* Frozen clock: deadlines never expire in the queue, so any Shed here
     is an admission decision, not a timeout in disguise. *)
  let b = stub (Atomic.make 0) in
  let cfg =
    {
      (config ~workers:1 ()) with
      Serve.Server.clock = (fun () -> 0.0);
      shed_deadlines = true;
    }
  in
  let s = Serve.Server.start ~config:cfg () in
  let work = Runtime.Workload.make ~shapes:cfg.Serve.Server.shapes ~arch b (ln 32) in
  ignore (expect_done (Serve.Server.await (Serve.Server.submit_w s work)));
  let key = Runtime.Workload.digest work in
  let est =
    match Serve.Shed.estimate (Serve.Server.shed s) ~key with
    | Some e -> e
    | None -> Alcotest.fail "completed run did not feed the estimator"
  in
  Alcotest.(check bool) "simulated service estimate positive" true (est > 0.0);
  (* Same key with a deadline below its own service estimate: infeasible at
     the door, resolved without queueing or executing. *)
  (match Serve.Server.await (Serve.Server.submit_w s ~deadline_s:(est /. 2.0) work) with
  | Serve.Server.Shed _ -> ()
  | _ -> Alcotest.fail "infeasible request was not shed");
  (* A never-seen key admits under the same impossible deadline. *)
  let cold = Runtime.Workload.make ~shapes:cfg.Serve.Server.shapes ~arch b (ln 48) in
  ignore (expect_done (Serve.Server.await (Serve.Server.submit_w s ~deadline_s:(est /. 2.0) cold)));
  Serve.Server.shutdown s;
  let st = Serve.Server.stats s in
  Alcotest.(check int) "submitted" 3 st.Serve.Stats.s_submitted;
  Alcotest.(check int) "shed never admitted" 2 st.Serve.Stats.s_admitted;
  Alcotest.(check int) "done" 2 st.Serve.Stats.s_done;
  Alcotest.(check int) "shed" 1 st.Serve.Stats.s_shed;
  Alcotest.(check bool) "conserved with shed" true (Serve.Stats.conserved st);
  Alcotest.(check (float 1e-9)) "shed backlog fully drained" 0.0
    (Serve.Shed.backlog_seconds (Serve.Server.shed s))

let test_server_quarantines_repeat_offender () =
  (* Poison every request (rate 1.0): the first [threshold] submissions on
     the key fail as poisoned; after that the key is quarantined and
     resolves without executing. *)
  let b = stub (Atomic.make 0) in
  let cfg =
    {
      (config ~workers:1 ()) with
      Serve.Server.fault_plan =
        Some
          (Fault.Plan.make
             ~rates:{ Fault.Plan.zero_rates with poison_request = 1.0 }
             ~seed:1 ());
      quarantine_threshold = 2;
    }
  in
  let s = Serve.Server.start ~config:cfg () in
  let work = Runtime.Workload.make ~shapes:cfg.Serve.Server.shapes ~arch b (ln 32) in
  let outcome () = Serve.Server.await (Serve.Server.submit_w s work) in
  for i = 1 to 2 do
    match outcome () with
    | Serve.Server.Failed _ -> ()
    | _ -> Alcotest.failf "poisoned request %d did not fail" i
  done;
  (match outcome () with
  | Serve.Server.Quarantined -> ()
  | _ -> Alcotest.fail "third offense was not quarantined");
  (match outcome () with
  | Serve.Server.Quarantined -> ()
  | _ -> Alcotest.fail "quarantine did not stick");
  Serve.Server.shutdown s;
  Alcotest.(check int) "offense count stopped at the threshold" 2
    (Serve.Shed.offenses (Serve.Server.shed s) ~key:(Runtime.Workload.digest work));
  let st = Serve.Server.stats s in
  Alcotest.(check int) "failed" 2 st.Serve.Stats.s_failed;
  Alcotest.(check int) "quarantined" 2 st.Serve.Stats.s_quarantined;
  Alcotest.(check bool) "conserved with quarantine" true (Serve.Stats.conserved st)

(* ------------------------------------------------------------------ *)
(* Sliced batches gathered from the backlog                            *)
(* ------------------------------------------------------------------ *)

(* One LayerNorm family whose leading dim varies: every request of rows
   in (4, 8] shares one Pow2 key, so the rows stack under cap 16. *)
let ln_rows ?(backend = stub (Atomic.make 0)) r =
  Runtime.Workload.make ~shapes:Runtime.Shape_class.Pow2 ~arch backend
    (model_of "ln-rows" (Ir.Models.layernorm_graph ~m:r ~n:64))

(* Stage a backlog behind [pause], then release it and await every
   outcome: with one worker, batch formation is a pure function of submit
   order. *)
let stage s submits =
  Serve.Server.pause s;
  let tickets = List.map (fun submit -> submit s) submits in
  Serve.Server.resume s;
  List.map await_within tickets

(* One worker on a frozen clock, one staged backlog. [prepare] runs
   before the backlog is staged. *)
let staged ?(shed_deadlines = false) ?(prepare = ignore) submits =
  let cfg =
    { (config ~workers:1 ()) with Serve.Server.clock = (fun () -> 0.0); shed_deadlines }
  in
  let s = Serve.Server.start ~config:cfg () in
  prepare s;
  let outcomes = stage s submits in
  Serve.Server.shutdown s;
  (s, outcomes)

let batch_of o =
  let r = expect_done o in
  (r.Serve.Server.r_batch, r.Serve.Server.r_rows)

let test_server_follower_shares_outcome () =
  (* A gathered member takes the outcome of the run that carried its
     rows: the staged 5-row leader gathers the 6-row member, the stub
     fails the stacked run's three attempts, and both members fail with
     the run's error. The member's rows rode every attempt, so it gets no
     second retry budget and nothing runs a fourth time. *)
  let calls = Atomic.make 0 in
  let flaky = stub ~be_name:"flaky" ~fail_first:3 calls in
  let s, outcomes =
    staged (List.map (fun r s -> Serve.Server.submit_w s (ln_rows ~backend:flaky r)) [ 5; 6 ])
  in
  (match outcomes with
  | [ Serve.Server.Failed m1; Serve.Server.Failed m2 ] ->
      List.iter
        (fun m ->
          Alcotest.(check bool) "carries the run's error" true
            (Astring.String.is_infix ~affix:"transient stub failure" m))
        [ m1; m2 ]
  | _ -> Alcotest.fail "both members must fail with the run");
  Alcotest.(check int) "the run's 3 attempts, no 4th" 3 (Atomic.get calls);
  let st = Serve.Server.stats s in
  Alcotest.(check int) "both failed" 2 st.Serve.Stats.s_failed;
  Alcotest.(check int) "the run's retries only" 2 st.Serve.Stats.s_retries;
  Alcotest.(check int) "one gathered" 1 st.Serve.Stats.s_coalesced;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_gather_never_holds_a_worker () =
  (* The lone worker pops the 5-row request and takes the queued 6-row one
     with it, past the non-sliceable request between them. 11 rows stay
     under cap 16 and the clock never moves: a leader that waited for the
     batch to fill or a window to pass would hold the worker forever. *)
  let b = stub (Atomic.make 0) in
  let s, outcomes =
    staged
      [
        (fun s -> Serve.Server.submit_w s (ln_rows ~backend:b 5));
        (fun s -> Serve.Server.submit_w s (Runtime.Workload.make ~arch b (ln 32)));
        (fun s -> Serve.Server.submit_w s (ln_rows ~backend:b 6));
      ]
  in
  (match List.map batch_of outcomes with
  | [ first; middle; last ] ->
      Alcotest.(check (pair int (option (pair int int)))) "leader's slice" (2, Some (0, 5)) first;
      Alcotest.(check (pair int (option (pair int int)))) "non-sliceable served solo" (1, None) middle;
      Alcotest.(check (pair int (option (pair int int)))) "gathered member's slice" (2, Some (5, 6)) last
  | _ -> Alcotest.fail "three outcomes expected");
  (match outcomes with
  | [ Serve.Server.Done a; _; Serve.Server.Done c ] ->
      Alcotest.(check bool) "one execution serves both members" true
        (a.Serve.Server.r_result == c.Serve.Server.r_result);
      Alcotest.(check bool) "the gathered member rode the leader's run" true
        ((not a.Serve.Server.r_coalesced) && c.Serve.Server.r_coalesced)
  | _ -> Alcotest.fail "both sliced requests must be served");
  let st = Serve.Server.stats s in
  Alcotest.(check int) "two members batched" 2 st.Serve.Stats.s_batched;
  Alcotest.(check int) "one gathered" 1 st.Serve.Stats.s_coalesced;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_gather_overflow_leads_next () =
  (* 5 + 6 = 11; 7 would cross cap 16 and stays queued, and so does 8.
     7 then leads the next batch and takes 8 (15 rows). A warm-up run
     gives the key a service estimate, so every staged request is charged
     to the shed backlog, and each gathered one must release its charge. *)
  let b = stub (Atomic.make 0) in
  let s, outcomes =
    staged ~shed_deadlines:true
      ~prepare:(fun s -> ignore (batch_of (await_within (Serve.Server.submit_w s (ln_rows ~backend:b 5)))))
      (List.map (fun r s -> Serve.Server.submit_w s (ln_rows ~backend:b r)) [ 5; 6; 7; 8 ])
  in
  Alcotest.(check (list (pair int (option (pair int int)))))
    "two batches, the overflow leading the second"
    [ (2, Some (0, 5)); (2, Some (5, 6)); (2, Some (0, 7)); (2, Some (7, 8)) ]
    (List.map batch_of outcomes);
  Alcotest.(check bool) "the staged requests were charged" true
    ((Serve.Server.stats s).Serve.Stats.s_admitted = 5
    && Serve.Shed.estimate (Serve.Server.shed s) ~key:(Runtime.Workload.digest (ln_rows 5)) <> None);
  Alcotest.(check (float 1e-12)) "every charge released" 0.0
    (Serve.Shed.backlog_seconds (Serve.Server.shed s))

let test_gather_expired_not_batched () =
  (* A same-key request whose deadline passed in the backlog is taken by
     the gather but resolves Timed_out, once, and holds no rows: the
     request behind it still fits. *)
  let b = stub (Atomic.make 0) in
  let s, outcomes =
    staged
      [
        (fun s -> Serve.Server.submit_w s (ln_rows ~backend:b 5));
        (fun s -> Serve.Server.submit_w s ~deadline_s:(-1.0) (ln_rows ~backend:b 8));
        (fun s -> Serve.Server.submit_w s (ln_rows ~backend:b 8));
      ]
  in
  (match outcomes with
  | [ l; Serve.Server.Timed_out; m ] ->
      Alcotest.(check (list (pair int (option (pair int int))))) "the live two share a batch"
        [ (2, Some (0, 5)); (2, Some (5, 8)) ]
        [ batch_of l; batch_of m ]
  | _ -> Alcotest.fail "expected Done, Timed_out, Done");
  let st = Serve.Server.stats s in
  Alcotest.(check int) "timed out once" 1 st.Serve.Stats.s_timed_out;
  Alcotest.(check int) "only the live members batched" 2 st.Serve.Stats.s_batched;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_gather_abandoned_run_times_out () =
  (* The batch's run deadline is 1e-9 after submit on a frozen clock, so
     the first retry's backoff would outlive it: the run is abandoned
     after one attempt, and every member it carried, the gathered one
     too, resolves Timed_out. Nothing runs again. *)
  let calls = Atomic.make 0 in
  let doomed = stub ~be_name:"doomed" ~fail_first:max_int calls in
  let s, outcomes =
    staged
      (List.map (fun r s -> Serve.Server.submit_w s ~deadline_s:1e-9 (ln_rows ~backend:doomed r)) [ 5; 6 ])
  in
  (match outcomes with
  | [ Serve.Server.Timed_out; Serve.Server.Timed_out ] -> ()
  | _ -> Alcotest.fail "both members must time out");
  Alcotest.(check int) "one attempt" 1 (Atomic.get calls);
  let st = Serve.Server.stats s in
  Alcotest.(check int) "both timed out" 2 st.Serve.Stats.s_timed_out;
  Alcotest.(check int) "one gathered" 1 st.Serve.Stats.s_coalesced;
  Alcotest.(check int) "no retry" 0 st.Serve.Stats.s_retries;
  Alcotest.(check bool) "conserved" true (Serve.Stats.conserved st)

let test_gather_cap_recovers_after_solo_runs () =
  (* The stub's first compile, the stacked 5 + 6-row run's, raises an
     injected resource exhaustion: the batch splits and the cap halves
     from 16 to 8. Under 8 no two members of the class (4, 8] stack, so
     the cap can only recover through clean solo runs: 16 more pairs make
     32, after which the cap is whole and the next pair stacks again. *)
  let tripped = Atomic.make false in
  let base = stub (Atomic.make 0) in
  let b =
    {
      base with
      Policy.compile =
        (fun arch ~name g ->
          if not (Atomic.exchange tripped true) then
            raise
              (Fault.Plan.Injected
                 { Fault.Plan.f_kind = Fault.Plan.Resource_exhausted; f_kernel = name; f_seq = 0 });
          base.Policy.compile arch ~name g);
    }
  in
  let s =
    Serve.Server.start ~config:{ (config ~workers:1 ()) with Serve.Server.clock = (fun () -> 0.0) } ()
  in
  let run_pair () = stage s (List.map (fun r s -> Serve.Server.submit_w s (ln_rows ~backend:b r)) [ 5; 6 ]) in
  Alcotest.(check (list (pair int (option (pair int int))))) "the pressured pair split"
    [ (1, Some (0, 5)); (1, Some (0, 6)) ]
    (List.map batch_of (run_pair ()));
  Alcotest.(check int) "the cap halved" 1 (Serve.Server.batch_cap_shift s);
  for _ = 1 to 16 do
    List.iter (fun o -> Alcotest.(check int) "under the halved cap, solo" 1 (fst (batch_of o))) (run_pair ())
  done;
  Alcotest.(check int) "32 clean runs restore the cap" 0 (Serve.Server.batch_cap_shift s);
  Alcotest.(check (list (pair int (option (pair int int))))) "the next pair stacks"
    [ (2, Some (0, 5)); (2, Some (5, 6)) ]
    (List.map batch_of (run_pair ()));
  Serve.Server.shutdown s

let test_gather_fleet_places_stacked_run () =
  (* On a fleet, a stacked run is placed by the digest of the workload it
     executes (rows 5 + 6 restacked to 11, one class up), not by its
     leader's key. The family is picked so that the two digests prefer
     different devices, so the device that served tells them apart. *)
  let b = stub (Atomic.make 0) in
  let prefer w = Serve.Fleet.place (Serve.Fleet.create ~devices:4 ()) ~key:(Runtime.Workload.digest w) in
  let family i r =
    Runtime.Workload.make ~shapes:Runtime.Shape_class.Pow2 ~arch b
      (model_of (Printf.sprintf "ln-fleet-%d" i) (Ir.Models.layernorm_graph ~m:r ~n:64))
  in
  let stacked i = Runtime.Workload.rebatch (family i 5) ~rows:11 in
  let rec pick i = if prefer (family i 5) <> prefer (stacked i) then i else pick (i + 1) in
  let i = pick 0 in
  let cfg =
    { (config ~workers:1 ()) with Serve.Server.devices = 4; clock = (fun () -> 0.0) }
  in
  let s = Serve.Server.start ~config:cfg () in
  Serve.Server.pause s;
  let tickets = List.map (fun r -> Serve.Server.submit_w s (family i r)) [ 5; 6 ] in
  Serve.Server.resume s;
  Alcotest.(check (list (pair int (option (pair int int))))) "one stacked run"
    [ (2, Some (0, 5)); (2, Some (5, 6)) ]
    (List.map (fun tk -> batch_of (await_within tk)) tickets);
  let served =
    match Option.bind (Serve.Server.fleet_json s) (Obs.Json.member "served") with
    | Some (Obs.Json.Arr l) -> List.map (function Obs.Json.Num n -> int_of_float n | _ -> -1) l
    | _ -> Alcotest.fail "fleet snapshot without per-device served counts"
  in
  Serve.Server.shutdown s;
  Alcotest.(check (list int)) "served on the stacked workload's device"
    (List.init 4 (fun d -> if Some d = prefer (stacked i) then 1 else 0))
    served

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Serve.Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Serve.Stats.percentile xs 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Serve.Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Serve.Stats.percentile [] 50.0);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Serve.Stats.percentile [ 7.0 ] 99.0)

let test_latency_ring () =
  (* The per-server latency record is a ring: after capacity + k
     observations it holds exactly the last capacity of them. *)
  let st = Serve.Stats.create () in
  let cap = Serve.Stats.latency_capacity and k = 5 in
  for i = 0 to cap + k - 1 do
    Serve.Stats.observe_latency st ~queue_s:0.0 ~total_s:(float_of_int i)
  done;
  let l = Serve.Stats.latencies st in
  Alcotest.(check int) "capacity kept" cap (List.length l);
  Alcotest.(check bool) "the last capacity latencies, oldest first" true
    (l = List.init cap (fun i -> float_of_int (k + i)));
  let fresh = Serve.Stats.create () in
  Serve.Stats.observe_latency fresh ~queue_s:0.0 ~total_s:2.0;
  Serve.Stats.observe_latency fresh ~queue_s:0.0 ~total_s:1.0;
  Alcotest.(check (list (float 0.0))) "below capacity: every latency" [ 2.0; 1.0 ]
    (Serve.Stats.latencies fresh)

let props = List.map QCheck_alcotest.to_alcotest [ prop_queue_model ]

let () =
  Alcotest.run "serve"
    [
      ( "queue",
        [
          Alcotest.test_case "FIFO" `Quick test_queue_fifo;
          Alcotest.test_case "capacity bound" `Quick test_queue_capacity;
          Alcotest.test_case "deadline expiry" `Quick test_queue_deadline_expiry;
          Alcotest.test_case "take honours order, expiry and pause" `Quick test_queue_take;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "sliced rows + class boundary" `Quick
            test_batcher_sliced_rows_and_boundary;
          Alcotest.test_case "per-member deadlines" `Quick test_batcher_member_deadlines;
        ] );
      ( "shed",
        [
          Alcotest.test_case "ewma estimation" `Quick test_shed_ewma;
          Alcotest.test_case "admission feasibility + backlog" `Quick test_shed_admission;
          Alcotest.test_case "quarantine threshold" `Quick test_shed_quarantine;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves distinct requests" `Quick test_server_serves;
          Alcotest.test_case "exactly-once outcomes" `Quick test_server_exactly_once_outcomes;
          Alcotest.test_case "identical concurrent requests compile once" `Quick
            test_server_identical_compile_once;
          Alcotest.test_case "degrades on unschedulable" `Quick
            test_server_degrades_on_unschedulable;
          Alcotest.test_case "arena budget relief path" `Quick test_server_arena_budget_relief;
          Alcotest.test_case "rejects unsupported" `Quick test_server_rejects_unsupported;
          Alcotest.test_case "rejections say why" `Quick test_server_rejections_say_why;
          Alcotest.test_case "retries transient failures" `Quick test_server_retries_transient;
          Alcotest.test_case "fails after retry budget" `Quick
            test_server_fails_after_retry_budget;
          Alcotest.test_case "breaker trips and recovers" `Quick test_server_breaker_recovery;
          Alcotest.test_case "deadline-aware backoff" `Quick test_server_deadline_aware_backoff;
          Alcotest.test_case "follower shares the run's outcome" `Quick
            test_server_follower_shares_outcome;
          Alcotest.test_case "sheds infeasible deadlines" `Quick test_server_sheds_infeasible;
          Alcotest.test_case "quarantines repeat offenders" `Quick
            test_server_quarantines_repeat_offender;
        ] );
      ( "gather",
        [
          Alcotest.test_case "a batch never holds a worker" `Quick test_gather_never_holds_a_worker;
          Alcotest.test_case "overflow stays queued and leads the next batch" `Quick
            test_gather_overflow_leads_next;
          Alcotest.test_case "expired request times out, unbatched" `Quick
            test_gather_expired_not_batched;
          Alcotest.test_case "abandoned run times out its members" `Quick
            test_gather_abandoned_run_times_out;
          Alcotest.test_case "batch cap recovers through solo runs" `Quick
            test_gather_cap_recovers_after_solo_runs;
          Alcotest.test_case "a stacked run is placed by its own digest" `Quick
            test_gather_fleet_places_stacked_run;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "latency ring keeps the last capacity" `Quick test_latency_ring;
        ] );
      ("properties", props);
    ]
