module Error = Core.Spacefusion.Error

type config = {
  workers : int;
  queue_capacity : int;
  max_retries : int;
  backoff_s : float;
  backoff_cap_s : float;
  clock : unit -> float;
  fault_plan : Fault.Plan.t option;
  breaker : Breaker.config;
  devices : int;
  shapes : Runtime.Shape_class.policy;
  shed_deadlines : bool;
  quarantine_threshold : int;
  arena_budget_bytes : int option;
}

let default_config () =
  {
    workers = Core.Parallel.default_jobs ();
    queue_capacity = 256;
    max_retries = 2;
    backoff_s = 1e-3;
    backoff_cap_s = 0.05;
    clock = Unix.gettimeofday;
    fault_plan = None;
    breaker = Breaker.default_config;
    devices = 1;
    shapes = Runtime.Shape_class.Exact;
    shed_deadlines = false;
    quarantine_threshold = 3;
    arena_budget_bytes = None;
  }

type response = {
  r_result : Runtime.Model_runner.result;
  r_latency_s : float;
  r_queue_s : float;
  r_coalesced : bool;
  r_degraded : bool;
  r_retries : int;
  r_batch : int;  (* members in the delivering batch; 1 = served solo *)
  r_rows : (int * int) option;  (* (offset, len) row slice of a sliceable request *)
}

type outcome =
  | Done of response
  | Rejected of string
  | Timed_out
  | Failed of string
  | Shed of string
  | Quarantined

type ticket = {
  tk_lock : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_outcome : outcome option;
}

type request = {
  rq_work : Runtime.Workload.t;
      (* Its [Workload.digest] is the request key: the identity a warm
         plan cache sees, so requests with equal keys are interchangeable
         end to end — what licenses batching them. Shedding, quarantine
         and fleet locality key on it too. The workload derived it, and
         its batch space, once at [make]. *)
  rq_submit_at : float;
  rq_ticket : ticket;
  rq_stream : int;  (* injection-stream id, unique per request in submit order *)
  mutable rq_charge : float;  (* backlog seconds charged at admission *)
}

(* What one run hands to the batch members it served: the shared serving
   result, stripped of per-request metadata (each member stamps its own
   latency / coalesced flag when the callback delivers it). Every member
   takes the outcome of the (sub-)run that carried its rows: its rows rode
   each of that run's attempts. [S_expired] means the run was abandoned at
   the batch's deadline. *)
type served =
  | S_done of Runtime.Model_runner.result * bool * int  (* result, degraded, retries *)
  | S_rejected of string
  | S_failed of string
  | S_expired
  | S_poisoned of string
      (* member-attributable payload failure, confirmed on the member's
         own stream by bisection: terminal for that member *)
  | S_pressure of string
      (* size-attributable resource exhaustion of a batched run: the
         bisection layer splits instead of delivering this *)

type t = {
  cfg : config;
  cache : Runtime.Plan_cache.t;
  queue : request Queue.t;
  stats : Stats.t;
  breakers : Breaker.t;
  shed : Shed.t;
  fleet : Fleet.t option;  (* Some iff cfg.devices > 1 *)
  stream : int Atomic.t;
  (* Memory-pressure response: each resource_exhausted trip halves the
     batch-admission cap (cap lsr shift); sustained clean runs walk it
     back one doubling at a time. *)
  cap_shift : int Atomic.t;
  clean_runs : int Atomic.t;
  join_lock : Mutex.t;
  mutable worker_domains : unit Domain.t list;
}

let m_cap_halved = Obs.Metrics.counter "serve.batch_cap_halvings"
let m_cap_shift = Obs.Metrics.gauge "serve.batch_cap_shift"

(* Clean runs, solo or stacked, required before the cap recovers one
   halving. *)
let cap_recovery_runs = 32

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

let new_ticket () =
  { tk_lock = Mutex.create (); tk_cond = Condition.create (); tk_outcome = None }

(* Returns whether this call was the resolving one, so terminal stats are
   recorded exactly once per request no matter which path races here. *)
let resolve_ticket tk outcome =
  Mutex.lock tk.tk_lock;
  let fresh = tk.tk_outcome = None in
  if fresh then begin
    tk.tk_outcome <- Some outcome;
    Condition.broadcast tk.tk_cond
  end;
  Mutex.unlock tk.tk_lock;
  fresh

let await tk =
  Mutex.lock tk.tk_lock;
  let rec wait () =
    match tk.tk_outcome with
    | Some o -> o
    | None ->
        Condition.wait tk.tk_cond tk.tk_lock;
        wait ()
  in
  let o = wait () in
  Mutex.unlock tk.tk_lock;
  o

let peek tk =
  Mutex.lock tk.tk_lock;
  let o = tk.tk_outcome in
  Mutex.unlock tk.tk_lock;
  o

(* ------------------------------------------------------------------ *)
(* Outcome delivery                                                    *)
(* ------------------------------------------------------------------ *)

let finish t rq outcome =
  if resolve_ticket rq.rq_ticket outcome then begin
    match outcome with
    | Done r ->
        Stats.record t.stats Stats.Done;
        if r.r_degraded then Stats.record t.stats Stats.Degraded;
        Stats.observe_latency t.stats ~queue_s:r.r_queue_s ~total_s:r.r_latency_s
    | Rejected _ -> Stats.record t.stats Stats.Rejected
    | Timed_out -> Stats.record t.stats Stats.Timed_out
    | Failed _ -> Stats.record t.stats Stats.Failed
    | Shed _ -> Stats.record t.stats Stats.Shed
    | Quarantined -> Stats.record t.stats Stats.Quarantined
  end

let finish_served t rq ~queue_s ~coalesced ?(batch = 1) ?rows = function
  | S_done (result, degraded, retries) ->
      (* Charged from admission: however long the request sat joining a
         growing batch, its latency runs from its own submit. *)
      let latency = Float.max 0.0 (t.cfg.clock () -. rq.rq_submit_at) in
      finish t rq
        (Done
           {
             r_result = result;
             r_latency_s = latency;
             r_queue_s = queue_s;
             r_coalesced = coalesced;
             r_degraded = degraded;
             r_retries = retries;
             r_batch = batch;
             r_rows = rows;
           })
  | S_rejected msg -> finish t rq (Rejected msg)
  | S_failed msg | S_poisoned msg | S_pressure msg -> finish t rq (Failed msg)
  | S_expired -> finish t rq Timed_out

(* ------------------------------------------------------------------ *)
(* Serving one request (leader path)                                   *)
(* ------------------------------------------------------------------ *)

(* Every run is [`Auto]: a plan's first run executes the functional
   interpreter end to end, once, inside the plan cache's single flight,
   and verified hits take the analytic fast path (see
   {!Runtime.Model_runner.run_workload_r}). *)
let baseline_run t rq ~inject =
  let w = rq.rq_work in
  match
    Runtime.Model_runner.run_workload_r ~cache:t.cache ?inject ~functional:`Auto
      (Runtime.Workload.make ~devices:w.devices ~placement:w.placement ~shapes:w.shapes
         ~arch:w.arch Backends.Baselines.pytorch w.model)
  with
  | Ok r -> `Served (r, true)
  | Error e -> `Reject (Error.to_string e)
  | exception e -> `Fault e

(* Memory-pressure response, step 1: halve the batch-admission cap
   so the next batches stack fewer rows under the same budget. Recovery is
   slow on purpose (one doubling per [cap_recovery_runs] clean runs) —
   flapping the cap would churn batch formation. A clean run may be solo:
   once halved, the cap can be too small for two members of the class to
   stack, so counting only stacked runs would never recover. *)
let note_pressure t =
  Atomic.set t.clean_runs 0;
  let shift = Atomic.get t.cap_shift in
  if shift < 16 && Atomic.compare_and_set t.cap_shift shift (shift + 1) then begin
    Obs.Metrics.incr m_cap_halved;
    Obs.Metrics.set m_cap_shift (float_of_int (shift + 1))
  end

let note_clean_run t =
  if Atomic.get t.cap_shift > 0 && Atomic.fetch_and_add t.clean_runs 1 + 1 >= cap_recovery_runs
  then begin
    Atomic.set t.clean_runs 0;
    let shift = Atomic.get t.cap_shift in
    if shift > 0 && Atomic.compare_and_set t.cap_shift shift (shift - 1) then
      Obs.Metrics.set m_cap_shift (float_of_int (shift - 1))
  end

let effective_cap t cap = max 1 (cap lsr Atomic.get t.cap_shift)

(* Per-attempt memory budget: the fused path runs inside a fresh
   [Arena.with_budget] scope, so one request's (or one batch's) tensor
   allocations are bounded and never charge the next attempt. The
   baseline fallback runs unbudgeted — it is the pressure-relief path. *)
let with_request_budget t f =
  match t.cfg.arena_budget_bytes with
  | None -> f ()
  | Some bytes -> (
      match Tensor.Arena.current () with
      | Some a -> Tensor.Arena.with_budget a ~bytes f
      | None -> f ())

(* [pressured] is set when the attempt trips memory pressure, also when
   a solo attempt is then relieved by the baseline, so the batch that ran
   it never counts as clean. *)
let fused_run t rq ~inject ~batched ~pressured =
  match
    with_request_budget t (fun () ->
        Runtime.Model_runner.run_workload_r ~cache:t.cache ?inject ~functional:`Auto rq.rq_work)
  with
  | Ok r -> `Served (r, false)
  | Error (Error.Unsupported _ as e) -> `Reject (Error.to_string e)
  | Error (Error.Unschedulable _) -> baseline_run t rq ~inject
  | exception (Fault.Plan.Injected f as e)
    when f.Fault.Plan.f_kind = Fault.Plan.Resource_exhausted ->
      (* The memory budget (or an injected resource fault) bit. Halve the
         batch cap either way; a batched run hands the exhaustion to the
         bisection layer (smaller halves allocate less), a solo run is
         served from the unfused relief path. *)
      note_pressure t;
      pressured := true;
      if batched then `Pressure e else baseline_run t rq ~inject
  | exception Fault.Plan.Injected f
    when Fault.Plan.severity_of_kind f.Fault.Plan.f_kind = Fault.Plan.Degraded ->
      (* Resource pressure on the fused path: serve this attempt from the
         cheaper unfused plan instead of burning a retry. *)
      baseline_run t rq ~inject
  | exception e -> `Fault e

(* The path a breaker guards: (backend, arch) — one dead fused path must
   not open the breaker of another architecture's. In fleet mode the key
   also names the device, so one dying device trips its own breaker while
   the rest of the fleet keeps its fused path. *)
let breaker_key work ~device =
  Runtime.Workload.path_key work
  ^ match device with Some i -> "|dev" ^ string_of_int i | None -> ""

(* One serving attempt. The fused path runs under its circuit breaker:
   short-circuited attempts degrade straight to the baseline without
   touching the fused path, and every admitted attempt reports back so the
   breaker can trip, probe and close. *)
let serve_once t rq ~device ~inject ~batched ~pressured =
  let bkey = breaker_key rq.rq_work ~device in
  match Breaker.acquire t.breakers ~key:bkey with
  | `Short_circuit -> baseline_run t rq ~inject
  | (`Proceed | `Probe) as d ->
      let probe = d = `Probe in
      let o = fused_run t rq ~inject ~batched ~pressured in
      (match o with
      | `Served _ | `Reject _ -> Breaker.success t.breakers ~key:bkey ~probe
      | `Fault _ -> Breaker.failure t.breakers ~key:bkey ~probe
      (* Size-attributable, not path-attributable: a too-big batch must
         not open the path's breaker. *)
      | `Pressure _ -> Breaker.success t.breakers ~key:bkey ~probe);
      o

(* Fleet routing: pick a device for this attempt (plan locality first,
   then least load; a [Pin] placement is honored until its device dies).
   Locality keys on the digest of the workload the attempt runs: a
   stacked run's, not its leader's. *)
let place_attempt t rq =
  match t.fleet with
  | None -> `Ok None
  | Some fl -> (
      match rq.rq_work.Runtime.Workload.placement with
      | Runtime.Workload.Pin i when i >= 0 && i < Fleet.devices fl ->
          if Fleet.is_dead fl i then `All_dead else `Ok (Some i)
      | Runtime.Workload.Pin _ -> `All_dead
      | Runtime.Workload.Auto -> (
          match Fleet.place fl ~key:(Runtime.Workload.digest rq.rq_work) with
          | None -> `All_dead
          | Some i -> `Ok (Some i)))

let serve_with_retries t rq ~deadline ~batched ~pressured =
  let rec go attempt =
    match place_attempt t rq with
    | `All_dead -> S_failed "all devices dead"
    | `Ok device ->
        (* Each attempt runs on its own injection stream: in fleet mode
           the chosen device's persistent injector (so a device death
           latches for the storm's remainder), otherwise a fresh stream
           deterministically derived from the request's stream id. *)
        let inject =
          match (t.fleet, device) with
          | Some fl, Some i when Fleet.injector fl i <> None -> Fleet.injector fl i
          | _ ->
              Option.map
                (fun plan -> Fault.Inject.create plan ~stream:((rq.rq_stream lsl 8) lor attempt))
                t.cfg.fault_plan
        in
        let o =
          match (t.fleet, device) with
          | Some fl, Some i ->
              Fleet.acquire fl i;
              Fun.protect
                ~finally:(fun () -> Fleet.release fl i)
                (fun () -> serve_once t rq ~device ~inject ~batched ~pressured)
          | _ -> serve_once t rq ~device ~inject ~batched ~pressured
        in
        (match o with
        | `Served (r, degraded) -> S_done (r, degraded, attempt)
        | `Reject msg -> S_rejected msg
        | `Pressure e ->
            (* Retrying at the same size would exhaust the same budget;
               the bisection layer splits instead. *)
            S_pressure (Printexc.to_string e)
        | `Fault e when Runtime.Model_runner.classify_exn e = Runtime.Model_runner.Isolate ->
            (* A poisoned payload fails no matter where or how often it
               runs: no retry, no reroute, no breaker blame. *)
            S_poisoned (Printexc.to_string e)
        | `Fault e ->
            let action = Runtime.Model_runner.classify_exn e in
            (* A fatal fault is the simulated device dying: take it out of
               the fleet so no later request is placed there. *)
            (match (action, t.fleet, device) with
            | Runtime.Model_runner.Reroute, Some fl, Some i ->
                Fleet.mark_dead fl i;
                Fleet.note_reroute fl
            | _ -> ());
            if attempt >= t.cfg.max_retries then S_failed (Printexc.to_string e)
            else
              (* A dead device is rerouted immediately — backing off would
                 wait on hardware that cannot recover. *)
              let sleep =
                match action with
                | Runtime.Model_runner.Reroute -> 0.0
                | _ ->
                    Float.min t.cfg.backoff_cap_s
                      (t.cfg.backoff_s *. (2.0 ** float_of_int attempt))
              in
              (* Deadline-aware: never sleep past the request's absolute
                 deadline — it would time out in our hands. *)
              let expired =
                match deadline with Some dl -> t.cfg.clock () +. sleep >= dl | None -> false
              in
              if expired then S_expired
              else begin
                Stats.record t.stats Stats.Retried;
                if sleep > 0.0 then Unix.sleepf sleep;
                go (attempt + 1)
              end)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Whether the fault plan poisons the request with injection-stream id
   [stream] — a pure, member-attributable draw (see {!Fault.Plan.poisoned}). *)
let poisoned_stream t stream =
  match t.cfg.fault_plan with
  | Some plan -> Fault.Plan.poisoned plan ~request:stream
  | None -> false

(* A confirmed poisoned payload: count the fault, charge the offense
   against the request key, and hand back the terminal served value. *)
let confirm_poison t ~key =
  Fault.Inject.record Fault.Plan.Poison_request;
  ignore (Shed.offense t.shed ~key);
  S_poisoned "injected poison_request: payload rejected"

let key_of rq = Runtime.Workload.digest rq.rq_work

let own_rows rq =
  match Runtime.Workload.batch_space rq.rq_work with Some (rows, _) -> rows | None -> 0

(* EWMA service-time feed for admission control: simulated execution
   seconds (deterministic), scaled to this request's share of the run's
   rows so batch-sized runs don't inflate per-request estimates. *)
let observe_service t ~key ~own_rows ~run_rows = function
  | S_done (r, _, _) ->
      let x = r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time in
      let scale =
        if own_rows > 0 && run_rows > own_rows then
          float_of_int own_rows /. float_of_int run_rows
        else 1.0
      in
      Shed.observe t.shed ~key ~service_s:(x *. scale)
  | _ -> ()

(* The request left the backlog (served or expired, either way): release
   its admission charge so the shed estimator stops counting its wait. *)
let drain_charge t (p : request Queue.popped) =
  let rq = p.Queue.p_payload in
  if rq.rq_charge > 0.0 then begin
    Shed.drain t.shed rq.rq_charge;
    rq.rq_charge <- 0.0
  end

(* Per-member delivery. Every member — leader included — expires against
   its {e own} absolute deadline ([sl_expired]), never an inherited one,
   and otherwise takes the outcome of the (sub-)run that carried its rows:
   those rows rode each of the run's attempts, so a gathered member gets
   no second retry budget. A delivered [S_poisoned] is terminal:
   bisection confirmed {e this} member's own draw. *)
let deliver_member t ~leader (p : request Queue.popped) (s : served Batcher.slot) =
  let rq = p.p_payload in
  if s.sl_members > 1 then Stats.record t.stats Stats.Batched;
  let rows = if s.sl_len > 0 then Some (s.sl_off, s.sl_len) else None in
  if s.sl_expired then finish t rq Timed_out
  else
    finish_served t rq ~queue_s:p.p_queued_s ~coalesced:(not leader) ~batch:s.sl_members ?rows
      s.sl_result

(* Execute a formed batch and deliver it to every member. A one-member
   batch runs the request's own workload; a stacked one runs the leader's
   workload rebatched to each (sub-)run's rows, placed on a fleet by the
   digest of what it runs. Blast-radius isolation: a (sub-)run aborts up
   front when any of its members draws poison (member-attributable — the
   draw is a pure function of the member's stream id), and a stacked run
   splits when the memory budget exhausts (size-attributable); halves
   retry independently, so every clean member is served by some passing
   sub-run and only genuinely poisoned members fail. The runs honor the
   batch's deadline ({!Batcher.run_deadline}), not any single member's.
   A batch none of whose attempts tripped memory pressure counts toward
   the cap's recovery, whether it ran solo or stacked. *)
let lead t rq b =
  let key = key_of rq in
  let deadline = Batcher.run_deadline b in
  let stacked = Batcher.members b > 1 in
  let pressured = ref false in
  let run (ms : served Batcher.member list) ~rows =
    if List.exists (fun (m : served Batcher.member) -> poisoned_stream t m.m_tag) ms then
      match ms with
      | [ _ ] -> `Split (confirm_poison t ~key)
      | _ -> `Split (S_poisoned "poisoned batch member")
    else begin
      match
        try
          let attempt = if stacked then { rq with rq_work = Runtime.Workload.rebatch rq.rq_work ~rows } else rq in
          serve_with_retries t attempt ~deadline ~batched:(List.length ms > 1) ~pressured
        with e -> S_failed (Printexc.to_string e)
      with
      | S_pressure _ as sp -> `Split sp
      | served ->
          observe_service t ~key ~own_rows:(own_rows rq) ~run_rows:rows served;
          `Served served
    end
  in
  Batcher.execute b ~clock:t.cfg.clock ~run;
  if not !pressured then note_clean_run t

let expire t (p : request Queue.popped) =
  drain_charge t p;
  finish t p.Queue.p_payload Timed_out

(* Batch formation from the backlog: take every queued request
   with the leader's key whose rows still fit under [cap], oldest first,
   so the batch runs at once and no worker waits for joiners. A request
   that does not fit stays queued and leads the next batch; a taken one
   that expired in the backlog resolves [Timed_out] here, as
   [worker_loop] would have resolved it. *)
let gather t rq ~cap =
  let total = ref (own_rows rq) and k = key_of rq in
  let fits ~expired (o : request) =
    let r = own_rows o in
    String.equal (key_of o) k && (expired || (r > 0 && !total + r <= cap && (total := !total + r; true)))
  in
  let taken = Queue.take t.queue fits in
  if taken <> [] then Stats.set_queue_depth t.stats (Queue.length t.queue);
  List.filter_map
    (function
      | `Expired p -> expire t p; None
      | `Item p -> drain_charge t p; Stats.record t.stats Stats.Coalesced; Some p)
    taken

let handle t (p : request Queue.popped) =
  let rq = p.p_payload in
  Obs.Trace.with_span
    ~attrs:
      [
        ("model", rq.rq_work.Runtime.Workload.model.Ir.Models.model_name);
        ("backend", rq.rq_work.Runtime.Workload.backend.Backends.Policy.be_name);
        ("arch", rq.rq_work.Runtime.Workload.arch.Gpu.Arch.name);
      ]
    "serve.request"
  @@ fun () ->
  if Shed.quarantined t.shed ~key:(key_of rq) then
    (* The key exceeded its poison offense threshold: resolve without
       executing — repeat offenders don't get to keep riding batches. *)
    finish t rq Quarantined
  else
    (* The popped request leads a batch of what is queued behind it. A
       row-sliceable workload under a bucketing policy gathers the queued
       requests with its key whose rows stack up to the shape-class
       boundary, itself halved while under memory pressure (never below
       the leader's own rows); anything else runs as a one-member batch. *)
    let cap, gathered =
      match Runtime.Workload.batch_space rq.rq_work with
      | Some (rows, cap) ->
          let cap = max rows (effective_cap t cap) in
          (cap, gather t rq ~cap)
      | None -> (0, [])
    in
    let member ~leader (p : request Queue.popped) =
      {
        Batcher.m_rows = own_rows p.p_payload;
        m_deadline = p.p_deadline;
        m_tag = p.p_payload.rq_stream;
        m_cb = deliver_member t ~leader p;
      }
    in
    lead t rq (Batcher.form ~cap (member ~leader:true p :: List.map (member ~leader:false) gathered))

let rec worker_loop t =
  match Queue.pop t.queue with
  | `Closed -> ()
  | `Expired p ->
      Stats.set_queue_depth t.stats (Queue.length t.queue);
      expire t p;
      worker_loop t
  | `Item p ->
      Stats.set_queue_depth t.stats (Queue.length t.queue);
      drain_charge t p;
      handle t p;
      worker_loop t

(* Each worker domain owns an arena; a steady-state warm worker serves
   requests out of recycled buffers instead of churning the allocator. *)
let worker_main t =
  let arena = Tensor.Arena.create () in
  Tensor.Arena.with_arena arena (fun () -> worker_loop t)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?cache ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  let workers = max 1 (min 24 cfg.workers) in
  let cfg = { cfg with workers } in
  let t =
    {
      cfg;
      cache = (match cache with Some c -> c | None -> Runtime.Plan_cache.create ());
      queue =
        Queue.create ~clock:cfg.clock ~capacity:cfg.queue_capacity ();
      stats = Stats.create ();
      breakers = Breaker.create ~clock:cfg.clock cfg.breaker;
      shed = Shed.create ~workers ~quarantine_threshold:cfg.quarantine_threshold ();
      cap_shift = Atomic.make 0;
      clean_runs = Atomic.make 0;
      fleet =
        (if cfg.devices > 1 then Some (Fleet.create ?fault_plan:cfg.fault_plan ~devices:cfg.devices ())
         else None);
      stream = Atomic.make 0;
      join_lock = Mutex.create ();
      worker_domains = [];
    }
  in
  t.worker_domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_main t));
  t

let submit_w t ?deadline_s work =
  let tk = new_ticket () in
  Stats.record t.stats Stats.Submitted;
  let now = t.cfg.clock () in
  let rq =
    {
      rq_work = work;
      rq_submit_at = now;
      rq_ticket = tk;
      rq_stream = Atomic.fetch_and_add t.stream 1;
      rq_charge = 0.0;
    }
  in
  (* Overload shedding at admission: a request whose deadline cannot be
     met given the charged backlog and this key's service-time estimate
     resolves [Shed] immediately — it never occupies queue capacity it
     is doomed to time out of. *)
  let admission =
    if t.cfg.shed_deadlines then
      Shed.admit t.shed ~key:(key_of rq) ?deadline_rel:deadline_s ()
    else `Admit 0.0
  in
  (match admission with
  | `Shed reason -> finish t rq (Shed reason)
  | `Admit charge ->
      rq.rq_charge <- charge;
      let deadline = Option.map (fun d -> now +. d) deadline_s in
      match Queue.push t.queue ?deadline rq with
      | `Queued ->
          Stats.record t.stats Stats.Admitted;
          Stats.set_queue_depth t.stats (Queue.length t.queue)
      | (`Full | `Closed) as refusal ->
          if charge > 0.0 then Shed.drain t.shed charge;
          rq.rq_charge <- 0.0;
          finish t rq (Rejected (if refusal = `Full then "queue full" else "server shut down")));
  tk

(* Legacy positional submit: a workload sized to the server's fleet and
   bucketed by its shape policy. *)
let submit t ?deadline_s ~arch backend model =
  submit_w t ?deadline_s
    (Runtime.Workload.make ~devices:t.cfg.devices ~shapes:t.cfg.shapes ~arch backend model)

let stats t = Stats.snapshot t.stats
let latencies t = Stats.latencies t.stats
let queue_depth t = Queue.length t.queue
let shed t = t.shed
let batch_cap_shift t = Atomic.get t.cap_shift

(* Deterministic overload staging: with the queue paused, submissions
   accumulate (and shed) against a static backlog — the shed decision for
   each request becomes a pure function of submit order, independent of
   worker scheduling. *)
let pause t = Queue.pause t.queue
let resume t = Queue.resume t.queue

let breaker_state_w t ?device work = Breaker.state t.breakers ~key:(breaker_key work ~device)
let breaker_trips_w t ?device work = Breaker.trips t.breakers ~key:(breaker_key work ~device)

let fleet_alive t = Option.map Fleet.alive_count t.fleet
let fleet_json t = Option.map Fleet.to_json t.fleet

let shutdown t =
  Queue.close t.queue;
  let workers =
    Mutex.lock t.join_lock;
    let w = t.worker_domains in
    t.worker_domains <- [];
    Mutex.unlock t.join_lock;
    w
  in
  List.iter Domain.join workers;
  Stats.set_queue_depth t.stats 0
