(* The two serving workloads: a seeded open-loop generator at a nominal
   rate, then a closed loop that keeps a fixed number of requests in
   flight to find the sustained rate, both against one Serve.Server with
   [workers = Core.Parallel.default_jobs ()] (nproc unless
   SPACEFUSION_JOBS says otherwise). The generator is this single main
   domain: it sleeps until each Poisson arrival is due, submits, and
   charges the request from when it was due, so a stall in submitting
   counts against latency. *)

module S = Serve.Server
module B = Backends.Baselines
module W = Runtime.Workload

let arch = Gpu.Arch.ampere

let one name g =
  { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }

type spec = {
  work : W.t;
  rows : int option;  (* own leading dim when the request batches by rows *)
  cold : bool;  (* a shape this process has never served *)
  label : string;  (* names the request in the schedule digest *)
}

(* Shapes a serve_cold request may use exactly once per run. The open
   loop takes from the front, the closed loop from the back, so the open
   loop's draws — and with them its schedule — do not depend on how many
   requests the closed loop managed. *)
type pool = { shapes : (string * int * int) array; mutable front : int; mutable back : int }

let take pool ~closed =
  if pool.front > pool.back then failwith "serve_cold: every cold shape was used; lengthen the pool";
  if closed then begin
    pool.back <- pool.back - 1;
    pool.shapes.(pool.back + 1)
  end
  else begin
    pool.front <- pool.front + 1;
    pool.shapes.(pool.front - 1)
  end

type config = {
  shapes : Runtime.Shape_class.policy;
  rate : float;  (* open-loop requests per second *)
  clients : int;  (* closed-loop requests in flight *)
  warm : (string, spec) Hashtbl.t -> spec list;  (* served once, in order, during setup *)
  draw : (string, spec) Hashtbl.t -> pool -> Random.State.t -> closed:bool -> index:int -> spec;
      (* the [index]-th request of one loop *)
  warm_only : bool;  (* the window must compile nothing and execute nothing functionally *)
  timed : spec -> bool;  (* the requests whose latency is the workload's p50 *)
}

(* One spec per label: graphs and workloads are built once per distinct
   request, not per arrival. *)
let memo tbl label make =
  match Hashtbl.find_opt tbl label with
  | Some s -> s
  | None ->
      let s = make () in
      Hashtbl.replace tbl label s;
      s

let spec_of ~shapes ?(cold = false) label backend model =
  let work = W.make ~shapes ~arch backend model in
  { work; rows = Option.map fst (W.batch_space work); cold; label }

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- serve_pow2 ----------------------------------------------------- *)

let families =
  [
    ("ln", fun r -> Ir.Models.layernorm_graph ~m:r ~n:64);
    ("rms", fun r -> Ir.Models.rmsnorm_graph ~m:r ~n:64);
    ("softmax", fun r -> Ir.Models.softmax_graph ~m:r ~n:64);
    ("mlp", fun r -> Ir.Models.mlp ~layers:2 ~m:r ~n:32 ~k:32);
  ]

let pow2_spec tbl (fam, graph) rows =
  let label = Printf.sprintf "%s/%d" fam rows in
  memo tbl label (fun () ->
      spec_of ~shapes:Runtime.Shape_class.Pow2 label B.spacefusion (one fam (graph rows)))

(* Fixed shapes: softmax-GEMM batches by rows like the families (so its
   next class boundary is warmed too); BatchNorm reduces over rows and
   only ever shares identical requests. *)
let fixed_models =
  [
    ("sm-gemm", fun r -> Ir.Models.softmax_gemm ~m:r ~l:128 ~n:64);
    ("bn", fun r -> Ir.Models.batchnorm_graph ~m:r ~n:128);
  ]

let fixed_rows = function "sm-gemm" -> 32 | _ -> 128

let fixed_spec tbl (name, graph) (backend : Backends.Policy.t) rows =
  let label = Printf.sprintf "%s/%s/%d" name backend.be_name rows in
  memo tbl label (fun () ->
      spec_of ~shapes:Runtime.Shape_class.Pow2 label backend (one name (graph rows)))

(* 70% row-sliceable requests of 9-64 rows over three shape classes; 30%
   fixed-shape requests split across the SpaceFusion and PyTorch
   policies. Setup serves every class representative (16, 32, 64) and
   every batch boundary (32, 64, 128), so the window runs on warm,
   verified plans only. *)
let pow2 =
  let backends = [ B.spacefusion; B.pytorch ] in
  {
    shapes = Runtime.Shape_class.Pow2;
    rate = 500.0;
    clients = 32;
    warm_only = true;
    timed = (fun _ -> true);
    warm =
      (fun tbl ->
        List.concat_map (fun f -> List.map (pow2_spec tbl f) [ 16; 32; 64; 128 ]) families
        @ List.concat_map
            (fun b ->
              List.concat_map
                (fun ((name, _) as m) ->
                  let r = fixed_rows name in
                  List.map (fixed_spec tbl m b) (if name = "bn" then [ r ] else [ r; 2 * r ]))
                fixed_models)
            backends);
    draw =
      (fun tbl _ rng ~closed:_ ~index:_ ->
        if Random.State.float rng 1.0 < 0.7 then
          let f = pick rng families in
          pow2_spec tbl f (9 + Random.State.int rng 56)
        else
          let ((name, _) as m) = pick rng fixed_models in
          fixed_spec tbl m (pick rng backends) (fixed_rows name));
  }

(* ---- serve_cold ----------------------------------------------------- *)

let zoo =
  [
    one "ln" (Ir.Models.layernorm_graph ~m:128 ~n:128);
    one "rms" (Ir.Models.rmsnorm_graph ~m:128 ~n:128);
    one "softmax" (Ir.Models.softmax_graph ~m:128 ~n:128);
    one "mlp" (Ir.Models.mlp ~layers:2 ~m:32 ~n:128 ~k:128);
    one "sm-gemm" (Ir.Models.softmax_gemm ~m:32 ~l:128 ~n:64);
    one "bn" (Ir.Models.batchnorm_graph ~m:128 ~n:128);
  ]

let zoo_specs tbl =
  List.concat_map
    (fun (b : Backends.Policy.t) ->
      List.map
        (fun (m : Ir.Models.model) ->
          let label = m.model_name ^ "/" ^ b.be_name in
          memo tbl label (fun () -> spec_of ~shapes:Runtime.Shape_class.Exact label b m))
        zoo)
    [ B.spacefusion; B.pytorch ]

let cold_families = [| "ln"; "softmax"; "rms" |]

let cold_graph = function
  | "ln" -> Ir.Models.layernorm_graph
  | "rms" -> Ir.Models.rmsnorm_graph
  | _ -> Ir.Models.softmax_graph

(* Every fifth request is a never-seen LN/softmax/RMSNorm shape (rows
   16-271 at n = 64 or 32, so never a zoo shape): a cold SpaceFusion
   compile plus a functional first execution on a worker, served beside
   warm mini-zoo requests on both policies. Spacing the cold requests
   evenly and rotating their family keeps the share and mix of compile
   work the same from seed to seed; the seed picks the shapes. The
   workload's p50 is the cold requests' latency. *)
let exact =
  {
    shapes = Runtime.Shape_class.Exact;
    rate = 100.0;
    clients = 8;
    warm_only = false;
    timed = (fun sp -> sp.cold);
    warm = zoo_specs;
    draw =
      (fun tbl pool rng ~closed ~index ->
        if index mod 5 = 4 then
          let fam, rows, n = take pool ~closed in
          let label = Printf.sprintf "cold-%s/%dx%d" fam rows n in
          spec_of ~shapes:Runtime.Shape_class.Exact ~cold:true label B.spacefusion
            (one fam (cold_graph fam ~m:rows ~n))
        else pick rng (zoo_specs tbl));
  }

let cold_pool seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let per_family =
    Array.map
      (fun fam ->
        let a =
          Array.of_list
            (List.concat_map (fun n -> List.init 256 (fun i -> (fam, 16 + i, n))) [ 64; 32 ])
        in
        shuffle rng a;
        a)
      cold_families
  in
  let k = Array.length cold_families in
  let shapes = Array.init (k * Array.length per_family.(0)) (fun i -> per_family.(i mod k).(i / k)) in
  { shapes; front = 0; back = Array.length shapes - 1 }

(* ---- one workload over a config ------------------------------------ *)

type served = { sv_spec : spec; sv_lag : float; sv_resp : S.response }

type state = {
  cfg : config;
  seed : int;
  quick : bool;
  cache : Runtime.Plan_cache.t;
  server : S.t;
  specs : (string, spec) Hashtbl.t;
  pool : pool;
  mutable window : int;  (* windows measured so far: separates the rng streams *)
  mutable served : served list;  (* the last window's open-loop responses *)
  mutable colds : spec list;  (* cold requests of the last window, both loops *)
}

let setup cfg ~seed ~quick =
  let specs = Hashtbl.create 64 in
  let cache = Runtime.Plan_cache.create () in
  let config =
    {
      (S.default_config ()) with
      S.workers = Core.Parallel.default_jobs ();
      queue_capacity = 4096;
      shapes = cfg.shapes;
    }
  in
  let server = S.start ~cache ~config () in
  List.iter
    (fun sp ->
      match S.await (S.submit_w server sp.work) with
      | S.Done _ -> ()
      | _ -> failwith ("setup: warm-up request not served: " ^ sp.label))
    (cfg.warm specs);
  {
    cfg;
    seed;
    quick;
    cache;
    server;
    specs;
    pool = cold_pool seed;
    window = 0;
    served = [];
    colds = [];
  }

let submit st ~traced sp =
  if traced then Probe.span "serve.submit" (fun () -> S.submit_w st.server sp.work)
  else S.submit_w st.server sp.work

(* Every response names its workload's model and backend, is served on
   the fused path it asked for, and a row-batched one gets exactly its
   own rows. A cold request must have compiled. *)
let check_response tally sp = function
  | S.Done r ->
      let res = r.S.r_result in
      let rows_ok =
        match (sp.rows, r.S.r_rows) with
        | Some n, Some (off, len) -> len = n && off >= 0
        | None, None -> true
        | _ -> false
      in
      Window.check tally
        (res.Runtime.Model_runner.m_model = sp.work.W.model.Ir.Models.model_name
        && res.m_backend = sp.work.W.backend.Backends.Policy.be_name
        && (not r.S.r_degraded) && rows_ok
        && ((not sp.cold) || res.m_cache_misses > 0))
        (lazy
          (Printf.sprintf "%s: served as %s/%s, degraded=%b, rows=%s" sp.label res.m_model
             res.m_backend r.S.r_degraded
             (match r.S.r_rows with Some (o, l) -> Printf.sprintf "(%d,%d)" o l | None -> "-")));
      Some r
  | S.Rejected m | S.Failed m | S.Shed m ->
      Window.check tally false (lazy (sp.label ^ ": " ^ m));
      None
  | S.Timed_out | S.Quarantined ->
      Window.check tally false (lazy (sp.label ^ ": not served"));
      None

(* The row slices of one stacked execution tile its rows: members of a
   batch share the leader's result record (physically), and their
   offsets, sorted, run 0, len0, len0 + len1, ... with one member per
   slice. *)
let check_tiling tally (rs : S.response list) =
  let batches = ref [] in
  List.iter
    (fun (r : S.response) ->
      match r.S.r_rows with
      | None -> ()
      | Some slice -> (
          match List.find_opt (fun (res, _) -> res == r.S.r_result) !batches with
          | Some (_, members) -> members := (slice, r.S.r_batch) :: !members
          | None -> batches := (r.S.r_result, ref [ (slice, r.S.r_batch) ]) :: !batches))
    rs;
  List.iter
    (fun (_, members) ->
      let slices = List.sort compare (List.map fst !members) in
      let rec tiles next = function
        | [] -> true
        | (off, len) :: rest -> off = next && tiles (off + len) rest
      in
      let n = List.length slices in
      if not (tiles 0 slices && List.for_all (fun (_, b) -> b = n) !members) then
        Window.violation tally
          (Printf.sprintf "a %d-member batch's row slices do not tile it: %s" n
             (String.concat " " (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) slices))))
    !batches

let open_loop st tally ~rng ~duration ~traced digest =
  let rec schedule t i acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. st.cfg.rate) in
    if t > duration then List.rev acc
    else schedule t (i + 1) ((t, st.cfg.draw st.specs st.pool rng ~closed:false ~index:i) :: acc)
  in
  let arrivals = schedule 0.0 0 [] in
  List.iter (fun (due, sp) -> Buffer.add_string digest (Printf.sprintf "%.9f %s\n" due sp.label)) arrivals;
  let t0 = Probe.now () in
  let tickets =
    List.map
      (fun (due, sp) ->
        let wait = t0 +. due -. Probe.now () in
        if wait > 0.0 then Unix.sleepf wait;
        let lag = Probe.now () -. (t0 +. due) in
        (sp, lag, submit st ~traced sp))
      arrivals
  in
  let served =
    List.filter_map
      (fun (sp, lag, tk) ->
        Option.map
          (fun r -> { sv_spec = sp; sv_lag = lag; sv_resp = r })
          (check_response tally sp (S.await tk)))
      tickets
  in
  check_tiling tally (List.map (fun s -> s.sv_resp) served);
  (served, List.map snd arrivals)

(* Requests completed per second with [clients] in flight: the oldest
   is awaited and replaced, so the server never idles for lack of work
   and the backlog never grows. *)
let closed_loop st tally ~rng ~duration ~traced =
  let inflight = Queue.create () in
  let sent = ref [] and n = ref 0 in
  let send () =
    let sp = st.cfg.draw st.specs st.pool rng ~closed:true ~index:!n in
    incr n;
    sent := sp :: !sent;
    Queue.push (sp, submit st ~traced sp) inflight
  in
  let responses = ref [] in
  let collect () =
    let sp, tk = Queue.pop inflight in
    Option.iter (fun r -> responses := r :: !responses) (check_response tally sp (S.await tk))
  in
  let t0 = Probe.now () in
  for _ = 1 to st.cfg.clients do
    send ()
  done;
  let completed = ref 0 in
  while Probe.now () -. t0 < duration do
    collect ();
    incr completed;
    send ()
  done;
  let elapsed = Probe.now () -. t0 in
  while not (Queue.is_empty inflight) do
    collect ()
  done;
  check_tiling tally !responses;
  (float_of_int !completed /. elapsed, !sent)

let latency_ms (s : served) = (s.sv_lag +. s.sv_resp.S.r_latency_s) *. 1e3

let measure st tally ~seconds ~traced =
  st.window <- st.window + 1;
  let reps = if st.quick then 1 else 3 in
  let open_s = 0.6 *. seconds /. float_of_int reps
  and closed_s = 0.4 *. seconds /. float_of_int reps in
  let before = Probe.snapshot () in
  let digest = Buffer.create 4096 in
  let opens =
    List.init reps (fun rep ->
        open_loop st tally
          ~rng:(Random.State.make [| st.seed; st.window; rep; 1 |])
          ~duration:open_s ~traced digest)
  in
  let closes =
    List.init reps (fun rep ->
        closed_loop st tally
          ~rng:(Random.State.make [| st.seed; st.window; rep; 2 |])
          ~duration:closed_s ~traced)
  in
  let after = Probe.snapshot () in
  st.served <- List.concat_map fst opens;
  st.colds <- List.filter (fun sp -> sp.cold) (List.concat_map snd opens @ List.concat_map snd closes);
  let timed rs = List.map latency_ms (List.filter (fun s -> st.cfg.timed s.sv_spec) rs) in
  if st.cfg.warm_only then begin
    let compiles = Probe.delta before after "compile.count"
    and functional = Probe.delta before after "run.functional_execs" in
    if compiles > 0.0 || functional > 0.0 then
      Window.violation tally
        (Printf.sprintf "warm window compiled %.0f plans and ran %.0f functional executions"
           compiles functional)
  end;
  {
    Window.ops = List.length st.served + List.fold_left (fun acc (_, sent) -> acc + List.length sent) 0 closes;
    p50_ms =
      {
        Window.samples = List.map (fun (rs, _) -> Serve.Stats.percentile (timed rs) 50.0) opens;
        value = Serve.Stats.percentile (timed st.served) 50.0;
      };
    ops_per_s = Window.of_samples (List.map fst closes);
    exact =
      [
        ("schedule_md5", Obs.Json.Str (Digest.to_hex (Digest.string (Buffer.contents digest))));
        ("open_loop_requests", Obs.Json.Num (float_of_int (List.length st.served)));
      ];
  }

(* Workers record a request's terminal event just after resolving its
   ticket, so the books balance a moment after the last await returns. *)
let check_conservation st tally =
  let deadline = Probe.now () +. 2.0 in
  let rec wait () =
    if Serve.Stats.conserved (S.stats st.server) then true
    else if Probe.now () > deadline then false
    else begin
      Unix.sleepf 1e-3;
      wait ()
    end
  in
  if not (wait ()) then Window.violation tally "serve accounting does not conserve requests"

(* Conservation, then every cold plan of the window re-verified against
   the reference interpreter. *)
let post_check st tally =
  check_conservation st tally;
  List.iter
    (fun spec ->
      List.iter
        (fun (sp : Ir.Models.subprogram) ->
          let name = Replay.subprogram_name spec.work sp in
          match Runtime.Verify.verify_plan ~arch ~name sp.graph (Replay.lookup st.cache spec.work sp) with
          | Ok () -> Window.check tally true (lazy "")
          | Error e -> Window.check tally false (lazy e))
        spec.work.W.model.Ir.Models.subprograms)
    st.colds

(* The window's distinct requests (up to 200) replayed on the warm path,
   and each cold open-loop request's functional first execution. *)
let layers st =
  let colds = List.filter (fun s -> s.sv_spec.cold) st.served in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s : served) ->
      if (not (Hashtbl.mem seen s.sv_spec.label)) && Hashtbl.length seen < 200 then begin
        Hashtbl.replace seen s.sv_spec.label ();
        Replay.warm ~cache:st.cache ~functional:`Auto s.sv_spec.work
      end)
    st.served;
  List.iter (fun s -> Replay.first_execution ~cache:st.cache s.sv_spec.work) colds;
  let rs = List.map (fun s -> s.sv_resp) st.served in
  let ms f = List.map (fun r -> f r *. 1e3) rs in
  let share p = Probe.ratio (float_of_int (List.length (List.filter p rs))) (float_of_int (List.length rs)) in
  let ops = float_of_int (max 1 (List.length st.served)) in
  let result r = r.S.r_result.Runtime.Model_runner.m_exec in
  let percentile = Serve.Stats.percentile in
  [
    ("serve.submit_us", Probe.span_median_us "serve.submit");
    ("serve.p99_ms", percentile (List.map latency_ms st.served) 99.0);
    ("serve.queue_ms.p50", percentile (ms (fun r -> r.S.r_queue_s)) 50.0);
    ("serve.queue_ms.p99", percentile (ms (fun r -> r.S.r_queue_s)) 99.0);
    ("serve.service_ms.p50", percentile (ms (fun r -> r.S.r_latency_s -. r.S.r_queue_s)) 50.0);
    ("serve.batch_size.mean", Stats.mean (List.map (fun r -> float_of_int r.S.r_batch) rs));
    ("serve.batched_share", share (fun r -> r.S.r_batch > 1));
    ("serve.coalesced_share", share (fun r -> r.S.r_coalesced));
    ("serve.generator_lag_ms", percentile (List.map (fun s -> s.sv_lag *. 1e3) st.served) 99.0);
    ("serve.cold_p50_ms", percentile (List.map latency_ms colds) 50.0);
    ( "core.kernels",
      Stats.mean (List.map (fun s -> float_of_int (result s.sv_resp).Runtime.Exec_stats.x_kernels) colds) );
    ("gpu.sim_ms", Stats.mean (List.map (fun r -> (result r).Runtime.Exec_stats.x_time *. 1e3) rs));
    ("gpu.full_s", Probe.span_total "gpu.full" /. ops);
    ("gpu.full_blocks", Probe.span_total "gpu.full_blocks" /. ops);
  ]

let teardown st = S.shutdown st.server

module Make (C : sig
  val cfg : config
end) : Window.S = struct
  type nonrec state = state

  let setup = setup C.cfg
  let measure = measure
  let post_check = post_check
  let layers = layers
  let teardown = teardown
end

module Pow2 = Make (struct
  let cfg = pow2
end)

module Cold = Make (struct
  let cfg = exact
end)
