(* Cross-device sharding scheduler. A candidate is (device count,
   strategy); its cost is analytic compute time (the same Cost.kernel_time
   the tuner trusts, over scaled per-device kstats) plus collective time
   from the Node interconnect model. The pick reuses the tuner discipline:
   pure-fold argmin, lower-bound pruning. *)

module E = Gpu.Exec

type strategy = Data_parallel | Pipeline

let strategy_name = function
  | Data_parallel -> "data_parallel"
  | Pipeline -> "pipeline"

type decision = {
  d_node : Gpu.Node.t;
  d_devices : int;
  d_strategy : strategy;
  d_time : float;
  d_compute_s : float;
  d_collective_s : float;
  d_baseline_s : float;
  d_candidates : int;
  d_pruned : int;
}

let speedup d = if d.d_time > 0.0 then d.d_baseline_s /. d.d_time else 1.0

let m_decisions = Obs.Metrics.counter "shard.decisions"
let m_sharded = Obs.Metrics.counter "shard.sharded_picks"
let m_pruned = Obs.Metrics.counter "shard.pruned_candidates"

let ceil_div a b = (a + b - 1) / b

(* One device's share of a kernel under round-robin block sharding. *)
let scale_kstats ~devices (ks : E.kstats) =
  if devices <= 1 then ks
  else begin
    let blocks_d = max 1 (ceil_div ks.E.ks_blocks devices) in
    let frac = float_of_int blocks_d /. float_of_int (max 1 ks.E.ks_blocks) in
    let scale_i x = int_of_float (Float.round (float_of_int x *. frac)) in
    let scale_tr (tr : E.transfer) =
      let requested = max tr.E.tr_per_block (scale_i tr.E.tr_requested) in
      (* A broadcast-style read (requested > unique: every block re-reads
         the tensor, e.g. a weight) is touched in full by every device; a
         partitioned tensor's unique footprint scales with the block
         fraction, floored at one block's tile. *)
      let unique =
        if tr.E.tr_requested > tr.E.tr_unique then tr.E.tr_unique
        else min tr.E.tr_unique (max tr.E.tr_per_block (scale_i tr.E.tr_unique))
      in
      { tr with E.tr_requested = requested; tr_unique = unique }
    in
    {
      ks with
      E.ks_blocks = blocks_d;
      ks_gemm_flops = ks.E.ks_gemm_flops *. frac;
      ks_simd_flops = ks.E.ks_simd_flops *. frac;
      ks_moved_bytes = ks.E.ks_moved_bytes *. frac;
      ks_reads = List.map scale_tr ks.E.ks_reads;
      ks_writes = List.map scale_tr ks.E.ks_writes;
    }
  end

let write_bytes (ks : E.kstats) =
  List.fold_left (fun a (tr : E.transfer) -> a +. float_of_int tr.E.tr_unique) 0.0 ks.E.ks_writes

(* Which of each kernel's written bytes must be all-gathered under
   round-robin block sharding. An aligned partitioned read downstream
   (requested = unique: each block touches its own disjoint slice) reads
   the slice its own device produced, so the boundary stays device-local.
   A broadcast-style downstream read (requested > unique: blocks re-read
   the tensor, the way GEMM tiles re-read an activation across column
   tiles) needs the whole tensor resident everywhere, and a write nothing
   downstream reads is a subprogram output that must be assembled — both
   pay the gather. Returns one gather-byte total per kernel, in order. *)
let gather_bytes kstats =
  let reads_of rest w pred =
    List.exists
      (fun (k : E.kstats) ->
        List.exists
          (fun (r : E.transfer) -> r.E.tr_tensor = w.E.tr_tensor && pred r)
          k.E.ks_reads)
      rest
  in
  let rec per = function
    | [] -> []
    | (ks : E.kstats) :: rest ->
        let needs (w : E.transfer) =
          reads_of rest w (fun r -> r.E.tr_requested > r.E.tr_unique)
          || not (reads_of rest w (fun _ -> true))
        in
        List.fold_left
          (fun a (w : E.transfer) -> if needs w then a +. float_of_int w.E.tr_unique else a)
          0.0 ks.E.ks_writes
        :: per rest
  in
  per kstats

(* Data-parallel cost at [d] devices: per-kernel compute over scaled
   kstats (one shared L2 state per device, modeled on the representative
   device), plus an all-gather of the written tensors whose downstream
   readers cross the shard boundary (see {!gather_bytes}). *)
let data_parallel_cost (node : Gpu.Node.t) ~dispatch_s ~d ~gbytes kstats =
  let arch = node.Gpu.Node.nd_arch in
  let cache = Gpu.Cost.fresh_cache arch in
  List.fold_left2
    (fun (comp, coll) ks gb ->
      let t = (Gpu.Cost.kernel_time arch cache (scale_kstats ~devices:d ks)).Gpu.Cost.time in
      let g =
        if d <= 1 then 0.0
        else Gpu.Node.all_gather_time { node with Gpu.Node.nd_devices = d } ~bytes:gb
      in
      (comp +. t +. dispatch_s, coll +. g))
    (0.0, 0.0) kstats gbytes

(* Pipeline cost at [d] stages: kernels split into contiguous stages
   balanced by one-device time; each boundary pays a point-to-point
   transfer; [reps] passes overlap so steady state runs at the bottleneck
   stage while the first pass pays the fill. *)
let pipeline_cost (node : Gpu.Node.t) ~dispatch_s ~d ~reps kstats =
  let arch = node.Gpu.Node.nd_arch in
  let times =
    let cache = Gpu.Cost.fresh_cache arch in
    List.map
      (fun ks -> ((Gpu.Cost.kernel_time arch cache ks).Gpu.Cost.time +. dispatch_s, write_bytes ks))
      kstats
  in
  let total = List.fold_left (fun a (t, _) -> a +. t) 0.0 times in
  let target = total /. float_of_int d in
  (* Greedy balanced split; stage = (compute time, boundary bytes). *)
  let stages = ref [] and cur_t = ref 0.0 and cur_b = ref 0.0 and left = ref (List.length times) in
  let nstages () = List.length !stages in
  List.iter
    (fun (t, b) ->
      cur_t := !cur_t +. t;
      cur_b := b;
      decr left;
      (* Close the stage once it reaches its share, keeping enough kernels
         to populate the remaining stages. *)
      if !cur_t >= target && nstages () < d - 1 && !left >= d - 1 - nstages () then begin
        stages := (!cur_t, !cur_b) :: !stages;
        cur_t := 0.0;
        cur_b := 0.0
      end)
    times;
  if !cur_t > 0.0 || !stages = [] then stages := (!cur_t, !cur_b) :: !stages;
  let stages = List.rev !stages in
  let hop bytes =
    if bytes <= 0.0 then 0.0
    else
      (bytes /. node.Gpu.Node.nd_link_bw *. Gpu.Node.contention node)
      +. node.Gpu.Node.nd_link_latency_s
  in
  let n = List.length stages in
  (* The last stage's write is the subprogram output, not a boundary. *)
  let stage_cost i (t, b) = (t, if i = n - 1 then 0.0 else hop b) in
  let costed = List.mapi stage_cost stages in
  let fill_c = List.fold_left (fun a (t, _) -> a +. t) 0.0 costed in
  let fill_x = List.fold_left (fun a (_, x) -> a +. x) 0.0 costed in
  let bottleneck = List.fold_left (fun a (t, x) -> Float.max a (t +. x)) 0.0 costed in
  let r = float_of_int (max 1 reps) in
  (* Per-pass averages over [reps] overlapped passes. *)
  let comp = (fill_c +. ((r -. 1.0) *. bottleneck)) /. r in
  let coll = fill_x /. r in
  (comp, coll)

let candidate_devices n =
  let rec pows acc d = if d > n then List.rev acc else pows (d :: acc) (d * 2) in
  let ds = pows [] 1 in
  if List.mem n ds then ds else ds @ [ n ]

let best ?(reps = 1) ?(dispatch_us = 3.0) (node : Gpu.Node.t) (plan : Gpu.Plan.t) =
  let dispatch_s = dispatch_us *. 1e-6 in
  (* Base per-kernel stats: the plan's memoised walk on the node's arch
     (the arch only gates budgets, so the counters equal an arch-free
     walk's). A plan with no memo there is walked arch-free on a fresh,
     injector-free device, raising what that walk raises. *)
  let kstats =
    match Gpu.Plan.walk plan node.Gpu.Node.nd_arch with
    | Some steps -> List.map (fun s -> s.Gpu.Plan.s_stats) steps
    | None ->
        let device = Gpu.Device.create () in
        Gpu.Plan.declare_all plan device;
        List.map (fun k -> E.run ~mode:E.Analytic device k) plan.Gpu.Plan.p_kernels
  in
  let nk = List.length kstats in
  let gbytes = gather_bytes kstats in
  (* Exact one-device baseline: the incumbent every candidate must beat,
     and the reference for lower-bound pruning. *)
  let base_comp, _ = data_parallel_cost node ~dispatch_s ~d:1 ~gbytes kstats in
  let baseline =
    {
      d_node = node;
      d_devices = 1;
      d_strategy = Data_parallel;
      d_time = base_comp;
      d_compute_s = base_comp;
      d_collective_s = 0.0;
      d_baseline_s = base_comp;
      d_candidates = 1;
      d_pruned = 0;
    }
  in
  let cands =
    List.concat_map
      (fun d ->
        if d = 1 then []
        else
          (Data_parallel, d)
          :: (if d <= nk && reps > 1 then [ (Pipeline, d) ] else []))
      (candidate_devices node.Gpu.Node.nd_devices)
  in
  (* Collective time is exact and cheap: if it alone beats the baseline's
     total, the candidate cannot win — prune before paying for the
     per-kernel compute evaluation. *)
  let collective_lb d =
    List.fold_left
      (fun a gb ->
        a +. Gpu.Node.all_gather_time { node with Gpu.Node.nd_devices = d } ~bytes:gb)
      0.0 gbytes
  in
  let evaluated =
    List.map
      (fun (strat, d) ->
        match strat with
        | Data_parallel when collective_lb d >= base_comp -> `Pruned
        | _ ->
            let comp, coll =
              match strat with
              | Data_parallel -> data_parallel_cost node ~dispatch_s ~d ~gbytes kstats
              | Pipeline -> pipeline_cost node ~dispatch_s ~d ~reps kstats
            in
            `Cand (strat, d, comp, coll))
      cands
  in
  let pruned = List.length (List.filter (fun c -> c = `Pruned) evaluated) in
  (* Pure left fold; candidate order is the deterministic enumeration
     order, ties keep the incumbent (fewer devices, Data_parallel first). *)
  let pick =
    List.fold_left
      (fun acc c ->
        match c with
        | `Pruned -> acc
        | `Cand (strat, d, comp, coll) ->
            let t = comp +. coll in
            if t < acc.d_time then
              {
                acc with
                d_devices = d;
                d_strategy = strat;
                d_time = t;
                d_compute_s = comp;
                d_collective_s = coll;
              }
            else acc)
      baseline evaluated
  in
  let pick =
    { pick with d_candidates = 1 + List.length evaluated - pruned; d_pruned = pruned }
  in
  Obs.Metrics.incr m_decisions;
  if pick.d_devices > 1 then Obs.Metrics.incr m_sharded;
  if pruned > 0 then Obs.Metrics.incr ~by:pruned m_pruned;
  pick

let run_functional ?arch device (plan : Gpu.Plan.t) ~devices =
  if devices < 1 then invalid_arg "Shard.run_functional: devices < 1";
  List.iter
    (fun k ->
      for i = 0 to devices - 1 do
        ignore (E.run ~mode:E.Full ?arch ~shard:(i, devices) device k)
      done)
    plan.Gpu.Plan.p_kernels

let to_json d =
  Obs.Json.(
    Obj
      [
        ("node", Gpu.Node.to_json d.d_node);
        ("devices", Num (float_of_int d.d_devices));
        ("strategy", Str (strategy_name d.d_strategy));
        ("time_s", Num d.d_time);
        ("compute_s", Num d.d_compute_s);
        ("collective_s", Num d.d_collective_s);
        ("baseline_s", Num d.d_baseline_s);
        ("speedup", Num (speedup d));
        ("candidates", Num (float_of_int d.d_candidates));
        ("pruned", Num (float_of_int d.d_pruned));
      ])

let pp fmt d =
  Format.fprintf fmt "shard{%d dev %s: %.2fus (compute %.2fus + coll %.2fus), 1-dev %.2fus, %.2fx}"
    d.d_devices (strategy_name d.d_strategy) (d.d_time *. 1e6) (d.d_compute_s *. 1e6)
    (d.d_collective_s *. 1e6) (d.d_baseline_s *. 1e6) (speedup d)
