(* [Exec.run] lists a kernel's transfers in hash-table order, which
   follows the tensors' names, and [Cost.kernel_time] sums floats and
   tracks L2 residency in list order. The tuner costs them in the order
   the kernel's stages first touch each tensor, reads and writes apart;
   a tensor met under several index patterns has its transfers ordered
   by their counts (transfers that tie are identical records). Two
   kernels that differ only in tensor names then cost the same bits,
   which is what lets a compile reuse one sub-graph's tuning decision
   for another of the same structure. [Exec.run] keeps its own order: a
   plan's kernels share one L2 model, at run time and in the compile's
   plan comparison, so that order carries across kernels. *)
let canonical_transfers (kernel : Gpu.Kernel.t) (ks : Gpu.Exec.kstats) =
  let reads = ref [] and writes = ref [] in
  let touch seen tensor = if not (List.mem tensor !seen) then seen := tensor :: !seen in
  List.iter
    (fun stage ->
      List.iter
        (function
          | Gpu.Kernel.Load { tensor; _ } -> touch reads tensor
          | Gpu.Kernel.Store { tensor; _ } -> touch writes tensor
          | _ -> ())
        (match stage with Gpu.Kernel.Once is | Gpu.Kernel.ForEachStep is -> is))
    kernel.Gpu.Kernel.stages;
  let counts (tr : Gpu.Exec.transfer) = (tr.tr_requested, tr.tr_per_block, tr.tr_passes) in
  let order touched trs =
    List.concat_map
      (fun tensor ->
        List.filter (fun (tr : Gpu.Exec.transfer) -> tr.tr_tensor = tensor) trs
        |> List.sort (fun a b -> compare (counts a) (counts b)))
      (List.rev !touched)
  in
  { ks with Gpu.Exec.ks_reads = order reads ks.Gpu.Exec.ks_reads; ks_writes = order writes ks.ks_writes }

let kernel_cost arch device kernel =
  let stats = Gpu.Exec.run ~mode:Gpu.Exec.Analytic device kernel in
  let cache = Gpu.Cost.fresh_cache arch in
  (Gpu.Cost.kernel_time arch cache (canonical_transfers kernel stats)).Gpu.Cost.time

(* Configuration-independent work of the fused graph: GEMM flops, plus every
   leaf tensor read once and every output written once. Both are lower
   bounds on what any lowered kernel for this graph must do — intermediates
   stay on-chip, but leaves and outputs always cross DRAM. *)
let graph_work g =
  let gemm = ref 0.0 and bytes = ref 0 in
  List.iter
    (fun (n : Ir.Graph.node) ->
      match n.kind with
      | Ir.Graph.Input _ | Ir.Graph.Weight _ ->
          bytes := !bytes + (Shape.numel n.shape * Gpu.Arch.elt_bytes)
      | Ir.Graph.Matmul { a; _ } ->
          let sa = (Ir.Graph.node g a).shape in
          let k = sa.(Array.length sa - 1) in
          gemm := !gemm +. (2.0 *. float_of_int (Shape.numel n.shape * k))
      | _ -> ())
    (Ir.Graph.nodes g);
  List.iter
    (fun o -> bytes := !bytes + (Shape.numel (Ir.Graph.node g o).shape * Gpu.Arch.elt_bytes))
    (Ir.Graph.outputs g);
  (!gemm, float_of_int !bytes)

(* Grid size the configuration will lower to: batch dims are blocked at 1,
   tiled dims at the configured block size; temporal/inner dims do not
   contribute blocks. *)
let config_blocks (schedule : Schedule.t) (cfg : Schedule.cfg) =
  let fs = Smg.fused schedule.Schedule.smg in
  let batch =
    List.fold_left (fun acc d -> acc * Fusedspace.dim_extent fs d) 1 schedule.Schedule.batch_dims
  in
  List.fold_left
    (fun acc (d, b) ->
      let e = Fusedspace.dim_extent fs d in
      acc * ((e + b - 1) / b))
    batch cfg.Schedule.blocks

let lower_bound arch schedule cfg =
  let gemm_flops, bytes = graph_work (Smg.graph schedule.Schedule.smg) in
  Gpu.Cost.time_lower_bound arch ~blocks:(config_blocks schedule cfg) ~gemm_flops ~bytes

(* Fewest candidates per costing domain: spawning and joining a helper
   domain costs about as much as costing fifteen candidates. *)
let per_domain = 32

(* [cost i] is [kernel_cost] of [kernels.(i)]. Called from the main domain
   with enough candidates, [costs] costs every kernel up front on
   [Parallel.default_jobs ()] domains, so that one slowed core does not
   set the compile's pace; otherwise, as in a serving worker's compile,
   each kernel is costed when asked. Costing is pure, so both ways give
   the same floats. *)
let costs arch device kernels =
  let n = Array.length kernels in
  Parallel.tabulate ~jobs:(min (Parallel.default_jobs ()) (n / per_domain)) n (fun i ->
      kernel_cost arch device kernels.(i))

let pick_best ?stats ?(prune = true) arch device (scheds : Auto_scheduler.scheduled list) =
  let cstats = match stats with Some s -> s | None -> Cstats.create () in
  Obs.Trace.with_span "tune" @@ fun () ->
  Cstats.timed cstats Cstats.Tune (fun () ->
      (* Candidates in the stable enumeration order: schedule order as given,
         then Schedule.enum_cfgs order. Of equal-cost candidates the earliest
         wins. Pruning skips a candidate only when its lower bound strictly
         exceeds the best cost so far, so a pruned candidate costs strictly
         more than the winner: pruned and unpruned runs select the same
         (schedule, cfg). The fold runs on this domain whoever computed the
         costs, so what it counts as costed and pruned is exact. *)
      let candidates =
        Array.of_list
          (List.concat_map
             (fun { Auto_scheduler.schedule; cfgs } ->
               let gemm_flops, bytes = graph_work (Smg.graph schedule.Schedule.smg) in
               List.map (fun (cfg, kernel) -> (schedule, cfg, kernel, gemm_flops, bytes)) cfgs)
             scheds)
      in
      let cost = costs arch device (Array.map (fun (_, _, kernel, _, _) -> kernel) candidates) in
      let best = ref None in
      Array.iteri
        (fun i (schedule, cfg, kernel, gemm_flops, bytes) ->
          let incumbent = match !best with Some (_, _, _, c) -> c | None -> infinity in
          if
            prune
            && Gpu.Cost.time_lower_bound arch ~blocks:(config_blocks schedule cfg) ~gemm_flops
                 ~bytes
               > incumbent
          then cstats.Cstats.n_early_quit <- cstats.Cstats.n_early_quit + 1
          else begin
            cstats.Cstats.n_cfgs <- cstats.Cstats.n_cfgs + 1;
            let cost = cost i in
            match !best with
            | Some (_, _, _, best_cost) when best_cost <= cost -> ()
            | _ -> best := Some (schedule, cfg, kernel, cost)
          end)
        candidates;
      !best)
