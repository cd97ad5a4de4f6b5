let alpha = 0.25

let kernel_cost arch device kernel =
  let stats = Gpu.Exec.run ~mode:Gpu.Exec.Analytic device kernel in
  let cache = Gpu.Cost.fresh_cache arch in
  (Gpu.Cost.kernel_time arch cache stats).Gpu.Cost.time

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

type outcome = Pruned | Costed of float

let pick_best ?stats ?(prune = true) arch device (scheds : Auto_scheduler.scheduled list) =
  let cstats = match stats with Some s -> s | None -> Cstats.create () in
  Obs.Trace.with_span "tune" @@ fun () ->
  Cstats.timed cstats Cstats.Tune (fun () ->
      (* Candidates in the stable enumeration order: schedule order as given,
         then Schedule.enum_cfgs order. This order is the tie-break rule —
         of equal-cost candidates the earliest wins — so serial, parallel,
         pruned and unpruned runs all select the same (schedule, cfg). *)
      let candidates =
        List.concat_map
          (fun { Auto_scheduler.schedule; cfgs } ->
            let gemm_flops, bytes = graph_work (Smg.graph schedule.Schedule.smg) in
            List.map (fun (cfg, kernel) -> (schedule, cfg, kernel, gemm_flops, bytes)) cfgs)
          scheds
      in
      (* Cross-domain incumbent: workers prune against the best cost seen so
         far by anyone. Pruning only ever skips candidates whose lower bound
         strictly exceeds the incumbent, and the incumbent only decreases, so
         a pruned candidate's true cost is strictly above the final best —
         the selected winner (and any cost tie with it) is never pruned,
         whatever the interleaving. *)
      let best_now = Atomic.make infinity in
      let outcomes =
        Parallel.map
          (fun (schedule, cfg, kernel, gemm_flops, bytes) ->
            let lb =
              if not prune then neg_infinity
              else
                Gpu.Cost.time_lower_bound arch ~blocks:(config_blocks schedule cfg) ~gemm_flops
                  ~bytes
            in
            if lb > Atomic.get best_now then Pruned
            else begin
              let cost = kernel_cost arch device kernel in
              let rec relax () =
                let cur = Atomic.get best_now in
                if cost < cur && not (Atomic.compare_and_set best_now cur cost) then relax ()
              in
              relax ();
              Costed cost
            end)
          candidates
      in
      let best = ref None in
      List.iter2
        (fun (schedule, cfg, kernel, _, _) outcome ->
          match outcome with
          | Pruned -> cstats.Cstats.n_early_quit <- cstats.Cstats.n_early_quit + 1
          | Costed cost -> (
              cstats.Cstats.n_cfgs <- cstats.Cstats.n_cfgs + 1;
              match !best with
              | Some (_, _, _, best_cost) when best_cost <= cost -> ()
              | _ -> best := Some (schedule, cfg, kernel, cost)))
        candidates outcomes;
      !best)
