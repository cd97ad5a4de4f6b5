type scheduled = { schedule : Schedule.t; cfgs : (Schedule.cfg * Gpu.Kernel.t) list }

type variant = {
  use_temporal : bool;
  use_uta : bool;
  use_tuning : bool;
  fixed_block : int;
  fixed_tile : int;
}

let full =
  { use_temporal = true; use_uta = true; use_tuning = true; fixed_block = 64; fixed_tile = 64 }
let base_ss = { full with use_temporal = false; use_tuning = false }
let base_as = { full with use_temporal = false }
let base_ts = { full with use_tuning = false }

(* Lower one cfg with [lower] and check the resource bounds. *)
let feasible_with lower (arch : Gpu.Arch.t) cfg ~name =
  match lower cfg with
  | exception Lower.Unlowerable msg ->
      Log.debug (fun m -> m "[%s] unlowerable (%s): %s" name (Schedule.cfg_to_string cfg) msg);
      None
  | k ->
      if
        Gpu.Kernel.smem_bytes k <= arch.smem_per_block
        && Gpu.Kernel.reg_bytes k <= arch.regfile_bytes
      then Some k
      else None

let feasible arch schedule cfg ~name ~tensor_of =
  feasible_with (fun cfg -> Lower.lower schedule cfg ~name ~tensor_of) arch cfg ~name

(* One lowering per unit-block mask ({!Lower.lowerer}); every other cfg
   is an instantiation, so the whole enumeration costs a handful of
   lowerings. The result keeps enum_cfgs order, the tuner's tie-break. *)
let feasible_cfgs arch schedule ~name ~tensor_of =
  let lower = Lower.lowerer schedule ~name ~tensor_of in
  List.filter_map
    (fun cfg -> Option.map (fun k -> (cfg, k)) (feasible_with lower arch cfg ~name))
    (Schedule.enum_cfgs schedule)

(* The "expert knowledge" fixed configuration for the ablation variants and
   the hand-tuned baseline models, falling back to the first feasible
   configuration when the fixed one is not. *)
let expert_cfg variant arch schedule ~name ~tensor_of =
  let clamp extent v = min v extent in
  let fs = Smg.fused schedule.Schedule.smg in
  let fixed =
    {
      Schedule.blocks =
        List.map
          (fun d -> (d, clamp (Fusedspace.dim_extent fs d) variant.fixed_block))
          schedule.Schedule.tiled_dims;
      tile =
        (match schedule.Schedule.temporal with
        | Some p -> Some (clamp (Fusedspace.dim_extent fs p.Update_fn.tdim) variant.fixed_tile)
        | None -> None);
    }
  in
  match feasible arch schedule fixed ~name ~tensor_of with
  | Some k -> [ (fixed, k) ]
  | None -> (
      (* Fall back to the largest feasible configuration (hand-tuned kernels
         shrink their tiles only as far as the budget forces them to). *)
      match List.rev (feasible_cfgs arch schedule ~name ~tensor_of) with
      | [] -> []
      | c :: _ -> [ c ])

(* Whether a temporal plan is expressible without intra-operator dependency
   transformation: plain streaming and simple aggregation are, the paper's
   UTA (update factors over maintained scalars), postposed raw
   decompositions and two-pass recompute plans are not. *)
let plan_needs_transformation (p : Update_fn.t) =
  p.Update_fn.two_pass
  || List.exists
       (fun (_, rp) ->
         match rp with
         | Update_fn.RMax | Update_fn.RMin -> false
         | Update_fn.RRaw _ -> true
         | Update_fn.RUta factor ->
             List.exists (fun (a, _) -> match a with Pexpr.AConst _ -> false | _ -> true) factor)
       p.Update_fn.reductions

let analyze_dim variant smg d =
  match Update_fn.analyze smg ~dim:d with
  | Some plan when variant.use_uta || not (plan_needs_transformation plan) -> Some plan
  | _ -> None

(* Algorithm 1's schedule families, analysis only: the spatial-only
   schedule, then temporal slicing on the highest-priority dimension whose
   dependency chain simplifies (Table 3's △ analysis). A single
   operator's private serial loop (e.g. a GEMM's K loop) is below
   SMG-level slicing: even the spatial-only ablation variants keep it.
   Algorithm 1 declares an SMG without sliceable dims unschedulable for
   parallelization; for fused spaces that reduce to a scalar (no parallel
   dim can exist, e.g. a loss) we still emit the single-block schedule
   rather than fail — partitioning cannot create parallelism that the
   computation does not have. *)
let schedules ?(variant = full) ?stats smg =
  let stats = match stats with Some s -> s | None -> Cstats.create () in
  if not (Smg.consistent smg) then []
  else begin
    let spatial = Cstats.timed stats Cstats.Ss (fun () -> Analysis.spatial_dims smg) in
    let temporal =
      if variant.use_temporal || List.length (Smg.iter_spaces smg) = 1 then
        let rec try_dims = function
          | [] -> []
          | d :: rest -> (
              match Cstats.timed stats Cstats.Ts (fun () -> analyze_dim variant smg d) with
              | Some plan -> [ Schedule.make smg ~spatial ~temporal:(Some plan) ]
              | None -> try_dims rest)
        in
        try_dims
          (Cstats.timed stats Cstats.Ts (fun () -> Analysis.temporal_candidates smg ~spatial))
      else []
    in
    Schedule.make smg ~spatial ~temporal:None :: temporal
  end

let enumerate ?(variant = full) ?stats arch schedule ~name ~tensor_of =
  let stats = match stats with Some s -> s | None -> Cstats.create () in
  let cfgs =
    Cstats.timed stats Cstats.Enum (fun () ->
        if variant.use_tuning then feasible_cfgs arch schedule ~name ~tensor_of
        else expert_cfg variant arch schedule ~name ~tensor_of)
  in
  { schedule; cfgs }

let run ?variant ?stats arch smg ~name ~tensor_of =
  Obs.Trace.with_span "auto_schedule" @@ fun () ->
  List.filter_map
    (fun schedule ->
      match enumerate ?variant ?stats arch schedule ~name ~tensor_of with
      | { cfgs = []; _ } -> None
      | s -> Some s)
    (schedules ?variant ?stats smg)

let exists_feasible ?variant arch smg ~name ~tensor_of =
  List.exists
    (fun schedule ->
      let lower = Lower.lowerer schedule ~name ~tensor_of in
      List.exists
        (fun cfg -> feasible_with lower arch cfg ~name <> None)
        (Schedule.enum_cfgs schedule))
    (schedules ?variant smg)
