(* Differential oracle: three evaluators cross-check each other.

   - Interp vs Full execution (via Runtime.Verify) catches semantic bugs:
     wrong schedules, bad lowering, broken tile arithmetic.
   - Full vs Analytic counters catch accounting bugs: both walks traverse
     the same kernel, so every flop/byte counter must agree in closed form
     and by accumulation, including ragged edge blocks and temporal
     remainders.

   Any exception out of compile or either walk is itself a divergence. *)

let counters_agree ~name (f : Gpu.Exec.kstats) (a : Gpu.Exec.kstats) =
  let err fmt =
    Printf.ksprintf
      (fun m -> Error (Printf.sprintf "%s/%s: %s (full vs analytic)" name f.ks_name m))
      fmt
  in
  if f.ks_blocks <> a.ks_blocks then err "blocks %d <> %d" f.ks_blocks a.ks_blocks
  else if f.ks_steps <> a.ks_steps then err "steps %d <> %d" f.ks_steps a.ks_steps
  else if f.ks_gemm_flops <> a.ks_gemm_flops then
    err "gemm flops %.17g <> %.17g" f.ks_gemm_flops a.ks_gemm_flops
  else if f.ks_simd_flops <> a.ks_simd_flops then
    err "simd flops %.17g <> %.17g" f.ks_simd_flops a.ks_simd_flops
  else if f.ks_moved_bytes <> a.ks_moved_bytes then
    err "moved bytes %.17g <> %.17g" f.ks_moved_bytes a.ks_moved_bytes
  else Ok ()

let check_counters ?(seed = 42) ~arch ~name graph (plan : Gpu.Plan.t) =
  let env = Ir.Interp.random_env ~seed graph in
  let dev_full = Gpu.Device.create () and dev_ana = Gpu.Device.create () in
  Gpu.Plan.declare_all plan dev_full;
  Gpu.Plan.declare_all plan dev_ana;
  List.iter
    (fun (n, t) ->
      Gpu.Device.bind dev_full n t;
      Gpu.Device.bind dev_ana n t)
    env;
  let rec go = function
    | [] -> Ok ()
    | (k : Gpu.Kernel.t) :: rest -> (
        match
          ( Gpu.Exec.run ~mode:Gpu.Exec.Full ~arch dev_full k,
            Gpu.Exec.run ~mode:Gpu.Exec.Analytic ~arch dev_ana k )
        with
        | exception e ->
            Error
              (Printf.sprintf "%s/%s: counter walk failed (seed %d): %s" name k.kname seed
                 (Printexc.to_string e))
        | f, a -> ( match counters_agree ~name f a with Ok () -> go rest | Error _ as e -> e))
  in
  go plan.Gpu.Plan.p_kernels

let check_plan ?(seeds = Runtime.Verify.default_seeds) ~arch ~name graph plan =
  match Runtime.Verify.verify_plan ~seeds ~arch ~name graph plan with
  | Error _ as e -> e
  | Ok () ->
      let seed = match seeds with s :: _ -> s | [] -> 42 in
      check_counters ~seed ~arch ~name graph plan

let check ?seeds ~arch ?(name = "check") (backend : Backends.Policy.t) graph =
  match Backends.Policy.compile_r backend arch ~name graph with
  | Ok plan -> check_plan ?seeds ~arch ~name graph plan
  | Error e ->
      Error
        (Printf.sprintf "%s/%s: compile failed: %s" backend.Backends.Policy.be_name name
           (Core.Spacefusion.Error.to_string e))
  | exception e ->
      (* Typed errors cover the expected failures; anything else escaping a
         backend is itself a divergence worth reporting, not a crash. *)
      Error
        (Printf.sprintf "%s/%s: compile raised: %s" backend.Backends.Policy.be_name name
           (Printexc.to_string e))
