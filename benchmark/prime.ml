(* OCaml 5 raises CamlinternalLazy.Undefined when two domains force the
   same unforced lazy at once. The libraries keep their metric handles in
   module-level lazies whose first force can happen on tuner helper
   domains (lower.calls, lower.unlowerable) or on serve workers (the
   arena, run.* and cache.* handles). On a 2-vCPU host, 3 of 14
   fresh-process Llama2-7B compiles with two tuner domains crashed this
   way. Running each path once, serially, on the main domain before
   anything runs in parallel forces them all. *)

let run () =
  ignore (Tensor.Arena.create ());
  let dir = Probe.fresh_dir "sfbench-prime" in
  Fun.protect ~finally:(fun () -> Probe.remove_tree dir) @@ fun () ->
  Core.Parallel.with_jobs 1 (fun () ->
      let cache = Runtime.Plan_cache.create ~store:(Store.Plan_store.open_ dir) () in
      (* SwiGLU's tuner meets unlowerable configurations, which forces
         lower.unlowerable (Llama2's FFN does, on helper domains). *)
      let model =
        {
          Ir.Models.model_name = "prime";
          subprograms =
            [
              { Ir.Models.sp_name = "ln"; graph = Ir.Models.layernorm_graph ~m:12 ~n:32; count = 1 };
              { Ir.Models.sp_name = "ffn"; graph = Ir.Models.swiglu_ffn ~m:16 ~hidden:64 ~ffn:128; count = 1 };
            ];
        }
      in
      let w =
        Runtime.Workload.make ~shapes:Runtime.Shape_class.Pow2 ~arch:Gpu.Arch.ampere
          Backends.Baselines.spacefusion model
      in
      (* A guard miss that compiles, stores and runs functionally, then a
         warm class hit on the analytic fast path. *)
      for _ = 1 to 2 do
        match Runtime.Model_runner.run_workload_r ~cache ~functional:`Auto w with
        | Ok _ -> ()
        | Error e -> failwith ("prime: " ^ Core.Spacefusion.Error.to_string e)
      done)
