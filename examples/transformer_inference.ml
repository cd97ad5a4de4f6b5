(* End-to-end Transformer inference across backends and architectures
   (a miniature of the paper's Fig 14).

     dune exec examples/transformer_inference.exe *)

let () =
  let batch = 8 and seq = 256 in
  let model = Ir.Models.bert ~batch ~seq in
  Printf.printf "Model: %s (batch %d, seq %d) — %d distinct subprograms, %d executed subgraphs\n\n"
    model.Ir.Models.model_name batch seq
    (List.length model.Ir.Models.subprograms)
    (Ir.Models.total_subgraphs model);
  List.iter
    (fun arch ->
      Printf.printf "-- %s --\n" arch.Gpu.Arch.name;
      let base = ref None in
      List.iter
        (fun (b : Backends.Policy.t) ->
          if Runtime.Model_runner.supported ~arch b then begin
            let r =
              Core.Spacefusion.Error.get
                (Runtime.Model_runner.run_workload_r (Runtime.Workload.make ~arch b model))
            in
            let su =
              match !base with
              | None ->
                  base := Some r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time;
                  1.0
              | Some t -> t /. r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time
            in
            Printf.printf "  %s  %5.2fx\n" (Format.asprintf "%a" Runtime.Model_runner.pp r) su
          end)
        Backends.Baselines.
          [ pytorch; cublaslt; bladedisc; nnfusion; tensorrt; kernl; spacefusion ])
    Gpu.Arch.all;
  (* The subprograms a backend compiles are interchangeable plans over
     global tensors, so the fused model is verifiable piecewise. *)
  print_endline "\nverifying every Bert subprogram (SpaceFusion vs reference):";
  List.iter
    (fun (sp : Ir.Models.subprogram) ->
      (* Miniature shapes keep functional execution quick. *)
      let mini =
        match sp.sp_name with
        | "mha" -> Ir.Models.mha ~batch_heads:4 ~seq_q:16 ~seq_kv:16 ~head_dim:8 ()
        | "qkv_proj" -> Ir.Models.qkv_proj ~m:16 ~hidden:32
        | "attn_out_ln" -> Ir.Models.attn_out_ln ~m:16 ~hidden:32 ~norm:`Layernorm
        | _ -> Ir.Models.ffn_ln ~m:16 ~hidden:32 ~ffn:64 ~act:`Gelu ~norm:`Layernorm
      in
      match
        Runtime.Verify.verify_backend ~arch:Gpu.Arch.ampere ~name:sp.sp_name
          Backends.Baselines.spacefusion mini
      with
      | Ok () -> Printf.printf "  %-12s OK\n" sp.sp_name
      | Error m -> failwith m)
    model.Ir.Models.subprograms
