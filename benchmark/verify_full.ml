(* verify_full: the differential oracle path. SpaceFusion plans for the
   four subprograms of a Bert-style layer and the five Fig 10 subgraphs
   are compiled during setup; each pass runs Runtime.Verify.verify_plan
   on every plan with its default seeds. Gpu.Exec Full, the tensor
   kernels and Ir.Interp do all the work; Core and Serve do none.

   The layer is Bert's at hidden 256 (FFN 1024, 4 heads, 64 tokens), not
   768. Full-size weights (19 MB per FFN matrix in float64) made a pass
   bound by memory bandwidth: a process streaming memory on the other
   vCPU slowed a full-size pass by a quarter and left this one as fast. *)

let arch = Gpu.Arch.ampere

type subject = { name : string; graph : Ir.Graph.t; plan : Gpu.Plan.t }

type state = {
  subjects : subject list;
  setup_cfgs_considered : float;  (* costed + pruned: the split varies with two tuner domains *)
}

let graphs () =
  let m = 64 and hidden = 256 in
  [
    ("layer.qkv_proj", Ir.Models.qkv_proj ~m ~hidden);
    ("layer.mha", Ir.Models.mha ~batch_heads:4 ~seq_q:m ~seq_kv:m ~head_dim:64 ());
    ("layer.attn_out_ln", Ir.Models.attn_out_ln ~m ~hidden ~norm:`Layernorm);
    ("layer.ffn_ln", Ir.Models.ffn_ln ~m ~hidden ~ffn:1024 ~act:`Gelu ~norm:`Layernorm);
    ("ln", Ir.Models.layernorm_graph ~m:256 ~n:256);
    ("mha", Ir.Models.mha ~batch_heads:12 ~seq_q:128 ~seq_kv:128 ~head_dim:64 ());
    ("mlp", Ir.Models.mlp ~layers:4 ~m:128 ~n:128 ~k:128);
    ("sm-gemm", Ir.Models.softmax_gemm ~m:128 ~l:128 ~n:64);
    ("lstm", Ir.Models.lstm_cell ~m:64 ~hidden:128 ~input:128);
  ]

let setup ~seed:_ ~quick:_ =
  let before = Probe.snapshot () in
  let subjects =
    List.map
      (fun (name, graph) ->
        match Backends.Policy.compile_r Backends.Baselines.spacefusion arch ~name graph with
        | Ok plan -> { name; graph; plan }
        | Error e -> failwith (name ^ ": " ^ Core.Spacefusion.Error.to_string e))
      (graphs ())
  in
  let after = Probe.snapshot () in
  {
    subjects;
    setup_cfgs_considered = Probe.delta before after "tuner.costed" +. Probe.delta before after "tuner.pruned";
  }

let kernels st = List.fold_left (fun a s -> a + Gpu.Plan.num_kernels s.plan) 0 st.subjects

let picks_md5 st =
  st.subjects
  |> List.map (fun s -> s.name ^ Obs.Json.to_string (Store.Codec.plan_to_json s.plan))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let measure st tally ~seconds ~traced:_ =
  let t0 = Probe.now () in
  let rec loop acc =
    let (), dt =
      Probe.timed (fun () ->
          List.iter
            (fun s ->
              match Runtime.Verify.verify_plan ~arch ~name:s.name s.graph s.plan with
              | Ok () -> Window.check tally true (lazy "")
              | Error e -> Window.check tally false (lazy e))
            st.subjects)
    in
    let acc = dt :: acc in
    if Probe.now () -. t0 < seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let ms = List.map (fun s -> s *. 1e3) passes in
  let plans = float_of_int (List.length st.subjects) in
  {
    Window.ops = List.length passes;
    p50_ms = Window.of_samples ms;
    ops_per_s = Window.of_samples (List.map (fun s -> plans /. s) passes);
    exact =
      [
        ("picks_md5", Obs.Json.Str (picks_md5 st));
        ("setup_cfgs_considered", Obs.Json.Num st.setup_cfgs_considered);
        ("kernels", Obs.Json.Num (float_of_int (kernels st)));
      ];
  }

let post_check _ _ = ()

(* One pass taken apart at the layer boundaries verify_plan crosses:
   the reference interpreter, then the plan's Full walk, per seed. *)
let layers st =
  List.iter
    (fun s ->
      List.iter
        (fun seed ->
          let env, _ =
            Probe.span "ir.interp" (fun () ->
                let env = Ir.Interp.random_env ~seed s.graph in
                (env, Ir.Interp.eval s.graph env))
          in
          let device = Gpu.Device.create () in
          Gpu.Plan.declare_all s.plan device;
          List.iter (fun (n, t) -> Gpu.Device.bind device n t) env;
          Replay.full ~arch device s.plan)
        Runtime.Verify.default_seeds)
    st.subjects;
  [
    ("ir.interp_s", Probe.span_total "ir.interp");
    ("gpu.full_s", Probe.span_total "gpu.full");
    ("gpu.full_blocks", Probe.span_total "gpu.full_blocks");
    ("core.kernels", float_of_int (kernels st));
  ]

let teardown _ = ()
