module G = Ir.Graph
module Op = Ir.Op

type t = {
  be_name : string;
  dispatch_us : float;
  supports : Gpu.Arch.t -> bool;
  compile : Gpu.Arch.t -> name:string -> Ir.Graph.t -> Gpu.Plan.t;
}

let compile_r p arch ~name g =
  if not (p.supports arch) then
    Error
      (Core.Spacefusion.Error.Unsupported
         { backend = p.be_name; arch = arch.Gpu.Arch.name })
  else
    match p.compile arch ~name g with
    | plan -> Ok plan
    | exception Core.Spacefusion.Unschedulable msg ->
        Error (Core.Spacefusion.Error.Unschedulable msg)

let compute_nodes g =
  List.filter_map
    (fun (n : G.node) ->
      match n.kind with G.Input _ | G.Weight _ | G.Const _ -> None | _ -> Some n.id)
    (G.nodes g)

let compile_groups ?variant arch ~name g groups =
  let global_name = Core.Spacefusion.tensor_name ~name g in
  let kernels = ref [] and decls = ref [] in
  List.iteri
    (fun i group ->
      let part = Core.Partition.subgraph g ~keep:group ~name_of:global_name in
      let tensor_names nid = global_name (part.Core.Partition.part_orig nid) in
      let compiled =
        Core.Spacefusion.compile ?variant ~tensor_names ~arch
          ~name:(Printf.sprintf "%s.g%d" name i)
          part.Core.Partition.part_graph
      in
      kernels := !kernels @ compiled.Core.Spacefusion.c_plan.Gpu.Plan.p_kernels;
      decls := !decls @ compiled.Core.Spacefusion.c_plan.Gpu.Plan.p_decls)
    groups;
  (* Deduplicate declarations (cut tensors appear in several groups). *)
  let seen = Hashtbl.create 16 in
  let decls =
    List.filter
      (fun (n, _) ->
        if Hashtbl.mem seen n then false
        else begin
          Hashtbl.replace seen n ();
          true
        end)
      !decls
  in
  Gpu.Plan.make ~name ~kernels:!kernels ~decls

let singletons g = List.map (fun n -> [ n ]) (compute_nodes g)

let epilogue_groups ?(max_epilogue = 2) g =
  (* Group id per compute node; a GEMM opens a group that may absorb up to
     [max_epilogue] subsequent element-wise consumers. *)
  let assignment : (G.node_id, int) Hashtbl.t = Hashtbl.create 16 in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let is_gemm_group : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let fresh gemm =
    let id = !next in
    incr next;
    Hashtbl.replace sizes id 0;
    Hashtbl.replace is_gemm_group id gemm;
    id
  in
  List.iter
    (fun nid ->
      let n = G.node g nid in
      let gid =
        match n.kind with
        | G.Matmul _ -> fresh true
        | _ when G.is_elementwise n.kind -> (
            (* Join the latest producing GEMM group if it still has epilogue
               room; otherwise run eagerly. *)
            let pred_groups =
              List.filter_map (fun p -> Hashtbl.find_opt assignment p) (G.preds n)
            in
            match List.fold_left (fun acc p -> max acc p) (-1) pred_groups with
            | -1 -> fresh false
            | gid
              when Hashtbl.find is_gemm_group gid && Hashtbl.find sizes gid < max_epilogue ->
                Hashtbl.replace sizes gid (Hashtbl.find sizes gid + 1);
                gid
            | _ -> fresh false)
        | _ -> fresh false
      in
      Hashtbl.replace assignment nid gid)
    (compute_nodes g);
  let groups = Hashtbl.create 16 in
  List.iter
    (fun nid ->
      let gid = Hashtbl.find assignment nid in
      Hashtbl.replace groups gid (nid :: Option.value ~default:[] (Hashtbl.find_opt groups gid)))
    (compute_nodes g);
  List.init !next (fun gid ->
      match Hashtbl.find_opt groups gid with Some ns -> List.rev ns | None -> [])
  |> List.filter (fun ns -> ns <> [])

let mi_runs g =
  let segs = ref [] and run = ref [] in
  let flush () =
    if !run <> [] then begin
      segs := List.rev !run :: !segs;
      run := []
    end
  in
  List.iter
    (fun nid ->
      match (G.node g nid).kind with
      | G.Matmul _ ->
          flush ();
          segs := [ nid ] :: !segs
      | _ -> run := nid :: !run)
    (compute_nodes g);
  flush ();
  List.rev !segs

let count_kind g pred = List.length (List.filter (fun n -> pred (G.node g n).G.kind) (compute_nodes g))

let is_mha_like g =
  let matmuls = count_kind g (function G.Matmul _ -> true | _ -> false) in
  let maxes = count_kind g (function G.Reduce { op = Op.Rmax; _ } -> true | _ -> false) in
  let exps = count_kind g (function G.Unary (Op.Exp, _) -> true | _ -> false) in
  let sums = count_kind g (function G.Reduce { op = Op.Rsum; _ } -> true | _ -> false) in
  matmuls >= 2 && maxes >= 1 && exps >= 1 && sums >= 1

let is_norm_like g =
  let matmuls = count_kind g (function G.Matmul _ -> true | _ -> false) in
  let means = count_kind g (function G.Reduce { op = Op.Rmean; _ } -> true | _ -> false) in
  let sqrs = count_kind g (function G.Unary (Op.Sqr, _) -> true | _ -> false) in
  let sqrts = count_kind g (function G.Unary (Op.Sqrt, _) -> true | _ -> false) in
  matmuls = 0 && means >= 1 && sqrs >= 1 && sqrts >= 1
