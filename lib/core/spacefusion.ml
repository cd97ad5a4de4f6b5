module G = Ir.Graph

type kernel_choice = {
  kc_kernel : Gpu.Kernel.t;
  kc_schedule : Schedule.t;
  kc_cfg : Schedule.cfg;
  kc_cost : float;
}

type compiled = {
  c_name : string;
  c_plan : Gpu.Plan.t;
  c_choices : kernel_choice list;
  c_stats : Cstats.t;
  c_smg : Smg.t;
}

exception Unschedulable of string

let raise_unschedulable msg = raise (Unschedulable msg)

module Error = struct
  type t =
    | Unschedulable of string
    | Unsupported of { backend : string; arch : string }

  (* The Unsupported text is the Invalid_argument message that [get]
     raises for a model run on an unsupported architecture, which tests
     pin. *)
  let to_string = function
    | Unschedulable msg -> "unschedulable: " ^ msg
    | Unsupported { backend; arch } -> Printf.sprintf "%s does not support %s" backend arch

  (* The one exception mapping for the whole pipeline. Every raising
     wrapper (Spacefusion.compile, Policy.compile) is [get] over its [_r]
     twin, and a caller of Model_runner.run_workload_r that wants an
     exception applies [get] itself — the mapping lives here and nowhere
     else. *)
  let raise_exn = function
    | Unschedulable msg -> raise_unschedulable msg
    | Unsupported _ as e -> invalid_arg (to_string e)

  let get = function Ok v -> v | Stdlib.Error e -> raise_exn e
end

let tensor_name ~name g node =
  let n = G.node g node in
  match n.kind with
  | G.Input s | G.Weight s -> s
  | _ -> (
      let rec out_index i = function
        | [] -> None
        | o :: _ when o = node -> Some i
        | _ :: rest -> out_index (i + 1) rest
      in
      match out_index 0 (G.outputs g) with
      | Some i -> Printf.sprintf "%s:out%d" name i
      | None -> Printf.sprintf "%s:t%d" name node)

(* Weakly-connected components of the compute nodes, where constants do not
   connect (a shared scalar constant is no reason to fuse). *)
let components g =
  let n = G.num_nodes g in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter
    (fun (node : G.node) ->
      List.iter
        (fun p ->
          match (G.node g p).kind with G.Const _ -> () | _ -> union node.id p)
        (G.preds node))
    (G.nodes g);
  let groups : (int, G.node_id list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (node : G.node) ->
      match node.kind with
      | G.Input _ | G.Weight _ | G.Const _ -> ()
      | _ ->
          let r = find node.id in
          Hashtbl.replace groups r (node.id :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    (G.nodes g);
  Hashtbl.fold (fun _ ns acc -> List.rev ns :: acc) groups []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

(* A sub-graph's structure, as the tuning-decision memo keys it: every
   node in id order with its kind, shape and operand ids, then the output
   ids. Each leaf's and output's tensor name becomes the index of that
   name's first occurrence among them, so pieces that differ only in
   names share a key while the pattern of nodes naming one tensor stays
   part of it. Const values, operators, axes and [trans_b] stay.
   [Partition.subgraph] numbers the nodes of equal pieces the same way. *)
let structure_key g tensor_of =
  let b = Buffer.create 256 in
  let names = Hashtbl.create 8 in
  let name nid =
    let t = tensor_of nid in
    let i =
      match Hashtbl.find_opt names t with
      | Some i -> i
      | None ->
          let i = Hashtbl.length names in
          Hashtbl.add names t i;
          i
    in
    Printf.bprintf b "$%d" i
  in
  List.iter
    (fun (n : G.node) ->
      (match n.kind with
      | G.Input _ -> Buffer.add_string b "I"; name n.id
      | G.Weight _ -> Buffer.add_string b "W"; name n.id
      | G.Const v -> Printf.bprintf b "C%h" v
      | G.Unary (op, a) -> Printf.bprintf b "U%s,%d" (Ir.Op.unop_to_string op) a
      | G.Binary (op, x, y) -> Printf.bprintf b "B%s,%d,%d" (Ir.Op.binop_to_string op) x y
      | G.Reduce { op; axis; keepdims; arg } ->
          Printf.bprintf b "R%s,%d,%b,%d" (Ir.Op.redop_to_string op) axis keepdims arg
      | G.Matmul { a; b = y; trans_b } -> Printf.bprintf b "M%d,%d,%b" a y trans_b);
      Array.iter (Printf.bprintf b ":%d") n.shape;
      Buffer.add_char b ';')
    (G.nodes g);
  List.iter (fun o -> Printf.bprintf b "O%d" o; name o) (G.outputs g);
  Buffer.contents b

(* One schedule family's tuning outcome: the schedule's position in
   [Auto_scheduler.schedules], the winning cfg and its cost, and how many
   candidates (costed and pruned) it was picked from. *)
type decision = { d_pos : int; d_cfg : Schedule.cfg; d_cost : float; d_candidates : int }

let declare_all device name_of g =
  List.iter
    (fun (n : G.node) ->
      match n.kind with
      | G.Const _ -> ()
      | _ -> Gpu.Device.declare device (name_of n.id) n.shape)
    (G.nodes g)

(* The raising implementation: [Unschedulable] is internal control flow of
   the recursive exploration (partition dead ends unwind through it), so
   the body raises and [compile_r] is the boundary that types the error. *)
let compile_impl ?(variant = Auto_scheduler.full) ?tensor_names ~arch ~name graph =
  Obs.Trace.with_span ~attrs:[ ("name", name); ("arch", arch.Gpu.Arch.name) ] "compile"
  @@ fun () ->
  let stats = Cstats.create () in
  let t_start = Unix.gettimeofday () in
  let name_of =
    match tensor_names with Some f -> f | None -> tensor_name ~name graph
  in
  (* Shape context for cost evaluation: every original tensor, declared up
     front and read-only from here on. *)
  let device = Gpu.Device.create () in
  declare_all device name_of graph;
  (* Kernel [j] is named [name.k<j>], [j] counting scheduled subgraphs in
     scheduling order. *)
  let kc = ref 0 in
  let kernel_name j = Printf.sprintf "%s.k%d" name j in
  (* Tuning decisions of this compile, by [structure_key]. Q, K and V
     projections, SwiGLU's gate and up GEMMs, and the partition pieces the
     §5.3 search reaches by several paths are tuned once; a later
     sub-graph of the same structure derives its schedules, lowers only
     the remembered cfgs under its own names and kernel name, and takes
     the remembered costs. Exact because the tuner's costs depend on
     tensor names not at all ([Tuner.kernel_cost]). The table lives for
     this compile only. *)
  let decisions : (string, decision list) Hashtbl.t = Hashtbl.create 32 in
  let tune smg ~key ~kname ~tensor_of =
    let choice schedule d kernel =
      { kc_kernel = kernel; kc_schedule = schedule; kc_cfg = d.d_cfg; kc_cost = d.d_cost }
    in
    match Hashtbl.find_opt decisions key with
    | Some ds ->
        Obs.Trace.with_span "auto_schedule" @@ fun () ->
        let schedules = Auto_scheduler.schedules ~variant ~stats smg in
        List.map
          (fun d ->
            stats.Cstats.n_reused <- stats.Cstats.n_reused + d.d_candidates;
            let schedule = List.nth schedules d.d_pos in
            match
              Cstats.timed stats Cstats.Enum (fun () ->
                  Auto_scheduler.feasible arch schedule d.d_cfg ~name:kname ~tensor_of)
            with
            | Some kernel -> choice schedule d kernel
            | None ->
                failwith
                  (Printf.sprintf "Spacefusion: %s: remembered %s no longer lowers" kname
                     (Schedule.cfg_to_string d.d_cfg)))
          ds
    | None ->
        let enumerated =
          Obs.Trace.with_span "auto_schedule" (fun () ->
              List.map
                (fun schedule ->
                  Auto_scheduler.enumerate ~variant ~stats arch schedule ~name:kname ~tensor_of)
                (Auto_scheduler.schedules ~variant ~stats smg))
        in
        let picks =
          List.concat
            (List.mapi
               (fun pos (sched : Auto_scheduler.scheduled) ->
                 match Tuner.pick_best ~stats arch device [ sched ] with
                 | None -> []
                 | Some (schedule, cfg, kernel, cost) ->
                     let d =
                       { d_pos = pos; d_cfg = cfg; d_cost = cost;
                         d_candidates = List.length sched.cfgs }
                     in
                     [ (choice schedule d kernel, d) ])
               enumerated)
        in
        Hashtbl.replace decisions key (List.map snd picks);
        List.map fst picks
  in
  (* Per-kernel CPU dispatch overhead, so candidate plans with more kernels
     pay for their extra launches in the comparison. *)
  let dispatch_cost = 3.0e-6 in
  (* Candidate plans are compared the way they will run: kernels in order,
     sharing one L2 residency state (a split plan's consumer kernel hits the
     producer's output in cache), plus per-launch dispatch. *)
  let plan_cost ks =
    let cache = Gpu.Cost.fresh_cache arch in
    List.fold_left
      (fun acc c ->
        let stats = Gpu.Exec.run ~mode:Gpu.Exec.Analytic device c.kc_kernel in
        acc +. (Gpu.Cost.kernel_time arch cache stats).Gpu.Cost.time +. dispatch_cost)
      0.0 ks
  in
  (* The cheapest candidate plan, each costed once; of equal-cost plans the
     earliest wins. *)
  let best_of = function
    | [] -> assert false
    | c :: rest ->
        fst
          (List.fold_left
             (fun (best, best_cost) c ->
               let cost = plan_cost c in
               if cost < best_cost then (c, cost) else (best, best_cost))
             (c, plan_cost c) rest)
  in
  (* Schedule one (sub)graph. The slicing state (Algorithm 1) yields the
     fused candidate; the partitioning state (Algorithm 2 / §5.3) yields
     split candidates — on unschedulable SMGs out of necessity, and on
     schedulable ones as alternative candidate schedules that the tuner
     arbitrates (this is what rejects e.g. wide-MLP fusion as unprofitable
     rather than infeasible).

     Each level returns a small beam — the best fused plan and the best
     split plan — because kernels couple through the L2 model: a locally
     second-best sub-plan can compose into the globally cheapest plan.
     Memoized on the original-node subset: the recursive exploration
     revisits the same sub-SMG prefixes many times. *)
  let rec schedule_graph ~memo g orig =
    let key =
      Ir.Graph.nodes g
      |> List.filter_map (fun (n : G.node) ->
             match n.kind with
             | G.Input _ | G.Weight _ | G.Const _ -> None
             | _ -> Some (string_of_int (orig n.id)))
      |> String.concat ","
    in
    match Hashtbl.find_opt memo key with
    | Some ks -> ks
    | None ->
        let ks = schedule_graph_uncached ~memo g orig in
        Hashtbl.replace memo key ks;
        ks

  and schedule_graph_uncached ~memo g orig =
    let tensor_of nid = name_of (orig nid) in
    (* Disconnected fusion groups (no shared tensors at all) have no common
       spatial dimension: schedule each weakly-connected component on its
       own, in order. Each gets a fresh memo table, so its kernel numbering
       depends only on the component, not on which of its sub-SMGs the
       enclosing exploration already visited. Components sharing only a
       kernel input stay together (split-K style fusion of sibling
       projections can profit from the shared stream). *)
    match components g with
    | _ :: _ :: _ as comps ->
        [
          List.concat_map
            (fun comp ->
              let part = Partition.subgraph g ~keep:comp ~name_of:tensor_of in
              best_of
                (schedule_graph ~memo:(Hashtbl.create 16) part.Partition.part_graph
                   (fun nid -> orig (part.Partition.part_orig nid))))
            comps;
        ]
    | _ -> schedule_connected ~memo g orig

  and schedule_connected ~memo g orig =
    let tensor_of nid = name_of (orig nid) in
    let smg = Obs.Trace.with_span "build" (fun () -> Smg.build g) in
    let kname = kernel_name !kc in
    incr kc;
    let fused =
      (* One beam candidate per schedule family (spatial-only, temporal):
         the tuner's per-kernel metric cannot anticipate cross-kernel cache
         effects, so composition must get to weigh both. *)
      match tune smg ~key:(structure_key g tensor_of) ~kname ~tensor_of with
      | [] -> None
      | l -> Some (List.map (fun c -> [ c ]) l)
    in
    let compose (gf : Partition.part) (gl : Partition.part option) =
      (* Cartesian product of the two sides' beams. *)
      let fs =
        schedule_graph ~memo gf.Partition.part_graph
          (fun nid -> orig (gf.Partition.part_orig nid))
      in
      let ls =
        match gl with
        | None -> [ [] ]
        | Some gl ->
            schedule_graph ~memo gl.Partition.part_graph
              (fun nid -> orig (gl.Partition.part_orig nid))
      in
      List.concat_map (fun f -> List.map (fun l -> f @ l) ls) fs
    in
    let split =
      if List.length (Partition.segments g) < 2 then None
      else begin
        let name_of nid = tensor_of nid in
        let candidates =
          match fused with
          | Some _ ->
              (* Schedulable: offer the §5.3 alternative splits; recursion
                 explores deeper boundaries. *)
              List.map (fun (gf, gl) -> (gf, Some gl)) (Partition.peel_candidates g ~name_of)
          | None -> (
              (* Unschedulable: Algorithm 2 finds the largest schedulable
                 prefix. *)
              let schedulable g' =
                Auto_scheduler.exists_feasible ~variant arch (Smg.build g') ~name:kname
                  ~tensor_of:name_of
              in
              match Partition.round g ~name_of ~schedulable with
              | Error msg -> raise (Unschedulable (Printf.sprintf "%s: %s" name msg))
              | Ok candidates -> List.filter (fun (_, glopt) -> glopt <> None) candidates)
        in
        if candidates <> [] then stats.Cstats.n_partitions <- stats.Cstats.n_partitions + 1;
        let plans =
          List.concat_map
            (fun (gf, glopt) ->
              match compose gf glopt with
              | exception Unschedulable _ when fused <> None -> []
              | ps -> ps)
            candidates
        in
        match plans with [] -> None | p :: rest -> Some (best_of (p :: rest))
      end
    in
    (match (fused, split) with
    | Some kfs, Some ksplit ->
        Log.debug (fun m ->
            let kf = best_of kfs in
            m "[%s] %d nodes: fused(%d kernels)=%.2fus vs split(%d)=%.2fus" kname
              (G.num_nodes g) (List.length kf) (plan_cost kf *. 1e6) (List.length ksplit)
              (plan_cost ksplit *. 1e6))
    | _ -> ());
    match (fused, split) with
    | None, None ->
        Log.debug (fun m -> m "[%s] dead end on graph:@.%a" kname G.pp g);
        raise (Unschedulable (Printf.sprintf "%s: no lowerable configuration" kname))
    | Some ks, None -> ks
    | None, Some ks -> [ ks ]
    | Some kfs, Some ksplit -> kfs @ [ ksplit ]
  in
  let smg = Obs.Trace.with_span "build" (fun () -> Smg.build graph) in
  let choices =
    let candidates =
      Obs.Trace.with_span "schedule" (fun () ->
          schedule_graph ~memo:(Hashtbl.create 32) graph (fun nid -> nid))
    in
    Obs.Trace.with_span "select" (fun () -> best_of candidates)
  in
  stats.Cstats.t_total <- Unix.gettimeofday () -. t_start;
  Cstats.publish stats;
  let decls =
    List.filter_map
      (fun (n : G.node) ->
        match n.kind with G.Const _ -> None | _ -> Some (name_of n.id, n.shape))
      (G.nodes graph)
  in
  {
    c_name = name;
    c_plan = Gpu.Plan.make ~name ~kernels:(List.map (fun c -> c.kc_kernel) choices) ~decls;
    c_choices = choices;
    c_stats = stats;
    c_smg = smg;
  }

let compile_r ?variant ?tensor_names ~arch ~name graph =
  match compile_impl ?variant ?tensor_names ~arch ~name graph with
  | c -> Ok c
  | exception Unschedulable msg -> Result.Error (Error.Unschedulable msg)

let compile ?variant ?tensor_names ~arch ~name graph =
  Error.get (compile_r ?variant ?tensor_names ~arch ~name graph)

let output_names c =
  List.mapi (fun i _ -> Printf.sprintf "%s:out%d" c.c_name i) (G.outputs (Smg.graph c.c_smg))
