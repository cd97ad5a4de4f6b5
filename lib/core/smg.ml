module G = Ir.Graph

type space_kind = Data | Iter

type space = {
  sid : int;
  label : string;
  kind : space_kind;
  node : G.node_id;
  sdims : int list;
}

type mapping_kind = O2O | O2A | A2O of Ir.Op.redop

type mapping = { msrc : int; mdst : int; mkind : mapping_kind; mdims : int list }

type t = {
  graph : G.t;
  fs : Fusedspace.t;
  spaces : space array;
  mappings : mapping list;
  data_of : (G.node_id, int) Hashtbl.t;
}

let diff a b = List.filter (fun d -> not (List.mem d b)) a

let node_label g (n : G.node) =
  match n.G.kind with
  | G.Input name | G.Weight name -> name
  | G.Const v -> Printf.sprintf "const%g" v
  | _ -> Printf.sprintf "%%%d" n.G.id |> fun s -> ignore g; s

let build graph =
  let fs = Fusedspace.infer graph in
  let spaces = ref [] in
  let mappings = ref [] in
  let data_of = Hashtbl.create 32 in
  let next = ref 0 in
  let add_space label kind node sdims =
    let s = { sid = !next; label; kind; node; sdims } in
    incr next;
    spaces := s :: !spaces;
    s.sid
  in
  List.iter
    (fun (n : G.node) ->
      let vdims = Fusedspace.node_dims fs n.G.id in
      match n.G.kind with
      | G.Input _ | G.Weight _ | G.Const _ ->
          let sid = add_space (node_label graph n) Data n.G.id vdims in
          Hashtbl.replace data_of n.G.id sid
      | _ ->
          let idims = Fusedspace.iter_dims fs n.G.id in
          let iter_sid = add_space (G.kind_to_string n.G.kind) Iter n.G.id idims in
          (* Input mappings: predecessor data spaces into the iteration
             space. Missing dims mean the operand is reused along them. *)
          List.iter
            (fun p ->
              let psid = Hashtbl.find data_of p in
              let pdims = Fusedspace.node_dims fs p in
              let dir = diff idims pdims in
              let mkind = if dir = [] then O2O else O2A in
              mappings := { msrc = psid; mdst = iter_sid; mkind; mdims = dir } :: !mappings)
            (G.preds n);
          (* Output mapping: reduction dims collapse All-to-One. *)
          let out_sid = add_space (node_label graph n) Data n.G.id vdims in
          Hashtbl.replace data_of n.G.id out_sid;
          let dir = diff idims vdims in
          let mkind =
            if dir = [] then O2O
            else
              match n.G.kind with
              | G.Matmul _ -> A2O Ir.Op.Rsum
              | G.Reduce { op; _ } -> A2O op
              | _ -> A2O Ir.Op.Rsum
          in
          mappings := { msrc = iter_sid; mdst = out_sid; mkind; mdims = dir } :: !mappings)
    (G.nodes graph);
  {
    graph;
    fs;
    spaces = Array.of_list (List.rev !spaces);
    mappings = List.rev !mappings;
    data_of;
  }

let graph t = t.graph
let fused t = t.fs
let spaces t = Array.to_list t.spaces
let mappings t = t.mappings
let space t sid = t.spaces.(sid)
let data_space t node = t.spaces.(Hashtbl.find t.data_of node)

let is_input_space t s =
  s.kind = Data
  &&
  match (G.node t.graph s.node).G.kind with
  | G.Input _ | G.Weight _ | G.Const _ -> true
  | _ -> false

let mappings_along t d = List.filter (fun m -> List.mem d m.mdims) t.mappings

let iter_spaces t = List.filter (fun s -> s.kind = Iter) (spaces t)

let data_volume_along t d =
  List.fold_left
    (fun acc s ->
      if s.kind = Data && List.mem d s.sdims then
        acc + List.fold_left (fun v dd -> v * Fusedspace.dim_extent t.fs dd) 1 s.sdims
      else acc)
    0 (spaces t)

let num_a2o t =
  List.length (List.filter (fun m -> match m.mkind with A2O _ -> true | _ -> false) t.mappings)

let mapping_to_string t m =
  let dims ds = String.concat "," (List.map (Fusedspace.dim_name t.fs) ds) in
  let kind =
    match m.mkind with
    | O2O -> "O2O"
    | O2A -> Printf.sprintf "O2A(%s)" (dims m.mdims)
    | A2O op -> Printf.sprintf "A2O_%s(%s)" (Ir.Op.redop_to_string op) (dims m.mdims)
  in
  Printf.sprintf "%s -> %s : %s" t.spaces.(m.msrc).label t.spaces.(m.mdst).label kind

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@,spaces:@," Fusedspace.pp t.fs;
  Array.iter
    (fun s ->
      Format.fprintf fmt "  [%d] %s %s (%s)@," s.sid
        (match s.kind with Data -> "data" | Iter -> "iter")
        s.label
        (String.concat "," (List.map (Fusedspace.dim_name t.fs) s.sdims)))
    t.spaces;
  Format.fprintf fmt "mappings:@,";
  List.iter (fun m -> Format.fprintf fmt "  %s@," (mapping_to_string t m)) t.mappings;
  Format.fprintf fmt "@]"

let consistent t =
  (* Per-axis dimension assignment cannot express an index used in two
     roles: (a) a tensor axis may carry each fused dim at most once (a
     self-product like x·xᵀ would give its output two identical dims), and
     (b) a contraction dim must not leak into the contracting node's own
     value (an element-wise reuse of a GEMM input downstream of the GEMM can
     unify k with an output dim). Inconsistent SMGs are unschedulable as a
     whole and must be partitioned. *)
  List.for_all
    (fun (n : G.node) ->
      let fs = t.fs in
      let axis_dims =
        List.filter_map
          (fun i -> Fusedspace.axis_dim fs n.G.id i)
          (List.init (Array.length n.G.shape) (fun i -> i))
      in
      List.length axis_dims = List.length (List.sort_uniq compare axis_dims)
      &&
      match n.G.kind with
      | G.Matmul _ | G.Reduce _ -> (
          match Fusedspace.contraction_dim fs n.G.id with
          | Some d -> not (List.mem d (Fusedspace.node_dims fs n.G.id))
          | None -> true)
      | _ -> true)
    (G.nodes t.graph)
