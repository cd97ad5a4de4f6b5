(* Trace-based random graph generator for differential testing.

   A graph is built from a [t] (a trace): an input shape plus a list of
   entries, each naming its operands by index into the pool of live values
   modulo the pool size. Because operand references are always reduced
   modulo the current pool, any sublist of entries still builds a
   well-typed graph — which is what makes greedy shrinking structurally
   safe: dropping an entry, shrinking a dimension or simplifying an op
   yields another valid trace, never a dangling reference. *)

module G = Ir.Graph
module Op = Ir.Op

type kind =
  | KUnary of Op.unop
  | KBinary of Op.binop
  | KRowReduce of Op.redop
  | KColReduce of Op.redop
  | KMatmul of { mm_out : int; mm_trans : bool }
  | KVecScale of Op.binop
  | KSoftmax

type entry = { e_src : int; e_alt : int; e_kind : kind }
type t = { g_rows : int; g_cols : int; g_entries : entry list }
type spec = { sp_nodes : int; sp_seed : int }

let spec_to_string s = Printf.sprintf "{nodes=%d; seed=%d}" s.sp_nodes s.sp_seed

let kind_to_string = function
  | KUnary op -> Op.unop_to_string op
  | KBinary op -> Op.binop_to_string op
  | KRowReduce op -> "row-" ^ Op.redop_to_string op
  | KColReduce op -> "col-" ^ Op.redop_to_string op
  | KMatmul { mm_out; mm_trans } ->
      Printf.sprintf "matmul[out=%d%s]" mm_out (if mm_trans then ",T" else "")
  | KVecScale op -> "vec-" ^ Op.binop_to_string op
  | KSoftmax -> "softmax"

let to_string t =
  Printf.sprintf "[%dx%d] %s" t.g_rows t.g_cols
    (String.concat "; "
       (List.map
          (fun e -> Printf.sprintf "%s(#%d,#%d)" (kind_to_string e.e_kind) e.e_src e.e_alt)
          t.g_entries))

(* Ops that keep values in a tame range for float comparison. *)
let safe_unops = [| Op.Relu; Op.Tanh; Op.Sigmoid; Op.Neg; Op.Sqr; Op.Exp |]
let safe_binops = [| Op.Add; Op.Sub; Op.Mul; Op.Max; Op.Min |]
let redops = [| Op.Rsum; Op.Rmax; Op.Rmean; Op.Rmin |]
let dims = [| 2; 3; 4; 5; 8 |]

let trace_of_spec { sp_nodes; sp_seed } =
  let rng = Rng.create sp_seed in
  let int lo hi =
    lo + (Int64.to_int (Rng.next_int64 rng) land max_int) mod (hi - lo + 1)
  in
  let pick arr = arr.(int 0 (Array.length arr - 1)) in
  let g_rows = pick dims and g_cols = pick dims in
  let entries =
    List.init sp_nodes (fun _ ->
        let e_src = int 0 1_000_000 and e_alt = int 0 1_000_000 in
        let e_kind =
          match int 0 9 with
          | 0 | 1 -> KUnary (pick safe_unops)
          | 2 | 3 -> KBinary (pick safe_binops)
          | 4 -> KRowReduce (pick redops)
          | 5 -> KColReduce (pick redops)
          | 6 -> KMatmul { mm_out = pick dims; mm_trans = int 0 1 = 0 }
          | 7 -> KVecScale (pick safe_binops)
          | 8 -> KSoftmax
          | _ -> KUnary (pick safe_unops)
        in
        { e_src; e_alt; e_kind })
  in
  { g_rows; g_cols; g_entries = entries }

let build { g_rows; g_cols; g_entries } =
  let g = G.create () in
  let x0 = G.input g "x0" [| g_rows; g_cols |] in
  (* Pool of live values, newest first. *)
  let pool = ref [ x0 ] in
  let weights = ref 0 in
  let shape id = (G.node g id).G.shape in
  let add id = pool := id :: !pool in
  let nth i = List.nth !pool (i mod List.length !pool) in
  List.iter
    (fun e ->
      let a = nth e.e_src in
      let sa = shape a in
      let rank = Array.length sa in
      match e.e_kind with
      | KUnary op -> add (G.unary g op a)
      | KBinary op ->
          let compat = List.filter (fun b -> Shape.broadcastable (shape b) sa) !pool in
          let partner =
            match compat with [] -> a | l -> List.nth l (e.e_alt mod List.length l)
          in
          add (G.binary g op a partner)
      | KRowReduce op ->
          (* Guards skip entries the picked operand can't support; the
             trace stays valid, the entry is just inert. *)
          if rank >= 1 && sa.(rank - 1) > 1 then
            add (G.reduce g op ~keepdims:true ~axis:(rank - 1) a)
      | KColReduce op ->
          if rank = 2 && sa.(0) > 1 then add (G.reduce g op ~keepdims:true ~axis:0 a)
      | KMatmul { mm_out; mm_trans } ->
          if rank = 2 then begin
            incr weights;
            if mm_trans then begin
              let w = G.weight g (Printf.sprintf "w%d" !weights) [| mm_out; sa.(1) |] in
              add (G.matmul g ~trans_b:true a w)
            end
            else begin
              let w = G.weight g (Printf.sprintf "w%d" !weights) [| sa.(1); mm_out |] in
              add (G.matmul g a w)
            end
          end
      | KVecScale op ->
          incr weights;
          let v = G.weight g (Printf.sprintf "w%d" !weights) [| sa.(rank - 1) |] in
          add (G.binary g op a v)
      | KSoftmax ->
          (* max -> sub -> exp -> sum -> div: the dependent-reduction chain
             that exercises update-then-aggregate scheduling. *)
          if rank = 2 && sa.(rank - 1) > 1 then begin
            let mx = G.reduce g Op.Rmax ~keepdims:true ~axis:(rank - 1) a in
            let sh = G.binary g Op.Sub a mx in
            let ex = G.unary g Op.Exp sh in
            let s = G.reduce g Op.Rsum ~keepdims:true ~axis:(rank - 1) ex in
            add (G.binary g Op.Div ex s)
          end)
    g_entries;
  (* Every generated graph has at least one compute node, so compilers
     always have something to schedule. *)
  if G.num_nodes g = 1 then ignore (G.unary g Op.Relu x0);
  let is_leaf id =
    match (G.node g id).G.kind with
    | G.Input _ | G.Weight _ | G.Const _ -> true
    | _ -> false
  in
  let sinks =
    List.filter
      (fun (n : G.node) -> G.consumers g n.id = [] && not (is_leaf n.id))
      (G.nodes g)
  in
  (* Mark up to two of the newest sinks as outputs. *)
  let newest = List.rev sinks in
  List.iteri (fun i (n : G.node) -> if i < 2 then G.mark_output g n.id) newest;
  g

let graph_of_spec spec = build (trace_of_spec spec)

(* The leading dim as a symbol: a trace's structure never depends on
   [g_rows] once column reductions are excluded (every live value keeps
   the leading dim, so binary-partner compatibility is rows-invariant),
   which makes [build (with_rows t r)] the same graph at another batch
   size — exactly what shape-class canonicalization produces by replay.
   Shape-class property tests lean on this to compare one trace across
   every size in a bucket. *)
let with_rows t rows =
  if rows < 1 then invalid_arg "Gen.with_rows: rows must be positive";
  { t with g_rows = rows }

let shrink ?(max_steps = 200) ~still_fails t0 =
  let candidates t =
    let n = List.length t.g_entries in
    let drops =
      List.init n (fun i ->
          { t with g_entries = List.filteri (fun j _ -> j <> i) t.g_entries })
    in
    let dims =
      (if t.g_rows > 2 then [ { t with g_rows = 2 } ] else [])
      @ if t.g_cols > 2 then [ { t with g_cols = 2 } ] else []
    in
    let simplify =
      List.concat
        (List.mapi
           (fun i e ->
             if e.e_kind = KUnary Op.Relu then []
             else
               [
                 {
                   t with
                   g_entries =
                     List.mapi
                       (fun j e' ->
                         if j = i then { e' with e_kind = KUnary Op.Relu } else e')
                       t.g_entries;
                 };
               ])
           t.g_entries)
    in
    drops @ dims @ simplify
  in
  let steps = ref 0 in
  let rec go t =
    if !steps >= max_steps then t
    else
      match
        List.find_opt
          (fun c ->
            incr steps;
            !steps <= max_steps && still_fails c)
          (candidates t)
      with
      | Some c -> go c
      | None -> t
  in
  go t0
