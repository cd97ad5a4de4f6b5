module G = Ir.Graph
module Op = Ir.Op
module K = Gpu.Kernel

exception Unlowerable of string

let fail fmt = Printf.ksprintf (fun m -> raise (Unlowerable m)) fmt

type role = RGrid of string * int | RStep | RInner of int

type bufinfo = { bname : string; rows : int option; cols : int option }
(* rows/cols are fused dims; None = extent 1 / broadcast. *)

type section = Prologue | Loop | Interlude | Pass2 | Epilogue

type st = {
  sched : Schedule.t;
  cfg : Schedule.cfg;
  tensor_of : G.node_id -> string;
  role : int -> role;
  bufs : (string * K.buf) list ref;
  fresh : int ref;
  sinks : (section * K.instr list ref) list;
  memo : (section * G.node_id, bufinfo) Hashtbl.t;
  const_memo : (float, bufinfo) Hashtbl.t;
  (* Maintained reduction states and reconstructed RRaw values. *)
  states : (G.node_id, bufinfo) Hashtbl.t;
  raw_values : (G.node_id, bufinfo) Hashtbl.t;
  raw_bufs : (G.node_id * int, bufinfo) Hashtbl.t;
  olds : (G.node_id, bufinfo) Hashtbl.t;
}

let smg st = st.sched.Schedule.smg
let graph st = Smg.graph (smg st)
let fs st = Smg.fused (smg st)

let sink st section = List.assoc section st.sinks
let emit st section i = (sink st section) := i :: !(sink st section)

let dimsize st = function
  | None -> K.Lit 1
  | Some d -> (
      match st.role d with
      | RGrid (name, blk) -> if blk = 1 then K.Lit 1 else K.Blk name
      | RStep -> K.Tile
      | RInner extent -> K.Lit extent)

let new_buf st ~scope ~rows ~cols prefix =
  let n = !(st.fresh) in
  incr st.fresh;
  let bname = Printf.sprintf "%s%d" prefix n in
  st.bufs := (bname, { K.bname; scope; brows = dimsize st rows; bcols = dimsize st cols }) :: !(st.bufs);
  { bname; rows; cols }

(* Row/column dims of a node's natural tile: last axis = columns,
   second-to-last = rows; leading axes must be unit per block. *)
let tile_dims st node =
  let n = G.node (graph st) node in
  let rank = Array.length n.shape in
  for i = 0 to rank - 3 do
    match Fusedspace.axis_dim (fs st) node i with
    | None -> ()
    | Some d -> (
        match st.role d with
        | RGrid (_, 1) -> ()
        | RGrid (name, _) -> fail "node %%%d: leading axis on blocked grid dim %s (3-D tile)" node name
        | RStep -> fail "node %%%d: leading axis on the temporal dim" node
        | RInner _ -> fail "node %%%d: leading axis on an inner dim" node)
  done;
  let dim_at i = if i < 0 then None else Fusedspace.axis_dim (fs st) node i in
  (dim_at (rank - 2), dim_at (rank - 1))

let join_dim node a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y when x = y -> a
  | _ -> fail "node %%%d: tile orientation mismatch" node

let transfer_idx st node =
  let n = G.node (graph st) node in
  Array.init (Array.length n.shape) (fun i ->
      match Fusedspace.axis_dim (fs st) node i with
      | None -> K.IAll
      | Some d -> (
          match st.role d with
          | RGrid (name, _) -> K.IGrid name
          | RStep -> K.IStep
          | RInner _ -> K.IAll))

(* Is the node free of the temporal dimension and of every maintained
   reduction — i.e. computable once per block, before the loop? *)
let t_invariant st =
  let g = graph st in
  let plan = st.sched.Schedule.temporal in
  match plan with
  | None -> fun _ -> true
  | Some p ->
      let tdim = p.Update_fn.tdim in
      let n = G.num_nodes g in
      let inv = Array.make n false in
      List.iter
        (fun (node : G.node) ->
          let has_t = List.mem tdim (Smg.data_space (smg st) node.id).Smg.sdims in
          let maintained = List.mem_assoc node.id p.Update_fn.reductions in
          inv.(node.id) <-
            (not has_t) && (not maintained) && List.for_all (fun pd -> inv.(pd)) (G.preds node))
        (G.nodes g);
      fun node -> inv.(node)

(* ------------------------------------------------------------------ *)
(* Node and expression emission                                        *)
(* ------------------------------------------------------------------ *)

let scope_of_section = function Prologue -> K.Smem | _ -> K.Reg

let const_buf st v =
  match Hashtbl.find_opt st.const_memo v with
  | Some b -> b
  | None ->
      let b = new_buf st ~scope:K.Reg ~rows:None ~cols:None "c" in
      emit st Prologue (K.Fill (b.bname, v));
      Hashtbl.replace st.const_memo v b;
      b

let rec value st ~invariant section node =
  let section = if invariant node then Prologue else section in
  match Hashtbl.find_opt st.memo (section, node) with
  | Some b -> b
  | None ->
      let b = emit_node st ~invariant section node in
      Hashtbl.replace st.memo (section, node) b;
      b

and emit_node st ~invariant section node =
  let g = graph st in
  let n = G.node g node in
  let maintained =
    match st.sched.Schedule.temporal with
    | Some p -> List.assoc_opt node p.Update_fn.reductions
    | None -> None
  in
  match maintained with
  | Some (Update_fn.RRaw _) -> (
      match Hashtbl.find_opt st.raw_values node with
      | Some b -> b
      | None -> fail "node %%%d: raw-aggregated value consumed before reconstruction" node)
  | Some _ -> Hashtbl.find st.states node
  | None -> (
      match n.kind with
      | G.Const v -> const_buf st v
      | G.Input _ | G.Weight _ ->
          let rows, cols = tile_dims st node in
          let b = new_buf st ~scope:(scope_of_section section) ~rows ~cols "t" in
          emit st section (K.Load { tensor = st.tensor_of node; dst = b.bname; idx = transfer_idx st node });
          b
      | G.Unary (op, a) ->
          let ba = value st ~invariant section a in
          let b = new_buf st ~scope:K.Reg ~rows:ba.rows ~cols:ba.cols "t" in
          emit st section (K.Unary { dst = b.bname; op; src = ba.bname });
          b
      | G.Binary (op, a, bb) ->
          let ba = value st ~invariant section a in
          let bb = value st ~invariant section bb in
          let rows = join_dim node ba.rows bb.rows and cols = join_dim node ba.cols bb.cols in
          let b = new_buf st ~scope:K.Reg ~rows ~cols "t" in
          emit st section (K.Binary { dst = b.bname; op; a = ba.bname; b = bb.bname });
          b
      | G.Reduce { op; arg; _ } -> (
          let ba = value st ~invariant section arg in
          let rdim = Fusedspace.contraction_dim (fs st) node in
          match rdim with
          | None ->
              (* Reducing a unit-extent axis is the identity. *)
              let b = new_buf st ~scope:K.Reg ~rows:ba.rows ~cols:ba.cols "t" in
              emit st section (K.Copy { dst = b.bname; src = ba.bname });
              b
          | Some d ->
              let row_dir = Some d = ba.cols in
              if (not row_dir) && Some d <> ba.rows then
                fail "node %%%d: reduction along a dim absent from the tile" node;
              let rows, cols = if row_dir then (ba.rows, None) else (None, ba.cols) in
              let b = new_buf st ~scope:K.Reg ~rows ~cols "t" in
              let reduce op accumulate =
                if row_dir then K.RowReduce { dst = b.bname; op; src = ba.bname; accumulate }
                else K.ColReduce { dst = b.bname; op; src = ba.bname; accumulate }
              in
              (match op with
              | Op.Rmean ->
                  emit st section (reduce Op.Rsum false);
                  let inv_n = const_buf st (1.0 /. float_of_int (Fusedspace.dim_extent (fs st) d)) in
                  emit st section
                    (K.Binary { dst = b.bname; op = Op.Mul; a = b.bname; b = inv_n.bname })
              | op -> emit st section (reduce op false));
              b)
      | G.Matmul { a; b = bnode; trans_b } ->
          let ba = value st ~invariant section a in
          let bb = value st ~invariant section bnode in
          let kdim = Fusedspace.contraction_dim (fs st) node in
          if ba.cols <> kdim then fail "node %%%d: gemm LHS columns are not the contraction dim" node;
          let b_k, b_out = if trans_b then (bb.cols, bb.rows) else (bb.rows, bb.cols) in
          if b_k <> kdim then fail "node %%%d: gemm RHS contraction axis mismatch" node;
          if kdim <> None && (b_out = kdim || ba.rows = kdim) then
            fail "node %%%d: contraction dim aliases an output dim" node;
          let b = new_buf st ~scope:K.Reg ~rows:ba.rows ~cols:b_out "t" in
          emit st section
            (K.Gemm { dst = b.bname; a = ba.bname; b = bb.bname; trans_b; accumulate = false });
          b)

let rec expr_dims st ~invariant e =
  match e with
  | Pexpr.EIn (n, _) -> tile_dims st n
  | Pexpr.EScal n -> (
      match Hashtbl.find_opt st.states n with
      | Some b -> (b.rows, b.cols)
      | None -> tile_dims st n)
  | Pexpr.EConst _ -> (None, None)
  | Pexpr.ERaw _ -> fail "expr_dims: dangling raw slot"
  | Pexpr.EUn (_, a) -> expr_dims st ~invariant a
  | Pexpr.EBin (_, a, b) ->
      let ra, ca = expr_dims st ~invariant a and rb, cb = expr_dims st ~invariant b in
      (join_dim (-1) ra rb, join_dim (-1) ca cb)
  | Pexpr.ERed (_, a) -> (
      let r, c = expr_dims st ~invariant a in
      match st.sched.Schedule.temporal with
      | Some p when r = Some p.Update_fn.tdim -> (None, c)
      | _ -> (r, None))

let rec emit_expr st ~invariant ~raws section e =
  match e with
  | Pexpr.EIn (n, _) -> value st ~invariant section n
  | Pexpr.EScal n -> (
      match Hashtbl.find_opt st.raw_values n with
      | Some b -> b
      | None -> (
          match Hashtbl.find_opt st.states n with
          | Some b -> b
          | None -> value st ~invariant section n))
  | Pexpr.EConst v -> const_buf st v
  | Pexpr.ERaw i -> (
      match raws i with Some b -> b | None -> fail "emit_expr: unbound raw slot %d" i)
  | Pexpr.EUn (op, a) ->
      let ba = emit_expr st ~invariant ~raws section a in
      let b = new_buf st ~scope:K.Reg ~rows:ba.rows ~cols:ba.cols "x" in
      emit st section (K.Unary { dst = b.bname; op; src = ba.bname });
      b
  | Pexpr.EBin (op, a, bb) ->
      let ba = emit_expr st ~invariant ~raws section a in
      let bb = emit_expr st ~invariant ~raws section bb in
      let rows = join_dim (-1) ba.rows bb.rows and cols = join_dim (-1) ba.cols bb.cols in
      let b = new_buf st ~scope:K.Reg ~rows ~cols "x" in
      emit st section (K.Binary { dst = b.bname; op; a = ba.bname; b = bb.bname });
      b
  | Pexpr.ERed _ -> fail "emit_expr: reductions may only appear as raw slots"

(* ------------------------------------------------------------------ *)
(* Temporal maintenance                                                *)
(* ------------------------------------------------------------------ *)


(* Direction of a reduction over [rdim] given the argument tile. *)
let reduce_instr ~dst ~src ~(arg : bufinfo) rdim op accumulate =
  if arg.cols = rdim then K.RowReduce { dst; op; src; accumulate }
  else if arg.rows = rdim then K.ColReduce { dst; op; src; accumulate }
  else raise (Unlowerable "reduction along a dim absent from the tile")

let reduction_arg st node =
  match (G.node (graph st) node).kind with
  | G.Reduce { arg; _ } -> `Reduce arg
  | G.Matmul { a; b; trans_b } -> `Matmul (a, b, trans_b)
  | _ -> fail "node %%%d: maintained node is not a reduction" node

let eval_factor st ~invariant factor =
  (* All atoms of a chain share the scalar orientation (per-row M×1 or
     per-column 1×N); temporaries take the first atom's state dims. *)
  let rows, cols =
    match
      List.find_map
        (fun (a, _) ->
          match a with
          | Pexpr.AExp n | Pexpr.AScal n -> Hashtbl.find_opt st.states n
          | Pexpr.AConst _ -> None)
        factor
    with
    | Some b -> (b.rows, b.cols)
    | None -> (None, None)
  in
  (* g(new)/g(old) as per-row values: exp atoms fold into one exponent
     difference (numerically stable); scalar atoms contribute old/new
     ratios. Exponents other than -1 never survive Update_fn validation. *)
  let exp_atoms, rest =
    List.partition (fun (a, _) -> match a with Pexpr.AExp _ -> true | _ -> false) factor
  in
  let scal_atoms =
    List.filter (fun (a, _) -> match a with Pexpr.AScal _ -> true | _ -> false) rest
  in
  let old_of n =
    match Hashtbl.find_opt st.olds n with
    | Some b -> b
    | None -> fail "node %%%d: missing captured old value" n
  in
  let acc = ref None in
  let mul_into b =
    match !acc with
    | None -> acc := Some b
    | Some f ->
        let nb = new_buf st ~scope:K.Reg ~rows ~cols "f" in
        emit st Loop (K.Binary { dst = nb.bname; op = Op.Mul; a = f.bname; b = b.bname });
        acc := Some nb
  in
  (if exp_atoms <> [] then begin
     let diff = ref None in
     List.iter
       (fun (a, e) ->
         let m = match a with Pexpr.AExp m -> m | _ -> assert false in
         if e <> -1 then fail "node %%%d: unsupported update exponent %d" m e;
         let d = new_buf st ~scope:K.Reg ~rows ~cols "f" in
         emit st Loop
           (K.Binary
              { dst = d.bname; op = Op.Sub; a = (old_of m).bname; b = (Hashtbl.find st.states m).bname });
         match !diff with
         | None -> diff := Some d
         | Some p ->
             let s = new_buf st ~scope:K.Reg ~rows ~cols "f" in
             emit st Loop (K.Binary { dst = s.bname; op = Op.Add; a = p.bname; b = d.bname });
             diff := Some s)
       exp_atoms;
     let d = Option.get !diff in
     let e = new_buf st ~scope:K.Reg ~rows ~cols "f" in
     emit st Loop (K.Unary { dst = e.bname; op = Op.Exp; src = d.bname });
     mul_into e
   end);
  List.iter
    (fun (a, e) ->
      let n = match a with Pexpr.AScal n -> n | _ -> assert false in
      if e <> -1 then fail "node %%%d: unsupported update exponent %d" n e;
      let r = new_buf st ~scope:K.Reg ~rows ~cols "f" in
      emit st Loop
        (K.Binary
           { dst = r.bname; op = Op.Div; a = (old_of n).bname; b = (Hashtbl.find st.states n).bname });
      mul_into r)
    scal_atoms;
  ignore invariant;
  !acc

let nonconst_atoms factor =
  List.filter (fun (a, _) -> match a with Pexpr.AConst _ -> false | _ -> true) factor

let emit_maintenance st ~invariant (p : Update_fn.t) =
  let g = graph st in
  (* Which states need their pre-update value captured for later factors? *)
  let needs_old =
    List.concat_map
      (fun (_, rp) ->
        match rp with
        | Update_fn.RUta factor ->
            List.filter_map
              (fun (a, _) ->
                match a with Pexpr.AExp n | Pexpr.AScal n -> Some n | Pexpr.AConst _ -> None)
              factor
        | _ -> [])
      p.Update_fn.reductions
  in
  List.iter
    (fun (node, rp) ->
      let state () = Hashtbl.find st.states node in
      (match rp with
      | Update_fn.RRaw _ -> ()
      | _ ->
          if List.mem node needs_old then begin
            let s = state () in
            let old = new_buf st ~scope:K.Reg ~rows:s.rows ~cols:s.cols "o" in
            emit st Loop (K.Copy { dst = old.bname; src = s.bname });
            Hashtbl.replace st.olds node old
          end);
      match rp with
      | Update_fn.RMax | Update_fn.RMin ->
          let arg = match reduction_arg st node with
            | `Reduce a -> a
            | `Matmul _ -> fail "node %%%d: max-aggregated matmul" node
          in
          let ba = value st ~invariant Loop arg in
          let op = match rp with Update_fn.RMax -> Op.Rmax | _ -> Op.Rmin in
          let rdim = Fusedspace.contraction_dim (fs st) node in
          emit st Loop (reduce_instr ~dst:(state ()).bname ~src:ba.bname ~arg:ba rdim op true)
      | Update_fn.RUta factor ->
          let state = state () in
          (match nonconst_atoms factor with
          | [] -> ()
          | atoms -> (
              match eval_factor st ~invariant atoms with
              | Some f ->
                  emit st Loop
                    (K.Binary { dst = state.bname; op = Op.Mul; a = state.bname; b = f.bname })
              | None -> ()));
          (match reduction_arg st node with
          | `Matmul (a, b, trans_b) ->
              let ba = value st ~invariant Loop a and bb = value st ~invariant Loop b in
              emit st Loop
                (K.Gemm { dst = state.bname; a = ba.bname; b = bb.bname; trans_b; accumulate = true })
          | `Reduce arg -> (
              let ba = value st ~invariant Loop arg in
              let rdim = Fusedspace.contraction_dim (fs st) node in
              match (G.node g node).kind with
              | G.Reduce { op = Op.Rmean; _ } ->
                  let extent =
                    match rdim with
                    | Some d -> Fusedspace.dim_extent (fs st) d
                    | None -> 1
                  in
                  let rows, cols = if ba.cols = rdim then (ba.rows, None) else (None, ba.cols) in
                  let tmp = new_buf st ~scope:K.Reg ~rows ~cols "l" in
                  emit st Loop (reduce_instr ~dst:tmp.bname ~src:ba.bname ~arg:ba rdim Op.Rsum false);
                  let inv_n = const_buf st (1.0 /. float_of_int extent) in
                  emit st Loop (K.Binary { dst = tmp.bname; op = Op.Mul; a = tmp.bname; b = inv_n.bname });
                  emit st Loop
                    (K.Binary { dst = state.bname; op = Op.Add; a = state.bname; b = tmp.bname })
              | G.Reduce { op = Op.Rsum; _ } ->
                  emit st Loop (reduce_instr ~dst:state.bname ~src:ba.bname ~arg:ba rdim Op.Rsum true)
              | _ -> fail "node %%%d: UTA on a non-linear reduction" node))
      | Update_fn.RRaw { raws; _ } ->
          List.iter
            (fun (slot, r) ->
              match r with
              | Pexpr.ERed (op, core) ->
                  let cb = emit_expr st ~invariant ~raws:(fun _ -> None) Loop core in
                  let raw = Hashtbl.find st.raw_bufs (node, slot) in
                  let rdim =
                    match st.sched.Schedule.temporal with
                    | Some p -> Some p.Update_fn.tdim
                    | None -> None
                  in
                  emit st Loop (reduce_instr ~dst:raw.bname ~src:cb.bname ~arg:cb rdim op true)
              | _ -> fail "node %%%d: malformed raw slot" node)
            raws)
    p.Update_fn.reductions

(* ------------------------------------------------------------------ *)
(* Buffer pooling                                                      *)
(* ------------------------------------------------------------------ *)

let instr_refs = function
  | K.Load { dst; _ } -> ([ dst ], [])
  | K.Store { src; _ } -> ([], [ src ])
  | K.Fill (b, _) -> ([ b ], [])
  | K.Copy { dst; src } -> ([ dst ], [ src ])
  | K.Gemm { dst; a; b; accumulate; _ } -> if accumulate then ([], [ dst; a; b ]) else ([ dst ], [ a; b ])
  | K.Unary { dst; src; _ } -> ([ dst ], [ src ])
  | K.Binary { dst; a; b; _ } -> ([ dst ], [ a; b ])
  | K.RowReduce { dst; src; accumulate; _ } | K.ColReduce { dst; src; accumulate; _ } ->
      if accumulate then ([], [ dst; src ]) else ([ dst ], [ src ])

let pool_buffers (k : K.t) =
  (* Liveness at (stage, instr) granularity; only stage-local buffers whose
     first reference is a pure definition are pooled. *)
  let occ : (string, (int * int * bool) list) Hashtbl.t = Hashtbl.create 32 in
  List.iteri
    (fun si stage ->
      let is_ = match stage with K.Once is | K.ForEachStep is -> is in
      List.iteri
        (fun ii instr ->
          let defs, uses = instr_refs instr in
          List.iter
            (fun b -> Hashtbl.replace occ b ((si, ii, true) :: Option.value ~default:[] (Hashtbl.find_opt occ b)))
            defs;
          List.iter
            (fun b -> Hashtbl.replace occ b ((si, ii, false) :: Option.value ~default:[] (Hashtbl.find_opt occ b)))
            uses)
        is_)
    k.stages;
  let buf_spec name = List.find (fun (b : K.buf) -> b.bname = name) k.bufs in
  let poolable name =
    match Hashtbl.find_opt occ name with
    | None | Some [] -> false
    | Some refs ->
        let refs = List.rev refs in
        let (s0, _, d0) = List.hd refs in
        d0 && List.for_all (fun (s, _, _) -> s = s0) refs
  in
  let interval name =
    let refs = List.rev (Hashtbl.find occ name) in
    let (s, i0, _) = List.hd refs in
    let last = List.fold_left (fun acc (_, i, _) -> max acc i) i0 refs in
    (s, i0, last)
  in
  (* Greedy interval sharing within (scope, rows, cols) classes. *)
  let rename : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let classes : (K.scope * K.dimsize * K.dimsize, (string * (int * int * int)) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (b : K.buf) ->
      if poolable b.bname then begin
        let key = (b.scope, b.brows, b.bcols) in
        let slots =
          match Hashtbl.find_opt classes key with
          | Some s -> s
          | None ->
              let s = ref [] in
              Hashtbl.replace classes key s;
              s
        in
        let (s, i0, i1) = interval b.bname in
        (* Find an existing representative whose occupied intervals never
           overlap this one. Intervals in different stages never overlap. *)
        let overlaps (s', a, bnd) = s = s' && not (i1 < a || bnd < i0) in
        let rec place = function
          | [] -> None
          | (repr, ivals) :: rest ->
              if List.exists overlaps ivals then place rest else Some repr
        in
        let reps =
          List.fold_left
            (fun acc (name, iv) ->
              let r = match Hashtbl.find_opt rename name with Some r -> r | None -> name in
              let cur = try List.assoc r acc with Not_found -> [] in
              (r, iv :: cur) :: List.remove_assoc r acc)
            [] !slots
        in
        (match place reps with
        | Some repr -> Hashtbl.replace rename b.bname repr
        | None -> ());
        slots := (b.bname, (s, i0, i1)) :: !slots
      end)
    (List.rev k.bufs);
  let nm b = match Hashtbl.find_opt rename b with Some r -> r | None -> b in
  let map_instr = function
    | K.Load l -> K.Load { l with dst = nm l.dst }
    | K.Store s -> K.Store { s with src = nm s.src }
    | K.Fill (b, v) -> K.Fill (nm b, v)
    | K.Copy { dst; src } -> K.Copy { dst = nm dst; src = nm src }
    | K.Gemm g -> K.Gemm { g with dst = nm g.dst; a = nm g.a; b = nm g.b }
    | K.Unary u -> K.Unary { u with dst = nm u.dst; src = nm u.src }
    | K.Binary b -> K.Binary { b with dst = nm b.dst; a = nm b.a; b = nm b.b }
    | K.RowReduce r -> K.RowReduce { r with dst = nm r.dst; src = nm r.src }
    | K.ColReduce r -> K.ColReduce { r with dst = nm r.dst; src = nm r.src }
  in
  let stages =
    List.map
      (function
        | K.Once is -> K.Once (List.map map_instr is)
        | K.ForEachStep is -> K.ForEachStep (List.map map_instr is))
      k.stages
  in
  let kept = List.filter (fun (b : K.buf) -> not (Hashtbl.mem rename b.bname)) k.bufs in
  ignore buf_spec;
  { k with stages; bufs = kept }

(* ------------------------------------------------------------------ *)
(* Top-level lowering                                                  *)
(* ------------------------------------------------------------------ *)

(* A lowered kernel depends on its cfg in three ways only: which blocked
   dims have block 1 ([role]'s unit blocks become [Lit 1] buffer extents
   and admit leading tensor axes), the grid blocks ([grid_of]) and the
   temporal tile ([temporal_of]). Everything else — instructions, buffers,
   pooling — is a function of the schedule and the unit-block mask. *)
let role_of (sched : Schedule.t) (cfg : Schedule.cfg) =
  let fsp = Smg.fused sched.Schedule.smg in
  fun d ->
    if List.mem d sched.batch_dims then RGrid (Fusedspace.dim_name fsp d, 1)
    else
      match List.assoc_opt d cfg.Schedule.blocks with
      | Some blk -> RGrid (Fusedspace.dim_name fsp d, blk)
      | None -> (
          match sched.temporal with
          | Some p when p.Update_fn.tdim = d -> RStep
          | _ ->
              if List.mem d sched.tiled_dims then
                RGrid (Fusedspace.dim_name fsp d, Fusedspace.dim_extent fsp d)
              else RInner (Fusedspace.dim_extent fsp d))

let grid_of (sched : Schedule.t) role =
  let fsp = Smg.fused sched.Schedule.smg in
  List.filter_map
    (fun d ->
      match role d with
      | RGrid (gdim, block) -> Some { K.gdim; extent = Fusedspace.dim_extent fsp d; block }
      | _ -> None)
    (List.sort_uniq compare (sched.batch_dims @ sched.tiled_dims))

let temporal_of (sched : Schedule.t) (cfg : Schedule.cfg) =
  let fsp = Smg.fused sched.Schedule.smg in
  match sched.temporal with
  | Some p ->
      let extent = Fusedspace.dim_extent fsp p.Update_fn.tdim in
      let tile = match cfg.Schedule.tile with Some t -> t | None -> extent in
      Some (Fusedspace.dim_name fsp p.Update_fn.tdim, extent, tile)
  | None -> None

let lower_body ~pool (sched : Schedule.t) (cfg : Schedule.cfg) ~name ~tensor_of =
  let g = Smg.graph sched.Schedule.smg in
  let role = role_of sched cfg in
  let sections = [ Prologue; Loop; Interlude; Pass2; Epilogue ] in
  let st =
    {
      sched;
      cfg;
      tensor_of;
      role;
      bufs = ref [];
      fresh = ref 0;
      sinks = List.map (fun s -> (s, ref [])) sections;
      memo = Hashtbl.create 64;
      const_memo = Hashtbl.create 8;
      states = Hashtbl.create 8;
      raw_values = Hashtbl.create 8;
      raw_bufs = Hashtbl.create 8;
      olds = Hashtbl.create 8;
    }
  in
  let invariant = t_invariant st in
  let outputs = G.outputs g in
  (match sched.temporal with
  | None ->
      (* Pure spatial/inner fusion: one block program. *)
      List.iter
        (fun out ->
          let b = value st ~invariant Prologue out in
          emit st Prologue (K.Store { src = b.bname; tensor = tensor_of out; idx = transfer_idx st out }))
        outputs
  | Some p ->
      let tdim = p.Update_fn.tdim in
      (* States and raw accumulators, zero/identity-initialised per block. *)
      List.iter
        (fun (node, rp) ->
          match rp with
          | Update_fn.RMax | Update_fn.RMin | Update_fn.RUta _ ->
              let rows, cols = tile_dims st node in
              let b = new_buf st ~scope:K.Reg ~rows ~cols "s" in
              Hashtbl.replace st.states node b;
              let init =
                match rp with
                | Update_fn.RMax -> Float.neg_infinity
                | Update_fn.RMin -> Float.infinity
                | _ -> 0.0
              in
              emit st Prologue (K.Fill (b.bname, init))
          | Update_fn.RRaw { raws; _ } ->
              List.iter
                (fun (slot, r) ->
                  match r with
                  | Pexpr.ERed (_, core) as red ->
                      let rows, cols = expr_dims st ~invariant red in
                      ignore core;
                      let b = new_buf st ~scope:K.Reg ~rows ~cols "s" in
                      Hashtbl.replace st.raw_bufs (node, slot) b;
                      emit st Prologue (K.Fill (b.bname, 0.0))
                  | _ -> fail "node %%%d: malformed raw slot" node)
                raws)
        p.Update_fn.reductions;
      emit_maintenance st ~invariant p;
      let streamed, reduced_outs =
        List.partition (fun out -> List.mem tdim (Smg.data_space sched.smg out).Smg.sdims) outputs
      in
      (* Reconstruct raw-aggregated values once the loop is done. *)
      let recon_section = if p.Update_fn.two_pass then Interlude else Epilogue in
      List.iter
        (fun (node, rp) ->
          match rp with
          | Update_fn.RRaw { raws; value } ->
              let lookup i =
                List.assoc_opt i (List.map (fun (s, _) -> (s, Hashtbl.find st.raw_bufs (node, s))) raws)
              in
              let b = emit_expr st ~invariant ~raws:lookup recon_section value in
              Hashtbl.replace st.raw_values node b
          | _ -> ())
        p.Update_fn.reductions;
      (* Outputs that extend along the temporal dim. *)
      List.iter
        (fun out ->
          if p.Update_fn.two_pass then begin
            let b = value st ~invariant Pass2 out in
            emit st Pass2 (K.Store { src = b.bname; tensor = tensor_of out; idx = transfer_idx st out })
          end
          else begin
            let b = value st ~invariant Loop out in
            emit st Loop (K.Store { src = b.bname; tensor = tensor_of out; idx = transfer_idx st out })
          end)
        streamed;
      (* Reduced outputs: stored once per block. *)
      List.iter
        (fun out ->
          let b = value st ~invariant Epilogue out in
          emit st Epilogue (K.Store { src = b.bname; tensor = tensor_of out; idx = transfer_idx st out }))
        reduced_outs);
  let get section = List.rev !(sink st section) in
  let stages =
    List.filter_map
      (fun (section, wrap) ->
        match get section with [] -> None | is -> Some (wrap is))
      [
        (Prologue, fun is -> K.Once is);
        (Loop, fun is -> K.ForEachStep is);
        (Interlude, fun is -> K.Once is);
        (Pass2, fun is -> K.ForEachStep is);
        (Epilogue, fun is -> K.Once is);
      ]
  in
  let tags =
    List.filter_map
      (fun (n : G.node) ->
        match n.kind with
        | G.Input _ | G.Weight _ | G.Const _ -> None
        | k -> Some (G.kind_to_string k))
      (G.nodes g)
  in
  let kernel =
    {
      K.kname = name;
      grid = grid_of sched role;
      temporal = temporal_of sched cfg;
      bufs = List.rev_map snd !(st.bufs);
      stages;
      tags;
    }
  in
  K.validate kernel;
  if pool then pool_buffers kernel else kernel

let m_calls = Obs.Metrics.counter "lower.calls"
let m_unlowerable = Obs.Metrics.counter "lower.unlowerable"

let lower ?(pool = true) (sched : Schedule.t) (cfg : Schedule.cfg) ~name ~tensor_of =
  Obs.Metrics.incr m_calls;
  Obs.Trace.with_span "lower" @@ fun () ->
  try lower_body ~pool sched cfg ~name ~tensor_of
  with Unlowerable _ as e ->
    Obs.Metrics.incr m_unlowerable;
    raise e

let lowerer (sched : Schedule.t) ~name ~tensor_of =
  let templates = ref [] in
  fun (cfg : Schedule.cfg) ->
    let mask = List.map (fun (d, blk) -> (d, blk = 1)) cfg.Schedule.blocks in
    let template =
      match List.assoc_opt mask !templates with
      | Some t -> t
      | None ->
          let t =
            match lower sched cfg ~name ~tensor_of with
            | k -> Ok k
            | exception Unlowerable msg -> Error msg
          in
          templates := (mask, t) :: !templates;
          t
    in
    match template with
    | Ok k -> { k with K.grid = grid_of sched (role_of sched cfg); temporal = temporal_of sched cfg }
    | Error msg -> raise (Unlowerable msg)
