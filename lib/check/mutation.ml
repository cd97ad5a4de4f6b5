(* Seeded-defect corpus: each mutation plants one realistic compiler bug
   into an otherwise-correct plan (an off-by-one, a stale flag, a wrong
   identity...). The corpus gate proves the differential oracle actually
   detects defects — an oracle that never fires is indistinguishable from
   one that checks nothing. Mutations are pure plan-to-plan transformers
   returning [None] when the plan has no applicable site. *)

module K = Gpu.Kernel

type t = {
  m_name : string;
  m_describe : string;
  m_mutate : Gpu.Plan.t -> Gpu.Plan.t option;
}

(* Apply [f] to the first kernel it changes; None if no kernel changes. *)
let map_first_kernel f (plan : Gpu.Plan.t) =
  let changed = ref false in
  let kernels =
    List.map
      (fun k ->
        if !changed then k
        else
          match f k with
          | Some k' ->
              changed := true;
              k'
          | None -> k)
      plan.Gpu.Plan.p_kernels
  in
  if !changed then Some (Gpu.Plan.make ~name:plan.p_name ~kernels ~decls:plan.p_decls) else None

(* Rewrite the first instruction [f] accepts, anywhere in the kernel. *)
let map_first_instr f (k : K.t) =
  let changed = ref false in
  let map_is is =
    List.map
      (fun i ->
        if !changed then i
        else
          match f i with
          | Some i' ->
              changed := true;
              i'
          | None -> i)
      is
  in
  let stages =
    List.map
      (function K.Once is -> K.Once (map_is is) | K.ForEachStep is -> K.ForEachStep (map_is is))
      k.K.stages
  in
  if !changed then Some { k with K.stages } else None

let instr_mutation name describe f =
  { m_name = name; m_describe = describe; m_mutate = map_first_kernel (map_first_instr f) }

let off_by_one_grid =
  {
    m_name = "off_by_one_grid";
    m_describe = "first grid dimension with extent > 1 loses one element";
    m_mutate =
      map_first_kernel (fun (k : K.t) ->
          let changed = ref false in
          let grid =
            List.map
              (fun (g : K.grid_dim) ->
                if (not !changed) && g.extent > 1 then begin
                  changed := true;
                  { g with K.extent = g.extent - 1 }
                end
                else g)
              k.grid
          in
          if !changed then Some { k with K.grid } else None);
  }

let off_by_one_tile =
  {
    m_name = "off_by_one_tile";
    m_describe = "temporal extent > 1 loses one step element";
    m_mutate =
      map_first_kernel (fun (k : K.t) ->
          match k.temporal with
          | Some (d, extent, tile) when extent > 1 ->
              Some { k with K.temporal = Some (d, extent - 1, tile) }
          | _ -> None);
  }

let wrong_identity =
  instr_mutation "wrong_identity" "non-zero reduction identity fill becomes 0.0" (function
    | K.Fill (b, v) when v <> 0.0 -> Some (K.Fill (b, 0.0))
    | _ -> None)

let stale_accumulate =
  instr_mutation "stale_accumulate" "cross-step accumulation flag dropped" (function
    | K.RowReduce ({ accumulate = true; _ } as r) -> Some (K.RowReduce { r with accumulate = false })
    | K.ColReduce ({ accumulate = true; _ } as r) -> Some (K.ColReduce { r with accumulate = false })
    | K.Gemm ({ accumulate = true; _ } as g) -> Some (K.Gemm { g with accumulate = false })
    | _ -> None)

let drop_store =
  {
    m_name = "drop_store";
    m_describe = "first store to global memory removed";
    m_mutate =
      map_first_kernel (fun (k : K.t) ->
          let dropped = ref false in
          let drop_is is =
            List.filter
              (function
                | K.Store _ when not !dropped ->
                    dropped := true;
                    false
                | _ -> true)
              is
          in
          let stages =
            List.map
              (function
                | K.Once is -> K.Once (drop_is is)
                | K.ForEachStep is -> K.ForEachStep (drop_is is))
              k.K.stages
          in
          if !dropped then Some { k with K.stages } else None);
  }

let flip_trans =
  instr_mutation "flip_trans" "gemm operand-B layout flag flipped" (function
    | K.Gemm g -> Some (K.Gemm { g with trans_b = not g.trans_b })
    | _ -> None)

let swap_binop =
  instr_mutation "swap_binop" "first binary op replaced by a near-miss" (function
    | K.Binary ({ op; _ } as b) ->
        let op' =
          match op with
          | Ir.Op.Add -> Ir.Op.Sub
          | Ir.Op.Sub -> Ir.Op.Add
          | Ir.Op.Mul -> Ir.Op.Max
          | Ir.Op.Div -> Ir.Op.Mul
          | Ir.Op.Max -> Ir.Op.Min
          | Ir.Op.Min -> Ir.Op.Max
        in
        Some (K.Binary { b with op = op' })
    | _ -> None)

let swap_reduce =
  instr_mutation "swap_reduce" "first reduction op replaced by a near-miss" (fun i ->
      let swap = function
        | Ir.Op.Rsum -> Ir.Op.Rmax
        | Ir.Op.Rmax -> Ir.Op.Rmin
        | Ir.Op.Rmin -> Ir.Op.Rmax
        | Ir.Op.Rmean -> Ir.Op.Rsum
      in
      match i with
      | K.RowReduce r -> Some (K.RowReduce { r with op = swap r.op })
      | K.ColReduce r -> Some (K.ColReduce { r with op = swap r.op })
      | _ -> None)

let wrong_shape_class =
  {
    m_name = "wrong_shape_class";
    m_describe = "plan executes at the previous shape class's extent (guard violation)";
    m_mutate =
      (* The bug shape-class guards exist to prevent: a plan compiled for
         the (lo, hi] bucket served to a shape in the next one. Halving
         the first spatial extent > 1 is that plan — it covers at most the
         previous class's representative, so part of the iteration space
         is never computed. *)
      map_first_kernel (fun (k : K.t) ->
          let changed = ref false in
          let grid =
            List.map
              (fun (g : K.grid_dim) ->
                if (not !changed) && g.extent > 1 then begin
                  changed := true;
                  { g with K.extent = (g.extent + 1) / 2 }
                end
                else g)
              k.grid
          in
          if !changed then Some { k with K.grid } else None);
  }

let corpus =
  [
    off_by_one_grid;
    off_by_one_tile;
    wrong_identity;
    stale_accumulate;
    drop_store;
    flip_trans;
    swap_binop;
    swap_reduce;
    wrong_shape_class;
  ]
