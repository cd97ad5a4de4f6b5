(* Power-of-two shape classes with explicit guards, plus the dataflow
   analysis deciding when classing is sound (batch-sliceability). *)

type policy = Exact | Pow2

let policy_of_string = function
  | "exact" -> Some Exact
  | "pow2" -> Some Pow2
  | _ -> None

let policy_to_string = function Exact -> "exact" | Pow2 -> "pow2"

type t = { c_lo : int; c_hi : int }

let classify d =
  if d <= 0 then invalid_arg "Shape_class.classify: dim must be positive";
  let hi = ref 1 in
  while !hi < d do
    hi := !hi * 2
  done;
  { c_lo = !hi / 2; c_hi = !hi }

let guard c d = c.c_lo < d && d <= c.c_hi
let representative c = c.c_hi
let id c = Printf.sprintf "p2:%d-%d" (c.c_lo + 1) c.c_hi

let ladder ~max_hi =
  let rec go hi acc =
    if hi > max_hi then List.rev acc else go (hi * 2) ({ c_lo = hi / 2; c_hi = hi } :: acc)
  in
  go 1 []

(* Batch-sliceability: propagate a "carrier" mark — does this node's value
   vary row-by-row with the inputs' leading dimension? Row-slicing is exact
   iff every carrier keeps the leading dim intact and in leading position,
   and nothing ever mixes rows:

   - Reduce over a carrier must not collapse axis 0, and must keep dims so
     the carrier's rank (hence leading-dim alignment under trailing-aligned
     broadcasting) is preserved.
   - Matmul's B operand must not be a carrier (it would contract rows).
   - Every carrier must keep shape.(0) = d and the common input rank, so
     two carriers always broadcast leading-dim-to-leading-dim.
   - Outputs must all be carriers; a weight-only output is row-constant
     and has no per-request slice. *)
exception Not_sliceable

let slice_dim g =
  let module G = Ir.Graph in
  match G.inputs g with
  | [] -> None
  | (_, s0) :: _ as ins ->
      if Array.length s0 < 2 then None
      else
        let d = s0.(0) in
        let rank = Array.length s0 in
        if
          d < 1
          || not
               (List.for_all (fun (_, s) -> Array.length s = rank && s.(0) = d) ins)
        then None
        else begin
          try
            let carrier = Hashtbl.create 32 in
            let is_c id = Hashtbl.mem carrier id in
            List.iter
              (fun (n : G.node) ->
                let c =
                  match n.kind with
                  | G.Input _ -> true
                  | G.Weight _ | G.Const _ -> false
                  | G.Unary (_, a) -> is_c a
                  | G.Binary (_, a, b) -> is_c a || is_c b
                  | G.Reduce { axis; keepdims; arg; _ } ->
                      if is_c arg then begin
                        let ar = Array.length (G.node g arg).G.shape in
                        let ax = if axis < 0 then ar + axis else axis in
                        if ax = 0 || not keepdims then raise Not_sliceable
                      end;
                      is_c arg
                  | G.Matmul { a; b; _ } ->
                      if is_c b then raise Not_sliceable;
                      is_c a
                in
                if c then begin
                  if Array.length n.shape <> rank || n.shape.(0) <> d then
                    raise Not_sliceable;
                  Hashtbl.replace carrier n.id ()
                end)
              (G.nodes g);
            if List.for_all (Hashtbl.mem carrier) (G.outputs g) then Some d
            else None
          with Not_sliceable -> None
        end

let rebatch g ~rows =
  let module G = Ir.Graph in
  let g' = G.create () in
  let map = Hashtbl.create 64 in
  let find id =
    match Hashtbl.find_opt map id with
    | Some id' -> id'
    | None -> invalid_arg "Shape_class.rebatch: node ids not topological"
  in
  List.iter
    (fun (n : G.node) ->
      let id' =
        match n.kind with
        | G.Input name ->
            let s = Array.copy n.shape in
            s.(0) <- rows;
            G.input g' name s
        | G.Weight name -> G.weight g' name n.shape
        | G.Const v -> G.const g' v
        | G.Unary (op, a) -> G.unary g' op (find a)
        | G.Binary (op, a, b) -> G.binary g' op (find a) (find b)
        | G.Reduce { op; axis; keepdims; arg } -> G.reduce g' op ~keepdims ~axis (find arg)
        | G.Matmul { a; b; trans_b } -> G.matmul g' ~trans_b (find a) (find b)
      in
      Hashtbl.replace map n.id id')
    (G.nodes g);
  List.iter (fun o -> G.mark_output g' (find o)) (G.outputs g);
  g'

let canonical g ~rows =
  let c = classify rows in
  let r = representative c in
  if r = rows then Some (c, g) else try Some (c, rebatch g ~rows:r) with _ -> None

let plan_graph ~policy g =
  match policy with
  | Exact -> None
  | Pow2 -> Option.bind (slice_dim g) (fun rows -> canonical g ~rows)
