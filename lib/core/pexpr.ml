module G = Ir.Graph
module Op = Ir.Op

type atom = AExp of G.node_id | AScal of G.node_id | AConst of float

type expr =
  | EIn of G.node_id * bool
  | EScal of G.node_id
  | EConst of float
  | ERaw of int
  | EUn of Op.unop * expr
  | EBin of Op.binop * expr * expr
  | ERed of Op.redop * expr

let rec is_uniform = function
  | EIn (_, u) -> u
  | EScal _ | EConst _ -> true
  | ERaw _ -> true
  | EUn (_, e) -> is_uniform e
  | EBin (_, a, b) -> is_uniform a && is_uniform b
  | ERed _ -> true

let is_t_reduction smg ~dim node =
  match (G.node (Smg.graph smg) node).G.kind with
  | G.Reduce _ | G.Matmul _ -> Fusedspace.contraction_dim (Smg.fused smg) node = Some dim
  | _ -> false

let node_has_dim smg dim node = List.mem dim (Smg.data_space smg node).Smg.sdims

let build smg ~dim ~root node =
  let g = Smg.graph smg in
  let rec go node =
    if node <> root && is_t_reduction smg ~dim node then EScal node
    else
      let n = G.node g node in
      match n.G.kind with
      | G.Input _ | G.Weight _ -> EIn (node, not (node_has_dim smg dim node))
      | G.Const v -> EConst v
      | G.Unary (op, a) -> EUn (op, go a)
      | G.Binary (op, a, b) -> EBin (op, go a, go b)
      | G.Reduce { op; arg; _ } when is_t_reduction smg ~dim node ->
          let extent = Fusedspace.dim_extent (Smg.fused smg) dim in
          let body = go arg in
          (match op with
          | Op.Rmean -> EBin (Op.Div, ERed (Op.Rsum, body), EConst (float_of_int extent))
          | op -> ERed (op, body))
      | G.Matmul { a; b; _ } when is_t_reduction smg ~dim node ->
          ERed (Op.Rsum, EBin (Op.Mul, go a, go b))
      | G.Reduce _ | G.Matmul _ ->
          (* Reduction along some other dimension: opaque from this
             dimension's point of view. *)
          EIn (node, not (node_has_dim smg dim node))
  in
  go node

let defn smg ~dim node = build smg ~dim ~root:node node

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)
(* ------------------------------------------------------------------ *)

let rec rewrite_once ~extent e =
  let changed = ref false in
  let rec go e =
    let e =
      match e with
      | EIn _ | EScal _ | EConst _ | ERaw _ -> e
      | EUn (op, a) -> EUn (op, go a)
      | EBin (op, a, b) -> EBin (op, go a, go b)
      | ERed (op, a) -> ERed (op, go a)
    in
    let rw e' =
      changed := true;
      e'
    in
    match e with
    (* exp postposition *)
    | EUn (Op.Exp, EBin (Op.Sub, x, s)) when is_uniform s && not (is_uniform x) ->
        rw (EBin (Op.Div, EUn (Op.Exp, x), EUn (Op.Exp, s)))
    | EUn (Op.Exp, EBin (Op.Add, x, s)) when is_uniform s && not (is_uniform x) ->
        rw (EBin (Op.Mul, EUn (Op.Exp, x), EUn (Op.Exp, s)))
    | EUn (Op.Exp, EBin (Op.Add, s, x)) when is_uniform s && not (is_uniform x) ->
        rw (EBin (Op.Mul, EUn (Op.Exp, x), EUn (Op.Exp, s)))
    (* square expansion *)
    | EUn (Op.Sqr, EBin (Op.Sub, x, s)) when is_uniform s && not (is_uniform x) ->
        rw
          (EBin
             ( Op.Sub,
               EBin (Op.Add, EUn (Op.Sqr, x), EUn (Op.Sqr, s)),
               EBin (Op.Mul, EBin (Op.Mul, EConst 2.0, s), x) ))
    | EUn (Op.Sqr, EBin (Op.Add, x, s)) when is_uniform s && not (is_uniform x) ->
        rw
          (EBin
             ( Op.Add,
               EBin (Op.Add, EUn (Op.Sqr, x), EUn (Op.Sqr, s)),
               EBin (Op.Mul, EBin (Op.Mul, EConst 2.0, s), x) ))
    (* reductions of uniform values: a sum multiplies by the extent; a
       mean, max or min of a constant is the constant *)
    | ERed (Op.Rsum, s) when is_uniform s -> rw (EBin (Op.Mul, EConst (float_of_int extent), s))
    | ERed ((Op.Rmean | Op.Rmax | Op.Rmin), s) when is_uniform s -> rw s
    (* linear reductions distribute over +/- *)
    | ERed (op, EBin (Op.Add, a, b)) when Op.redop_is_linear op ->
        rw (EBin (Op.Add, ERed (op, a), ERed (op, b)))
    | ERed (op, EBin (Op.Sub, a, b)) when Op.redop_is_linear op ->
        rw (EBin (Op.Sub, ERed (op, a), ERed (op, b)))
    (* scalar factors move out of linear reductions *)
    | ERed (op, EBin (Op.Mul, x, s)) when Op.redop_is_linear op && is_uniform s && not (is_uniform x)
      ->
        rw (EBin (Op.Mul, ERed (op, x), s))
    | ERed (op, EBin (Op.Mul, s, x)) when Op.redop_is_linear op && is_uniform s && not (is_uniform x)
      ->
        rw (EBin (Op.Mul, ERed (op, x), s))
    | ERed (op, EBin (Op.Div, x, s)) when Op.redop_is_linear op && is_uniform s && not (is_uniform x)
      ->
        rw (EBin (Op.Div, ERed (op, x), s))
    (* scalar normalization: gather nested scalar divisors/multipliers *)
    | EBin (Op.Mul, EBin (Op.Div, x, s), y) when is_uniform s && not (is_uniform y) ->
        rw (EBin (Op.Div, EBin (Op.Mul, x, y), s))
    | EBin (Op.Mul, y, EBin (Op.Div, x, s)) when is_uniform s && not (is_uniform y) ->
        rw (EBin (Op.Div, EBin (Op.Mul, y, x), s))
    | EBin (Op.Div, EBin (Op.Div, x, a), b) -> rw (EBin (Op.Div, x, EBin (Op.Mul, a, b)))
    | EBin (Op.Mul, EBin (Op.Mul, x, s), y) when is_uniform s && not (is_uniform x) && not (is_uniform y)
      ->
        rw (EBin (Op.Mul, EBin (Op.Mul, x, y), s))
    | EBin (Op.Mul, y, EBin (Op.Mul, x, s)) when is_uniform s && not (is_uniform x) && not (is_uniform y)
      ->
        rw (EBin (Op.Mul, EBin (Op.Mul, y, x), s))
    (* scalars commute to the right of a varying operand *)
    | EBin (Op.Mul, s, x) when is_uniform s && not (is_uniform x) -> rw (EBin (Op.Mul, x, s))
    | e -> e
  in
  let e' = go e in
  (e', !changed)

and rewrite ~extent e =
  let rec fix e budget =
    if budget = 0 then e
    else
      let e', changed = rewrite_once ~extent e in
      if changed then fix e' (budget - 1) else e'
  in
  fix e 64

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

type nf = { nf_op : Op.redop; nf_core : expr; nf_scale : (atom * int) list }

(* Decompose a scalar expression into a monomial over maintainable atoms. *)
let rec monomial sign e =
  match e with
  | EConst c -> Some [ (AConst c, sign) ]
  | EScal n -> Some [ (AScal n, sign) ]
  | EUn (Op.Exp, EScal n) -> Some [ (AExp n, sign) ]
  | EBin (Op.Mul, a, b) -> (
      match (monomial sign a, monomial sign b) with
      | Some ma, Some mb -> Some (ma @ mb)
      | _ -> None)
  | EBin (Op.Div, a, b) -> (
      match (monomial sign a, monomial (-sign) b) with
      | Some ma, Some mb -> Some (ma @ mb)
      | _ -> None)
  | _ -> None

let rec contains_escal = function
  | EScal _ -> true
  | EIn _ | EConst _ | ERaw _ -> false
  | EUn (_, a) -> contains_escal a
  | EBin (_, a, b) -> contains_escal a || contains_escal b
  | ERed (_, a) -> contains_escal a

let free_escals e =
  let acc = ref [] in
  let rec go = function
    | EScal n -> if not (List.mem n !acc) then acc := n :: !acc
    | EIn _ | EConst _ | ERaw _ -> ()
    | EUn (_, a) | ERed (_, a) -> go a
    | EBin (_, a, b) ->
        go a;
        go b
  in
  go e;
  List.rev !acc

let extract e =
  let rec go e scale =
    match e with
    | ERed (op, core) when not (contains_escal core) ->
        Some { nf_op = op; nf_core = core; nf_scale = scale }
    | EBin (Op.Mul, x, s) when is_uniform s -> (
        match monomial 1 s with Some m -> go x (scale @ m) | None -> None)
    | EBin (Op.Div, x, s) when is_uniform s -> (
        match monomial (-1) s with Some m -> go x (scale @ m) | None -> None)
    | _ -> None
  in
  go e []

let collect_raws e =
  let slots = ref [] in
  let slot core =
    match List.find_opt (fun (_, c) -> c = core) !slots with
    | Some (i, _) -> i
    | None ->
        let i = List.length !slots in
        slots := !slots @ [ (i, core) ];
        i
  in
  let rec go = function
    | ERed (op, core) -> ERaw (slot (ERed (op, core)))
    | EUn (op, a) -> EUn (op, go a)
    | EBin (op, a, b) -> EBin (op, go a, go b)
    | (EIn _ | EScal _ | EConst _ | ERaw _) as e -> e
  in
  let value = go e in
  (List.map (fun (i, c) -> (i, c)) !slots, value)

let rec to_string = function
  | EIn (n, u) -> Printf.sprintf "%s%%%d" (if u then "~" else "") n
  | EScal n -> Printf.sprintf "S%d" n
  | EConst c -> Printf.sprintf "%g" c
  | ERaw i -> Printf.sprintf "R%d" i
  | EUn (op, a) -> Printf.sprintf "%s(%s)" (Op.unop_to_string op) (to_string a)
  | EBin (op, a, b) -> Printf.sprintf "%s(%s, %s)" (Op.binop_to_string op) (to_string a) (to_string b)
  | ERed (op, a) -> Printf.sprintf "red_%s(%s)" (Op.redop_to_string op) (to_string a)
