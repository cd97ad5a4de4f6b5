type env = (string * Tensor.t) list

(* The env is consulted once per Input/Weight node; index it up front so
   each binding is a table probe instead of a list scan. First binding
   wins, matching [List.assoc_opt] on duplicate names. *)
let index env =
  let tbl = Hashtbl.create (max 8 (2 * List.length env)) in
  List.iter (fun (name, t) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name t) env;
  tbl

let lookup tbl name shape =
  match Hashtbl.find_opt tbl name with
  | None -> invalid_arg (Printf.sprintf "Interp: missing binding for %S" name)
  | Some t ->
      if not (Shape.equal (Tensor.shape t) shape) then
        invalid_arg
          (Printf.sprintf "Interp: %S has shape %s, expected %s" name
             (Shape.to_string (Tensor.shape t))
             (Shape.to_string shape));
      t

(* Dispatch to Tensor's specialized kernels. Each named kernel computes
   the same float expression as [Op.apply_unop]/[Op.apply_binop], so the
   results stay bit-identical to the closure path. *)
let apply_unop op t =
  match op with
  | Op.Exp -> Tensor.exp t
  | Op.Relu -> Tensor.relu t
  | Op.Sqrt -> Tensor.sqrt_ t
  | Op.Neg -> Tensor.neg t
  | Op.Recip -> Tensor.recip t
  | Op.Sqr -> Tensor.sqr t
  | Op.Tanh -> Tensor.tanh_ t
  | Op.Sigmoid -> Tensor.sigmoid t
  | Op.Gelu -> Tensor.gelu t
  | Op.Rsqrt -> Tensor.rsqrt t

let apply_binop op a b =
  match op with
  | Op.Add -> Tensor.add a b
  | Op.Sub -> Tensor.sub a b
  | Op.Mul -> Tensor.mul a b
  | Op.Div -> Tensor.div a b
  | Op.Max -> Tensor.maximum a b
  | Op.Min -> Tensor.minimum a b

let eval_all g env =
  let bindings = index env in
  let values = Array.make (Graph.num_nodes g) (Tensor.scalar 0.0) in
  List.iter
    (fun (n : Graph.node) ->
      let v =
        match n.kind with
        | Graph.Input name | Graph.Weight name -> lookup bindings name n.shape
        | Graph.Const c -> Tensor.scalar c
        | Graph.Unary (op, a) -> apply_unop op values.(a)
        | Graph.Binary (op, a, b) -> apply_binop op values.(a) values.(b)
        | Graph.Reduce { op; axis; keepdims; arg } ->
            let which =
              match op with Op.Rsum -> `Sum | Op.Rmax -> `Max | Op.Rmin -> `Min | Op.Rmean -> `Mean
            in
            Tensor.reduce which ~axis ~keepdims values.(arg)
        | Graph.Matmul { a; b; trans_b } -> Tensor.matmul ~trans_b values.(a) values.(b)
      in
      values.(n.id) <- v)
    (Graph.nodes g);
  values

let eval g env =
  let values = eval_all g env in
  List.map (fun id -> values.(id)) (Graph.outputs g)

let random_env ?(seed = 42) ?(scale = 0.5) g =
  let rng = Rng.create seed in
  (* Sampling order is part of the deterministic contract: inputs first,
     then weights, each in declaration order. One accumulating pass — no
     intermediate per-section lists, no [@] concatenation. *)
  let bind acc (name, shape) = (name, Tensor.randn ~scale rng shape) :: acc in
  let drawn = List.fold_left bind (List.fold_left bind [] (Graph.inputs g)) (Graph.weights g) in
  List.rev drawn
