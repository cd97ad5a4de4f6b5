module J = Obs.Json
module K = Gpu.Kernel

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let dimsize_to_json = function
  | K.Blk d -> J.Obj [ ("blk", J.Str d) ]
  | K.Tile -> J.Str "tile"
  | K.Lit n -> J.Num (float_of_int n)

let tindex_to_json = function
  | K.IGrid d -> J.Obj [ ("g", J.Str d) ]
  | K.IStep -> J.Str "step"
  | K.IAll -> J.Str "*"

let idx_to_json idx = J.Arr (Array.to_list (Array.map tindex_to_json idx))

let instr_to_json = function
  | K.Load { tensor; dst; idx } ->
      J.Obj [ ("op", J.Str "load"); ("t", J.Str tensor); ("d", J.Str dst); ("i", idx_to_json idx) ]
  | K.Store { src; tensor; idx } ->
      J.Obj [ ("op", J.Str "store"); ("t", J.Str tensor); ("s", J.Str src); ("i", idx_to_json idx) ]
  | K.Fill (b, v) -> J.Obj [ ("op", J.Str "fill"); ("d", J.Str b); ("v", J.Num v) ]
  | K.Copy { dst; src } -> J.Obj [ ("op", J.Str "copy"); ("d", J.Str dst); ("s", J.Str src) ]
  | K.Gemm { dst; a; b; trans_b; accumulate } ->
      J.Obj
        [
          ("op", J.Str "gemm"); ("d", J.Str dst); ("a", J.Str a); ("b", J.Str b);
          ("tb", J.Bool trans_b); ("acc", J.Bool accumulate);
        ]
  | K.Unary { dst; op; src } ->
      J.Obj
        [ ("op", J.Str "un"); ("f", J.Str (Ir.Op.unop_to_string op)); ("d", J.Str dst); ("s", J.Str src) ]
  | K.Binary { dst; op; a; b } ->
      J.Obj
        [
          ("op", J.Str "bin"); ("f", J.Str (Ir.Op.binop_to_string op)); ("d", J.Str dst);
          ("a", J.Str a); ("b", J.Str b);
        ]
  | K.RowReduce { dst; op; src; accumulate } ->
      J.Obj
        [
          ("op", J.Str "rowred"); ("f", J.Str (Ir.Op.redop_to_string op)); ("d", J.Str dst);
          ("s", J.Str src); ("acc", J.Bool accumulate);
        ]
  | K.ColReduce { dst; op; src; accumulate } ->
      J.Obj
        [
          ("op", J.Str "colred"); ("f", J.Str (Ir.Op.redop_to_string op)); ("d", J.Str dst);
          ("s", J.Str src); ("acc", J.Bool accumulate);
        ]

let stage_to_json = function
  | K.Once is -> J.Obj [ ("once", J.Arr (List.map instr_to_json is)) ]
  | K.ForEachStep is -> J.Obj [ ("loop", J.Arr (List.map instr_to_json is)) ]

let buf_to_json (b : K.buf) =
  J.Obj
    [
      ("n", J.Str b.bname);
      ("scope", J.Str (match b.scope with K.Smem -> "smem" | K.Reg -> "reg"));
      ("r", dimsize_to_json b.brows);
      ("c", dimsize_to_json b.bcols);
    ]

let grid_to_json (g : K.grid_dim) =
  J.Obj
    [
      ("d", J.Str g.gdim);
      ("e", J.Num (float_of_int g.extent));
      ("b", J.Num (float_of_int g.block));
    ]

let kernel_to_json (k : K.t) =
  J.Obj
    [
      ("n", J.Str k.kname);
      ("grid", J.Arr (List.map grid_to_json k.grid));
      ( "temporal",
        match k.temporal with
        | None -> J.Null
        | Some (d, e, t) -> J.Arr [ J.Str d; J.Num (float_of_int e); J.Num (float_of_int t) ] );
      ("bufs", J.Arr (List.map buf_to_json k.bufs));
      ("stages", J.Arr (List.map stage_to_json k.stages));
      ("tags", J.Arr (List.map (fun t -> J.Str t) k.tags));
    ]

let plan_to_json (p : Gpu.Plan.t) =
  J.Obj
    [
      ("n", J.Str p.p_name);
      ("kernels", J.Arr (List.map kernel_to_json p.p_kernels));
      ( "decls",
        J.Arr
          (List.map
             (fun (name, shape) ->
               J.Arr
                 [
                   J.Str name;
                   J.Arr (Array.to_list (Array.map (fun d -> J.Num (float_of_int d)) shape));
                 ])
             p.p_decls) );
    ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let str = function J.Str s -> s | _ -> fail "expected string"
let bool_ = function J.Bool b -> b | _ -> fail "expected bool"
let num = function J.Num x -> x | _ -> fail "expected number"

let int_ j =
  let x = num j in
  if Float.is_integer x then int_of_float x else fail "expected integer"

let arr = function J.Arr xs -> xs | _ -> fail "expected array"

let field name j =
  match J.member name j with Some v -> v | None -> fail "missing field %S" name

(* Reverse operator maps, derived from the forward printers so the codec
   can never drift from {!Ir.Op}'s naming. *)
let all_unops =
  [
    Ir.Op.Exp; Ir.Op.Relu; Ir.Op.Sqrt; Ir.Op.Rsqrt; Ir.Op.Neg; Ir.Op.Recip; Ir.Op.Sqr;
    Ir.Op.Tanh; Ir.Op.Sigmoid; Ir.Op.Gelu;
  ]

let all_binops = [ Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.Div; Ir.Op.Max; Ir.Op.Min ]
let all_redops = [ Ir.Op.Rsum; Ir.Op.Rmax; Ir.Op.Rmin; Ir.Op.Rmean ]

let rev_find to_string ops kind s =
  match List.find_opt (fun o -> to_string o = s) ops with
  | Some o -> o
  | None -> fail "unknown %s %S" kind s

let unop_of s = rev_find Ir.Op.unop_to_string all_unops "unary op" s
let binop_of s = rev_find Ir.Op.binop_to_string all_binops "binary op" s
let redop_of s = rev_find Ir.Op.redop_to_string all_redops "reduction op" s

let dimsize_of_json = function
  | J.Str "tile" -> K.Tile
  | J.Num _ as n -> K.Lit (int_ n)
  | J.Obj _ as o -> K.Blk (str (field "blk" o))
  | _ -> fail "bad dimsize"

let tindex_of_json = function
  | J.Str "step" -> K.IStep
  | J.Str "*" -> K.IAll
  | J.Obj _ as o -> K.IGrid (str (field "g" o))
  | _ -> fail "bad tensor index"

let idx_of_json j = Array.of_list (List.map tindex_of_json (arr j))

let instr_of_json j =
  match str (field "op" j) with
  | "load" ->
      K.Load { tensor = str (field "t" j); dst = str (field "d" j); idx = idx_of_json (field "i" j) }
  | "store" ->
      K.Store { src = str (field "s" j); tensor = str (field "t" j); idx = idx_of_json (field "i" j) }
  | "fill" -> K.Fill (str (field "d" j), num (field "v" j))
  | "copy" -> K.Copy { dst = str (field "d" j); src = str (field "s" j) }
  | "gemm" ->
      K.Gemm
        {
          dst = str (field "d" j);
          a = str (field "a" j);
          b = str (field "b" j);
          trans_b = bool_ (field "tb" j);
          accumulate = bool_ (field "acc" j);
        }
  | "un" -> K.Unary { dst = str (field "d" j); op = unop_of (str (field "f" j)); src = str (field "s" j) }
  | "bin" ->
      K.Binary
        {
          dst = str (field "d" j);
          op = binop_of (str (field "f" j));
          a = str (field "a" j);
          b = str (field "b" j);
        }
  | "rowred" ->
      K.RowReduce
        {
          dst = str (field "d" j);
          op = redop_of (str (field "f" j));
          src = str (field "s" j);
          accumulate = bool_ (field "acc" j);
        }
  | "colred" ->
      K.ColReduce
        {
          dst = str (field "d" j);
          op = redop_of (str (field "f" j));
          src = str (field "s" j);
          accumulate = bool_ (field "acc" j);
        }
  | other -> fail "unknown instruction %S" other

let stage_of_json j =
  match J.member "once" j with
  | Some is -> K.Once (List.map instr_of_json (arr is))
  | None -> (
      match J.member "loop" j with
      | Some is -> K.ForEachStep (List.map instr_of_json (arr is))
      | None -> fail "bad stage")

let buf_of_json j =
  {
    K.bname = str (field "n" j);
    scope =
      (match str (field "scope" j) with
      | "smem" -> K.Smem
      | "reg" -> K.Reg
      | other -> fail "unknown buffer scope %S" other);
    brows = dimsize_of_json (field "r" j);
    bcols = dimsize_of_json (field "c" j);
  }

let grid_of_json j =
  { K.gdim = str (field "d" j); extent = int_ (field "e" j); block = int_ (field "b" j) }

let kernel_of_json j =
  let k =
    {
      K.kname = str (field "n" j);
      grid = List.map grid_of_json (arr (field "grid" j));
      temporal =
        (match field "temporal" j with
        | J.Null -> None
        | J.Arr [ d; e; t ] -> Some (str d, int_ e, int_ t)
        | _ -> fail "bad temporal");
      bufs = List.map buf_of_json (arr (field "bufs" j));
      stages = List.map stage_of_json (arr (field "stages" j));
      tags = List.map str (arr (field "tags" j));
    }
  in
  (* A payload may parse and still describe an ill-formed kernel (stale
     format, hand-edited file): re-run the structural validator so the
     loader sees a decode error, not a crash at execution time. *)
  (try K.validate k with Invalid_argument m -> fail "%s" m);
  k

let plan_of_json_exn j =
  let name = str (field "n" j) in
  let kernels = List.map kernel_of_json (arr (field "kernels" j)) in
  let decls =
    List.map
      (function
        | J.Arr [ name; dims ] ->
            let shape = Array.of_list (List.map int_ (arr dims)) in
            (try Shape.validate shape with Invalid_argument m -> fail "%s" m);
            (str name, shape)
        | _ -> fail "bad declaration")
      (arr (field "decls" j))
  in
  Gpu.Plan.make ~name ~kernels ~decls

let plan_of_json j =
  match plan_of_json_exn j with
  | p -> Ok p
  | exception Bad m -> Error m
  | exception Invalid_argument m -> Error m
