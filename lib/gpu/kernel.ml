type scope = Smem | Reg

type dimsize = Blk of string | Tile | Lit of int

type buf = { bname : string; scope : scope; brows : dimsize; bcols : dimsize }

type tindex = IGrid of string | IStep | IAll

type instr =
  | Load of { tensor : string; dst : string; idx : tindex array }
  | Store of { src : string; tensor : string; idx : tindex array }
  | Fill of string * float
  | Copy of { dst : string; src : string }
  | Gemm of { dst : string; a : string; b : string; trans_b : bool; accumulate : bool }
  | Unary of { dst : string; op : Ir.Op.unop; src : string }
  | Binary of { dst : string; op : Ir.Op.binop; a : string; b : string }
  | RowReduce of { dst : string; op : Ir.Op.redop; src : string; accumulate : bool }
  | ColReduce of { dst : string; op : Ir.Op.redop; src : string; accumulate : bool }

type stage = Once of instr list | ForEachStep of instr list

type grid_dim = { gdim : string; extent : int; block : int }

type t = {
  kname : string;
  grid : grid_dim list;
  temporal : (string * int * int) option;
  bufs : buf list;
  stages : stage list;
  tags : string list;
}

let ceil_div a b = (a + b - 1) / b

let num_blocks k = List.fold_left (fun acc g -> acc * ceil_div g.extent g.block) 1 k.grid

let num_steps k = match k.temporal with None -> 1 | Some (_, extent, tile) -> ceil_div extent tile

let resolve k = function
  | Lit n -> n
  | Tile -> (
      match k.temporal with
      | Some (_, _, tile) -> tile
      | None -> invalid_arg (Printf.sprintf "Kernel %s: Tile size without temporal loop" k.kname))
  | Blk d -> (
      match List.find_opt (fun g -> g.gdim = d) k.grid with
      | Some g -> g.block
      | None -> invalid_arg (Printf.sprintf "Kernel %s: no grid dim %S" k.kname d))

let buf_capacity k b = (resolve k b.brows, resolve k b.bcols)

let bytes_of_scope k scope =
  List.fold_left
    (fun acc b ->
      if b.scope = scope then
        let r, c = buf_capacity k b in
        acc + (r * c * Arch.elt_bytes)
      else acc)
    0 k.bufs

let smem_bytes k = bytes_of_scope k Smem
let reg_bytes k = bytes_of_scope k Reg

let instr_bufs = function
  | Load { dst; _ } -> [ dst ]
  | Store { src; _ } -> [ src ]
  | Fill (b, _) -> [ b ]
  | Copy { dst; src } -> [ dst; src ]
  | Gemm { dst; a; b; _ } -> [ dst; a; b ]
  | Unary { dst; src; _ } -> [ dst; src ]
  | Binary { dst; a; b; _ } -> [ dst; a; b ]
  | RowReduce { dst; src; _ } -> [ dst; src ]
  | ColReduce { dst; src; _ } -> [ dst; src ]

let instrs k = List.concat_map (function Once is | ForEachStep is -> is) k.stages

let validate k =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Kernel " ^ k.kname ^ ": " ^ m)) fmt in
  let names = List.map (fun b -> b.bname) k.bufs in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  (match dup names with Some n -> fail "duplicate buffer %S" n | None -> ());
  (match dup (List.map (fun g -> g.gdim) k.grid) with
  | Some n -> fail "duplicate grid dim %S" n
  | None -> ());
  List.iter
    (fun g ->
      if g.extent <= 0 || g.block <= 0 then fail "grid dim %S has non-positive sizes" g.gdim)
    k.grid;
  (match k.temporal with
  | Some (d, extent, tile) ->
      if extent <= 0 || tile <= 0 then fail "temporal dim %S has non-positive sizes" d
  | None -> ());
  List.iter (fun b -> ignore (buf_capacity k b)) k.bufs;
  let has_temporal = k.temporal <> None in
  let check_idx where idx =
    Array.iter
      (function
        | IGrid d ->
            if not (List.exists (fun g -> g.gdim = d) k.grid) then
              fail "%s references unknown grid dim %S" where d
        | IStep -> if not has_temporal then fail "%s uses IStep without temporal loop" where
        | IAll -> ())
      idx
  in
  let in_loop_instrs =
    List.concat_map (function ForEachStep is -> is | Once _ -> []) k.stages
  in
  List.iter
    (fun i ->
      List.iter
        (fun b -> if not (List.mem b names) then fail "instruction references unknown buffer %S" b)
        (instr_bufs i);
      match i with
      | Load { idx; tensor; _ } -> check_idx ("load of " ^ tensor) idx
      | Store { idx; tensor; _ } -> check_idx ("store of " ^ tensor) idx
      | RowReduce { op = Ir.Op.Rmean; _ } | ColReduce { op = Ir.Op.Rmean; _ } ->
          fail "reductions of Rmean must be lowered to Rsum"
      (* A GEMM overwrites its output while still reading its operands. *)
      | Gemm { dst; a; b; _ } when dst = a || dst = b ->
          fail "gemm writes %S, one of its own operands" dst
      | _ -> ())
    (instrs k);
  (* An IStep transfer outside the loop would be meaningless. *)
  List.iter
    (fun i ->
      if not (List.memq i in_loop_instrs) then
        match i with
        | Load { idx; tensor; _ } | Store { idx; tensor; _ } ->
            if Array.exists (( = ) IStep) idx then
              fail "transfer of %S uses IStep outside the temporal loop" tensor
        | _ -> ())
    (instrs k)

let tindex_to_string = function IGrid d -> "g:" ^ d | IStep -> "step" | IAll -> "*"

let idx_to_string idx = String.concat "," (Array.to_list (Array.map tindex_to_string idx))

let instr_to_string = function
  | Load { tensor; dst; idx } -> Printf.sprintf "%s <- load %s[%s]" dst tensor (idx_to_string idx)
  | Store { src; tensor; idx } -> Printf.sprintf "store %s[%s] <- %s" tensor (idx_to_string idx) src
  | Fill (b, v) -> Printf.sprintf "%s <- fill %g" b v
  | Copy { dst; src } -> Printf.sprintf "%s <- copy %s" dst src
  | Gemm { dst; a; b; trans_b; accumulate } ->
      Printf.sprintf "%s %s gemm(%s, %s%s)" dst (if accumulate then "+=" else "<-") a b
        (if trans_b then "ᵀ" else "")
  | Unary { dst; op; src } -> Printf.sprintf "%s <- %s %s" dst (Ir.Op.unop_to_string op) src
  | Binary { dst; op; a; b } -> Printf.sprintf "%s <- %s(%s, %s)" dst (Ir.Op.binop_to_string op) a b
  | RowReduce { dst; op; src; accumulate } ->
      Printf.sprintf "%s %s row%s %s" dst (if accumulate then "+=" else "<-") (Ir.Op.redop_to_string op) src
  | ColReduce { dst; op; src; accumulate } ->
      Printf.sprintf "%s %s col%s %s" dst (if accumulate then "+=" else "<-") (Ir.Op.redop_to_string op) src

let pp fmt k =
  Format.fprintf fmt "@[<v>kernel %s@," k.kname;
  Format.fprintf fmt "  grid: %s@,"
    (String.concat " x "
       (List.map (fun g -> Printf.sprintf "%s(%d/%d)" g.gdim g.extent g.block) k.grid));
  (match k.temporal with
  | Some (d, e, t) -> Format.fprintf fmt "  temporal: %s(%d/%d)@," d e t
  | None -> ());
  List.iter
    (fun b ->
      let r, c = buf_capacity k b in
      Format.fprintf fmt "  buf %s : %s %dx%d@," b.bname
        (match b.scope with Smem -> "smem" | Reg -> "reg")
        r c)
    k.bufs;
  List.iteri
    (fun i s ->
      let label, is = match s with Once is -> ("once", is) | ForEachStep is -> ("loop", is) in
      Format.fprintf fmt "  stage %d (%s):@," i label;
      List.iter (fun inst -> Format.fprintf fmt "    %s@," (instr_to_string inst)) is)
    k.stages;
  Format.fprintf fmt "@]"
