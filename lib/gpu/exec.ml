type mode = Full | Analytic

type transfer = {
  tr_tensor : string;
  tr_requested : int;
  tr_unique : int;
  tr_per_block : int;
  tr_passes : int;
}

type kstats = {
  ks_name : string;
  ks_blocks : int;
  ks_steps : int;
  ks_gemm_flops : float;
  ks_simd_flops : float;
  ks_smem_bytes : int;
  ks_reg_bytes : int;
  ks_moved_bytes : float;
  ks_reads : transfer list;
  ks_writes : transfer list;
  ks_tags : string list;
}

exception Resource_exceeded of string

let ceil_div a b = (a + b - 1) / b

external unsafe_get : Tensor.buf -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : Tensor.buf -> int -> float -> unit = "%caml_ba_unsafe_set_1"

(* ------------------------------------------------------------------ *)
(* Compiled kernels                                                    *)
(* ------------------------------------------------------------------ *)

(* A kernel's step list is compiled once into a closure-free execution
   record: buffer and grid-dim names resolved to integer slots, block/step
   segment classes tabulated. Launching
   then walks flat arrays instead of re-interpreting the step structure
   (name lookups) per launch. Full walks compute each block's and step's
   (origin, segment) on the fly, so compiling costs O(kernel size) however
   large the grid: the tuner compiles every candidate for an Analytic walk
   that never visits individual blocks. *)

type ridx = RAll | RStep | RGrid of int  (* grid slot *)

type rdim = RDim of int | RTile | RLit of int

type cbuf = {
  cb_name : string;
  cb_rows_cap : int;
  cb_cols_cap : int;
  cb_cap : int;  (* rows_cap * cols_cap, >= 1 *)
  cb_rdim : rdim;  (* Fill extents, pre-resolved *)
  cb_cdim : rdim;
}

type cop =
  | CLoad of { tensor : string; dst : int; idx : ridx array; nominal : int array }
  | CStore of { src : int; tensor : string; idx : ridx array; nominal : int array }
  | CFill of { dst : int; v : float }
  | CCopy of { dst : int; src : int }
  | CUnary of { dst : int; src : int; op : Ir.Op.unop }
  | CBinary of { dst : int; a : int; b : int; op : Ir.Op.binop; aliased : bool }
  | CRowReduce of { dst : int; src : int; op : Ir.Op.redop; accumulate : bool }
  | CColReduce of { dst : int; src : int; op : Ir.Op.redop; accumulate : bool }
  | CGemm of { dst : int; a : int; b : int; trans_b : bool; accumulate : bool }

type compiled = {
  ck : Kernel.t;
  cbufs : cbuf array;
  cgrid : (int * int) array;  (* per grid dim: (extent, block) *)
  cclasses : (int * int) array array;  (* per grid dim: (segment, multiplicity) classes *)
  cstep_extent : int;  (* temporal extent; 1 without a temporal loop *)
  cstep_classes : (int * int) array;  (* (segment, multiplicity) *)
  cnominal_tile : int;
  csmem : int;
  cregs : int;
  cscratch : int;  (* bytes=no; elements of aliasing-binary scratch, 0 if unused *)
  cstages : (bool * cop array) array;  (* (in temporal loop?, ops) *)
}

(* Segment classes: (segment, multiplicity). *)
let seg_classes extent block =
  let n = extent / block and rem = extent mod block in
  Array.of_list
    ((if n > 0 then [ (block, n) ] else []) @ if rem > 0 then [ (rem, 1) ] else [])

let compile (k : Kernel.t) =
  Kernel.validate k;
  let grid = Array.of_list k.grid in
  let dim_slot d =
    let rec go i =
      if i >= Array.length grid then invalid_arg (Printf.sprintf "Exec: unknown grid dim %S" d)
      else if grid.(i).Kernel.gdim = d then i
      else go (i + 1)
    in
    go 0
  in
  let rdim_of = function
    | Kernel.Lit n -> RLit n
    | Kernel.Tile -> RTile
    | Kernel.Blk d -> RDim (dim_slot d)
  in
  let bufs = Array.of_list k.bufs in
  let buf_slot name =
    let rec go i =
      if i >= Array.length bufs then invalid_arg (Printf.sprintf "Exec: unknown buffer %S" name)
      else if bufs.(i).Kernel.bname = name then i
      else go (i + 1)
    in
    go 0
  in
  let cbufs =
    Array.map
      (fun (b : Kernel.buf) ->
        let r, c = Kernel.buf_capacity k b in
        {
          cb_name = b.bname;
          cb_rows_cap = r;
          cb_cols_cap = c;
          cb_cap = max 1 (r * c);
          cb_rdim = rdim_of b.brows;
          cb_cdim = rdim_of b.bcols;
        })
      bufs
  in
  let step_extent, nominal_tile =
    match k.temporal with Some (_, extent, t) -> (extent, t) | None -> (1, 1)
  in
  let ridx_of = function
    | Kernel.IAll -> RAll
    | Kernel.IStep -> RStep
    | Kernel.IGrid d -> RGrid (dim_slot d)
  in
  (* Nominal (non-edge) extent of one axis transfer, used for stable
     row/column orientation. *)
  let nominal_of = function
    | Kernel.IAll -> max_int (* resolved against the axis extent at launch *)
    | Kernel.IStep -> nominal_tile
    | Kernel.IGrid d -> grid.(dim_slot d).Kernel.block
  in
  let scratch = ref 0 in
  let cop_of = function
    | Kernel.Load { tensor; dst; idx } ->
        CLoad { tensor; dst = buf_slot dst; idx = Array.map ridx_of idx; nominal = Array.map nominal_of idx }
    | Kernel.Store { src; tensor; idx } ->
        CStore { src = buf_slot src; tensor; idx = Array.map ridx_of idx; nominal = Array.map nominal_of idx }
    | Kernel.Fill (name, v) -> CFill { dst = buf_slot name; v }
    | Kernel.Copy { dst; src } -> CCopy { dst = buf_slot dst; src = buf_slot src }
    | Kernel.Unary { dst; op; src } -> CUnary { dst = buf_slot dst; src = buf_slot src; op }
    | Kernel.Binary { dst; op; a; b } ->
        let dst = buf_slot dst and a = buf_slot a and b = buf_slot b in
        let aliased = dst = a || dst = b in
        if aliased then scratch := max !scratch cbufs.(dst).cb_cap;
        CBinary { dst; a; b; op; aliased }
    | Kernel.RowReduce { dst; op; src; accumulate } ->
        CRowReduce { dst = buf_slot dst; src = buf_slot src; op; accumulate }
    | Kernel.ColReduce { dst; op; src; accumulate } ->
        CColReduce { dst = buf_slot dst; src = buf_slot src; op; accumulate }
    | Kernel.Gemm { dst; a; b; trans_b; accumulate } ->
        CGemm { dst = buf_slot dst; a = buf_slot a; b = buf_slot b; trans_b; accumulate }
  in
  let cstages =
    Array.of_list
      (List.map
         (function
           | Kernel.Once is -> (false, Array.of_list (List.map cop_of is))
           | Kernel.ForEachStep is -> (true, Array.of_list (List.map cop_of is)))
         k.stages)
  in
  {
    ck = k;
    cbufs;
    cgrid = Array.map (fun (g : Kernel.grid_dim) -> (g.extent, g.block)) grid;
    cclasses = Array.map (fun (g : Kernel.grid_dim) -> seg_classes g.extent g.block) grid;
    cstep_extent = step_extent;
    cstep_classes = seg_classes step_extent nominal_tile;
    cnominal_tile = nominal_tile;
    csmem = Kernel.smem_bytes k;
    cregs = Kernel.reg_bytes k;
    cscratch = !scratch;
    cstages;
  }

(* Compiled records are cached by the kernel's physical identity. Warm
   Analytic plan runs read their plan's memoised walk ([Plan.walk]) and
   never launch here; the table serves the tuner's candidate costing, each
   plan's first walk, Full walks (first runs and the oracle) and plans
   with no memo. *)
module KTbl = Hashtbl.Make (struct
  type t = Kernel.t

  let equal = ( == )
  let hash = Stdlib.Hashtbl.hash
end)

let cache : compiled KTbl.t = KTbl.create 64
let cache_lock = Mutex.create ()
let cache_cap = 512

let compiled_of k =
  Mutex.lock cache_lock;
  match KTbl.find_opt cache k with
  | Some c ->
      Mutex.unlock cache_lock;
      c
  | None ->
      Mutex.unlock cache_lock;
      (* Compile outside the lock ([compile] may raise on an invalid
         kernel; those never enter the cache and re-raise on every run,
         matching the old per-launch validation). *)
      let c = compile k in
      Mutex.lock cache_lock;
      if KTbl.length cache >= cache_cap then KTbl.reset cache;
      KTbl.replace cache k c;
      Mutex.unlock cache_lock;
      c

(* ------------------------------------------------------------------ *)
(* Launch state                                                        *)
(* ------------------------------------------------------------------ *)

type rbuf = {
  spec : cbuf;
  store : Tensor.buf;  (* capacity-sized; empty in analytic mode *)
  mutable rows : int;  (* active extent *)
  mutable cols : int;
}

(* Block/step coordinates for the current walk position. Analytic walks
   set origins to 0 and carry a class multiplicity instead. *)
type rctx = {
  origins : int array;  (* per grid slot *)
  segs : int array;
  mutable step_o : int;
  mutable step_s : int;
  mutable mult : float;
}

type acc = { mutable gemm_flops : float; mutable simd_flops : float; mutable bytes : float }

let empty_store : Tensor.buf = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout 0

let alloc_store n =
  let b =
    match Tensor.Arena.current () with
    | Some a -> Tensor.Arena.alloc a n
    | None -> Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n
  in
  Bigarray.Array1.fill b 0.0;
  b

let release_store b =
  if Bigarray.Array1.dim b > 0 then
    match Tensor.Arena.current () with Some a -> Tensor.Arena.release a b | None -> ()

let make_rbufs ~full c =
  Array.map
    (fun cb ->
      { spec = cb; store = (if full then alloc_store cb.cb_cap else empty_store); rows = 0; cols = 0 })
    c.cbufs

let resolve_rdim ctx = function
  | RLit n -> n
  | RTile -> ctx.step_s
  | RDim slot -> ctx.segs.(slot)

(* Edge-clamped (origin, segment) of transfer axis [i]. *)
let seg_at ctx (shape : Shape.t) (idx : ridx array) i =
  let extent = shape.(i) in
  match idx.(i) with
  | RAll -> (0, extent)
  | RStep ->
      let o = ctx.step_o in
      if o >= extent then (o, 0) else (o, min ctx.step_s (extent - o))
  | RGrid g ->
      let o = ctx.origins.(g) in
      if o >= extent then (o, 0) else (o, min ctx.segs.(g) (extent - o))

(* Which axes map to tile rows/cols. At most two axes may have nominal
   length > 1; a single wide axis orients against the destination buffer.
   Returns axis indices, -1 for "none". *)
let mapped_axes ~nominal (shape : Shape.t) ~buf_cols_capacity =
  let a1 = ref (-1) and a2 = ref (-1) and extra = ref false in
  Array.iteri
    (fun i n ->
      if min n shape.(i) > 1 then
        if !a1 < 0 then a1 := i else if !a2 < 0 then a2 := i else extra := true)
    nominal;
  if !extra then invalid_arg "Exec: transfer touches more than two non-unit axes";
  if !a1 < 0 then (-1, -1)
  else if !a2 < 0 then if buf_cols_capacity = 1 then (!a1, -1) else (-1, !a1)
  else (!a1, !a2)

let check_rank (idx : ridx array) (shape : Shape.t) =
  if Array.length idx <> Array.length shape then
    invalid_arg
      (Printf.sprintf "Exec: transfer rank %d does not match tensor rank %d" (Array.length idx)
         (Array.length shape))

let binary_dims kname (a : rbuf) (b : rbuf) =
  let broadcast x y =
    if x = y then x
    else if x = 1 then y
    else if y = 1 then x
    else invalid_arg (Printf.sprintf "Exec %s: broadcast mismatch %d vs %d" kname x y)
  in
  (broadcast a.rows b.rows, broadcast a.cols b.cols)

(* ------------------------------------------------------------------ *)
(* Elementwise loops                                                   *)
(* ------------------------------------------------------------------ *)

(* Each loop evaluates the float expression [Ir.Op.apply_unop],
   [apply_binop] or [redop_combine] gives for its operator, inline: one
   loop per operator, so no element goes through a closure call or a box. *)

let gelu_c = sqrt (2.0 /. Float.pi)

let unary_loop (op : Ir.Op.unop) src dst n =
  match op with
  | Exp ->
      for i = 0 to n - 1 do
        unsafe_set dst i (exp (unsafe_get src i))
      done
  | Relu ->
      for i = 0 to n - 1 do
        unsafe_set dst i (Float.max (unsafe_get src i) 0.0)
      done
  | Sqrt ->
      for i = 0 to n - 1 do
        unsafe_set dst i (sqrt (unsafe_get src i))
      done
  | Rsqrt ->
      for i = 0 to n - 1 do
        unsafe_set dst i (1.0 /. sqrt (unsafe_get src i))
      done
  | Neg ->
      for i = 0 to n - 1 do
        unsafe_set dst i (-.unsafe_get src i)
      done
  | Recip ->
      for i = 0 to n - 1 do
        unsafe_set dst i (1.0 /. unsafe_get src i)
      done
  | Sqr ->
      for i = 0 to n - 1 do
        let x = unsafe_get src i in
        unsafe_set dst i (x *. x)
      done
  | Tanh ->
      for i = 0 to n - 1 do
        unsafe_set dst i (tanh (unsafe_get src i))
      done
  | Sigmoid ->
      for i = 0 to n - 1 do
        unsafe_set dst i (1.0 /. (1.0 +. exp (-.unsafe_get src i)))
      done
  | Gelu ->
      for i = 0 to n - 1 do
        let x = unsafe_get src i in
        unsafe_set dst i (0.5 *. x *. (1.0 +. tanh (gelu_c *. (x +. (0.044715 *. x *. x *. x)))))
      done

(* [n] outputs from [o]; operands from [pa]/[pb], stepping by [sa]/[sb]
   (0 for a broadcast column). *)
let binary_row (op : Ir.Op.binop) out o a pa sa b pb sb n =
  let pa = ref pa and pb = ref pb in
  match op with
  | Add ->
      for j = o to o + n - 1 do
        unsafe_set out j (unsafe_get a !pa +. unsafe_get b !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | Sub ->
      for j = o to o + n - 1 do
        unsafe_set out j (unsafe_get a !pa -. unsafe_get b !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | Mul ->
      for j = o to o + n - 1 do
        unsafe_set out j (unsafe_get a !pa *. unsafe_get b !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | Div ->
      for j = o to o + n - 1 do
        unsafe_set out j (unsafe_get a !pa /. unsafe_get b !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | Max ->
      for j = o to o + n - 1 do
        unsafe_set out j (Float.max (unsafe_get a !pa) (unsafe_get b !pb));
        pa := !pa + sa;
        pb := !pb + sb
      done
  | Min ->
      for j = o to o + n - 1 do
        unsafe_set out j (Float.min (unsafe_get a !pa) (unsafe_get b !pb));
        pa := !pa + sa;
        pb := !pb + sb
      done

(* Reduce [n] elements of [src] from [p] by [stride] into [dst.(o)],
   folding from the operator's identity; with [accumulate] the old
   [dst.(o)] is combined with the result last. *)
let reduce_into (op : Ir.Op.redop) ~accumulate src p stride n dst o =
  let p = ref p in
  match op with
  | Rsum | Rmean ->
      let a = ref 0.0 in
      for _ = 1 to n do
        a := !a +. unsafe_get src !p;
        p := !p + stride
      done;
      unsafe_set dst o (if accumulate then unsafe_get dst o +. !a else !a)
  | Rmax ->
      let a = ref Float.neg_infinity in
      for _ = 1 to n do
        a := Float.max !a (unsafe_get src !p);
        p := !p + stride
      done;
      unsafe_set dst o (if accumulate then Float.max (unsafe_get dst o) !a else !a)
  | Rmin ->
      let a = ref Float.infinity in
      for _ = 1 to n do
        a := Float.min !a (unsafe_get src !p);
        p := !p + stride
      done;
      unsafe_set dst o (if accumulate then Float.min (unsafe_get dst o) !a else !a)

(* ------------------------------------------------------------------ *)
(* Instruction semantics                                               *)
(* ------------------------------------------------------------------ *)

(* Flat offset of a transfer's first element. Every axis's segment must be
   non-empty: a grid axis that is not a tile axis (a unit-blocked batch
   dim) adds its origin here without ever shrinking the tile, so an
   origin past a tensor's extent would read or write outside its buffer. *)
let transfer_base ~kname ~what ~tensor ctx (shape : Shape.t) idx =
  let strides = Shape.strides shape in
  let base = ref 0 in
  for i = 0 to Array.length idx - 1 do
    let o, s = seg_at ctx shape idx i in
    if s = 0 then
      invalid_arg
        (Printf.sprintf "Exec %s: %s of %S at axis %d: origin %d is past extent %d" kname what
           tensor i o shape.(i));
    base := !base + (o * strides.(i))
  done;
  (!base, strides)

let exec_cop ~full ~(c : compiled) ~device ~(bufs : rbuf array) ~(scratch : Tensor.buf) ~acc ctx
    cop =
  let kname = c.ck.kname in
  let simd n = acc.simd_flops <- acc.simd_flops +. (ctx.mult *. float_of_int n) in
  match cop with
  | CLoad { tensor; dst; idx; nominal } ->
      let shape = Device.shape device tensor in
      check_rank idx shape;
      let d = bufs.(dst) in
      let row_axis, col_axis = mapped_axes ~nominal shape ~buf_cols_capacity:d.spec.cb_cols_cap in
      let r = if row_axis < 0 then 1 else snd (seg_at ctx shape idx row_axis) in
      let c_ = if col_axis < 0 then 1 else snd (seg_at ctx shape idx col_axis) in
      d.rows <- r;
      d.cols <- c_;
      acc.bytes <- acc.bytes +. (ctx.mult *. float_of_int (r * c_ * Arch.elt_bytes));
      if full && r * c_ > 0 then begin
        let data = Device.ensure_data device tensor in
        let base, strides = transfer_base ~kname ~what:"load" ~tensor ctx shape idx in
        let sr = if row_axis < 0 then 0 else strides.(row_axis) in
        let sc = if col_axis < 0 then 0 else strides.(col_axis) in
        let st = d.store in
        for i = 0 to r - 1 do
          let db = base + (i * sr) in
          let ob = i * c_ in
          for j = 0 to c_ - 1 do
            unsafe_set st (ob + j) (unsafe_get data (db + (j * sc)))
          done
        done
      end
  | CStore { src; tensor; idx; nominal } ->
      let shape = Device.shape device tensor in
      check_rank idx shape;
      let s = bufs.(src) in
      let row_axis, col_axis = mapped_axes ~nominal shape ~buf_cols_capacity:s.cols in
      let r = if row_axis < 0 then 1 else snd (seg_at ctx shape idx row_axis) in
      let c_ = if col_axis < 0 then 1 else snd (seg_at ctx shape idx col_axis) in
      if r <> s.rows || c_ <> s.cols then
        invalid_arg
          (Printf.sprintf "Exec %s: store of %S expects %dx%d, buffer %S is %dx%d" kname tensor r
             c_ s.spec.cb_name s.rows s.cols);
      acc.bytes <- acc.bytes +. (ctx.mult *. float_of_int (r * c_ * Arch.elt_bytes));
      if full && r * c_ > 0 then begin
        let data = Device.ensure_data device tensor in
        let base, strides = transfer_base ~kname ~what:"store" ~tensor ctx shape idx in
        let sr = if row_axis < 0 then 0 else strides.(row_axis) in
        let sc = if col_axis < 0 then 0 else strides.(col_axis) in
        let st = s.store in
        for i = 0 to r - 1 do
          let db = base + (i * sr) in
          let ob = i * c_ in
          for j = 0 to c_ - 1 do
            unsafe_set data (db + (j * sc)) (unsafe_get st (ob + j))
          done
        done
      end
  | CFill { dst; v } ->
      let b = bufs.(dst) in
      let r = resolve_rdim ctx b.spec.cb_rdim and c_ = resolve_rdim ctx b.spec.cb_cdim in
      b.rows <- r;
      b.cols <- c_;
      simd (r * c_);
      if full then begin
        let st = b.store in
        for i = 0 to (r * c_) - 1 do
          unsafe_set st i v
        done
      end
  | CCopy { dst; src } ->
      let s = bufs.(src) and d = bufs.(dst) in
      d.rows <- s.rows;
      d.cols <- s.cols;
      simd (s.rows * s.cols);
      if full then begin
        let ss = s.store and ds = d.store in
        for i = 0 to (s.rows * s.cols) - 1 do
          unsafe_set ds i (unsafe_get ss i)
        done
      end
  | CUnary { dst; src; op } ->
      let s = bufs.(src) and d = bufs.(dst) in
      d.rows <- s.rows;
      d.cols <- s.cols;
      simd (s.rows * s.cols);
      if full then unary_loop op s.store d.store (s.rows * s.cols)
  | CBinary { dst; a; b; op; aliased } ->
      let ba = bufs.(a) and bb = bufs.(b) in
      let d = bufs.(dst) in
      let r, c_ = binary_dims kname ba bb in
      simd (r * c_);
      if full then begin
        (* [dst] may alias an operand (detected at compile time); write
           through the launch scratch and blit back. *)
        let ra = ba.rows and ca = ba.cols and rb = bb.rows and cb = bb.cols in
        let sa = ba.store and sb = bb.store in
        let out = if aliased then scratch else d.store in
        let ja = if ca = 1 then 0 else 1 and jb = if cb = 1 then 0 else 1 in
        for i = 0 to r - 1 do
          let ia = if ra = 1 then 0 else i and ib = if rb = 1 then 0 else i in
          binary_row op out (i * c_) sa (ia * ca) ja sb (ib * cb) jb c_
        done;
        if aliased then begin
          let ds = d.store in
          for i = 0 to (r * c_) - 1 do
            unsafe_set ds i (unsafe_get out i)
          done
        end
      end;
      d.rows <- r;
      d.cols <- c_
  | CRowReduce { dst; src; op; accumulate } ->
      let s = bufs.(src) and d = bufs.(dst) in
      if accumulate && (d.rows <> s.rows || d.cols <> 1) then
        invalid_arg (Printf.sprintf "Exec %s: accumulating RowReduce into %S with stale dims" kname d.spec.cb_name);
      simd (s.rows * s.cols);
      if full then
        for i = 0 to s.rows - 1 do
          reduce_into op ~accumulate s.store (i * s.cols) 1 s.cols d.store i
        done;
      d.rows <- s.rows;
      d.cols <- 1
  | CColReduce { dst; src; op; accumulate } ->
      let s = bufs.(src) and d = bufs.(dst) in
      if accumulate && (d.rows <> 1 || d.cols <> s.cols) then
        invalid_arg (Printf.sprintf "Exec %s: accumulating ColReduce into %S with stale dims" kname d.spec.cb_name);
      simd (s.rows * s.cols);
      if full then
        for j = 0 to s.cols - 1 do
          reduce_into op ~accumulate s.store j s.cols s.rows d.store j
        done;
      d.rows <- 1;
      d.cols <- s.cols
  | CGemm { dst; a; b; trans_b; accumulate } ->
      let ba = bufs.(a) and bb = bufs.(b) in
      let d = bufs.(dst) in
      let r = ba.rows and ka = ba.cols in
      let c_, kb = if trans_b then (bb.rows, bb.cols) else (bb.cols, bb.rows) in
      if ka <> kb then
        invalid_arg (Printf.sprintf "Exec %s: gemm contraction mismatch %d vs %d" kname ka kb);
      if accumulate && (d.rows <> r || d.cols <> c_) then
        invalid_arg (Printf.sprintf "Exec %s: accumulating gemm into %S with stale dims" kname d.spec.cb_name);
      acc.gemm_flops <- acc.gemm_flops +. (ctx.mult *. float_of_int (2 * r * c_ * ka));
      if full then begin
        let sa = ba.store and sb = bb.store and sd = d.store in
        (* C = A·Bᵀ, or C += A·Bᵀ with [accumulate]; rows of both operands
           are contiguous. A block of outputs runs as independent chains
           that share each loaded A and B element, each chain summing from
           0.0 in ascending k and, when accumulating, added to C last, so
           results match the one-dot-at-a-time order bit for bit. Past the
           last row or column a block re-reads the last one and skips its
           stores. The block is 2×4, or 4×1 for a tile under 4 columns wide
           (a streamed GEMV would spend most of a 2×4 block's chains on
           re-read columns). Deliberately not shared with [Tensor.matmul]:
           the oracle compares the two. *)
        if trans_b && c_ < 4 then begin
          let i = ref 0 in
          while !i < r do
            let pa0 = !i * ka in
            let pa1 = if !i + 1 < r then pa0 + ka else pa0 in
            let pa2 = if !i + 2 < r then pa1 + ka else pa1 in
            let pa3 = if !i + 3 < r then pa2 + ka else pa2 in
            for j = 0 to c_ - 1 do
              let pb = j * ka in
              let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
              for kk = 0 to ka - 1 do
                let b0 = unsafe_get sb (pb + kk) in
                s0 := !s0 +. (unsafe_get sa (pa0 + kk) *. b0);
                s1 := !s1 +. (unsafe_get sa (pa1 + kk) *. b0);
                s2 := !s2 +. (unsafe_get sa (pa2 + kk) *. b0);
                s3 := !s3 +. (unsafe_get sa (pa3 + kk) *. b0)
              done;
              let po = (!i * c_) + j in
              unsafe_set sd po (if accumulate then unsafe_get sd po +. !s0 else !s0);
              if !i + 1 < r then begin
                let po = po + c_ in
                unsafe_set sd po (if accumulate then unsafe_get sd po +. !s1 else !s1)
              end;
              if !i + 2 < r then begin
                let po = po + (2 * c_) in
                unsafe_set sd po (if accumulate then unsafe_get sd po +. !s2 else !s2)
              end;
              if !i + 3 < r then begin
                let po = po + (3 * c_) in
                unsafe_set sd po (if accumulate then unsafe_get sd po +. !s3 else !s3)
              end
            done;
            i := !i + 4
          done
        end
        else if trans_b then begin
          let i = ref 0 in
          while !i < r do
            let pa0 = !i * ka in
            let pa1 = if !i + 1 < r then pa0 + ka else pa0 in
            let j = ref 0 in
            while !j < c_ do
              let j0 = !j in
              let pb0 = j0 * ka in
              let pb1 = if j0 + 1 < c_ then pb0 + ka else pb0 in
              let pb2 = if j0 + 2 < c_ then pb1 + ka else pb1 in
              let pb3 = if j0 + 3 < c_ then pb2 + ka else pb2 in
              let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
              let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
              for kk = 0 to ka - 1 do
                let a0 = unsafe_get sa (pa0 + kk) and a1 = unsafe_get sa (pa1 + kk) in
                let b0 = unsafe_get sb (pb0 + kk) and b1 = unsafe_get sb (pb1 + kk) in
                let b2 = unsafe_get sb (pb2 + kk) and b3 = unsafe_get sb (pb3 + kk) in
                s00 := !s00 +. (a0 *. b0);
                s01 := !s01 +. (a0 *. b1);
                s02 := !s02 +. (a0 *. b2);
                s03 := !s03 +. (a0 *. b3);
                s10 := !s10 +. (a1 *. b0);
                s11 := !s11 +. (a1 *. b1);
                s12 := !s12 +. (a1 *. b2);
                s13 := !s13 +. (a1 *. b3)
              done;
              let po = (!i * c_) + j0 in
              unsafe_set sd po (if accumulate then unsafe_get sd po +. !s00 else !s00);
              if j0 + 1 < c_ then
                unsafe_set sd (po + 1) (if accumulate then unsafe_get sd (po + 1) +. !s01 else !s01);
              if j0 + 2 < c_ then
                unsafe_set sd (po + 2) (if accumulate then unsafe_get sd (po + 2) +. !s02 else !s02);
              if j0 + 3 < c_ then
                unsafe_set sd (po + 3) (if accumulate then unsafe_get sd (po + 3) +. !s03 else !s03);
              if !i + 1 < r then begin
                let po = po + c_ in
                unsafe_set sd po (if accumulate then unsafe_get sd po +. !s10 else !s10);
                if j0 + 1 < c_ then
                  unsafe_set sd (po + 1) (if accumulate then unsafe_get sd (po + 1) +. !s11 else !s11);
                if j0 + 2 < c_ then
                  unsafe_set sd (po + 2) (if accumulate then unsafe_get sd (po + 2) +. !s12 else !s12);
                if j0 + 3 < c_ then
                  unsafe_set sd (po + 3) (if accumulate then unsafe_get sd (po + 3) +. !s13 else !s13)
              end;
              j := j0 + 4
            done;
            i := !i + 2
          done
        end
        else if accumulate then
          (* Keep the dot-then-add association so accumulated results stay
             bit-identical to the reference executor. *)
          for i = 0 to r - 1 do
            let pa = i * ka in
            let po = i * c_ in
            for j = 0 to c_ - 1 do
              let s = ref 0.0 in
              for kk = 0 to ka - 1 do
                s := !s +. (unsafe_get sa (pa + kk) *. unsafe_get sb ((kk * c_) + j))
              done;
              unsafe_set sd (po + j) (unsafe_get sd (po + j) +. !s)
            done
          done
        else begin
          (* C = A·B: i-k-j order streams B and C rows instead of striding
             B column-wise, with k unrolled 4-wide so each pass over j
             amortizes the C load/store over four multiply-adds; per
             output element the additions still run left to right in
             ascending k, so results match the dot-product order bit for
             bit. *)
          for i = 0 to (r * c_) - 1 do
            unsafe_set sd i 0.0
          done;
          for i = 0 to r - 1 do
            let pa = i * ka in
            let po = i * c_ in
            let kk = ref 0 in
            while !kk + 3 < ka do
              let pk = pa + !kk in
              let a0 = unsafe_get sa pk
              and a1 = unsafe_get sa (pk + 1)
              and a2 = unsafe_get sa (pk + 2)
              and a3 = unsafe_get sa (pk + 3) in
              let pb = !kk * c_ in
              for j = 0 to c_ - 1 do
                unsafe_set sd (po + j)
                  (unsafe_get sd (po + j)
                  +. (a0 *. unsafe_get sb (pb + j))
                  +. (a1 *. unsafe_get sb (pb + c_ + j))
                  +. (a2 *. unsafe_get sb (pb + (2 * c_) + j))
                  +. (a3 *. unsafe_get sb (pb + (3 * c_) + j)))
              done;
              kk := !kk + 4
            done;
            while !kk < ka do
              let aik = unsafe_get sa (pa + !kk) in
              let pb = !kk * c_ in
              for j = 0 to c_ - 1 do
                unsafe_set sd (po + j) (unsafe_get sd (po + j) +. (aik *. unsafe_get sb (pb + j)))
              done;
              incr kk
            done
          done
        end
      end;
      d.rows <- r;
      d.cols <- c_

(* ------------------------------------------------------------------ *)
(* Transfer summary (closed form)                                      *)
(* ------------------------------------------------------------------ *)

let transfers device (k : Kernel.t) =
  let nsteps = Kernel.num_steps k in
  let step_tile = match k.temporal with Some (_, _, tile) -> tile | None -> 1 in
  let table : (bool * string * Kernel.tindex array, int * int * int) Hashtbl.t =
    Hashtbl.create 16
  in
  let record ~in_loop ~is_read tensor idx =
    let shape = Device.shape device tensor in
    let used_grid = ref [] in
    let uses_step = ref false in
    let requested = ref 1 and per_block = ref 1 in
    Array.iteri
      (fun i ix ->
        let extent = shape.(i) in
        match ix with
        | Kernel.IAll ->
            requested := !requested * extent;
            per_block := !per_block * extent
        | Kernel.IStep ->
            (* One pass touches one step tile of this axis, not the whole
               temporal extent: [tr_per_block] feeds the L1 re-pass model,
               which asks whether a single traversal's slice is resident. *)
            uses_step := true;
            requested := !requested * extent;
            per_block := !per_block * min step_tile extent
        | Kernel.IGrid d ->
            used_grid := d :: !used_grid;
            let g = List.find (fun (g : Kernel.grid_dim) -> g.gdim = d) k.grid in
            requested := !requested * extent;
            per_block := !per_block * min g.block extent)
      idx;
    List.iter
      (fun (g : Kernel.grid_dim) ->
        if not (List.mem g.gdim !used_grid) then
          requested := !requested * ceil_div g.extent g.block)
      k.grid;
    if in_loop && not !uses_step then requested := !requested * nsteps;
    let key = (is_read, tensor, idx) in
    let req, pb, passes =
      match Hashtbl.find_opt table key with Some x -> x | None -> (0, 0, 0)
    in
    Hashtbl.replace table key (req + !requested, max pb !per_block, passes + 1)
  in
  List.iter
    (fun stage ->
      let in_loop, is_ = match stage with Kernel.Once is -> (false, is) | Kernel.ForEachStep is -> (true, is) in
      List.iter
        (function
          | Kernel.Load { tensor; idx; _ } -> record ~in_loop ~is_read:true tensor idx
          | Kernel.Store { tensor; idx; _ } -> record ~in_loop ~is_read:false tensor idx
          | _ -> ())
        is_)
    k.stages;
  let reads = ref [] and writes = ref [] in
  Hashtbl.iter
    (fun (is_read, tensor, _) (req, pb, passes) ->
      let unique = Shape.numel (Device.shape device tensor) * Arch.elt_bytes in
      let tr =
        {
          tr_tensor = tensor;
          tr_requested = req * Arch.elt_bytes;
          tr_unique = unique;
          tr_per_block = pb * Arch.elt_bytes;
          tr_passes = passes;
        }
      in
      if is_read then reads := tr :: !reads else writes := tr :: !writes)
    table;
  (!reads, !writes)

(* ------------------------------------------------------------------ *)
(* Walks                                                               *)
(* ------------------------------------------------------------------ *)

let run_stages ~full ~c ~device ~bufs ~scratch ~acc (ctx : rctx) =
  let base_mult = ctx.mult in
  Array.iter
    (fun (in_loop, ops) ->
      if not in_loop then begin
        ctx.step_o <- 0;
        ctx.step_s <- c.cnominal_tile;
        ctx.mult <- base_mult;
        Array.iter (exec_cop ~full ~c ~device ~bufs ~scratch ~acc ctx) ops
      end
      else if full then begin
        let extent = c.cstep_extent and tile = c.cnominal_tile in
        for i = 0 to ceil_div extent tile - 1 do
          let o = i * tile in
          ctx.step_o <- o;
          ctx.step_s <- min tile (extent - o);
          ctx.mult <- base_mult;
          Array.iter (exec_cop ~full ~c ~device ~bufs ~scratch ~acc ctx) ops
        done
      end
      else
        Array.iter
          (fun (s, count) ->
            ctx.step_o <- 0;
            ctx.step_s <- s;
            ctx.mult <- base_mult *. float_of_int count;
            Array.iter (exec_cop ~full ~c ~device ~bufs ~scratch ~acc ctx) ops)
          c.cstep_classes)
    c.cstages

(* Walk the cartesian product of per-dim positions with an odometer (last
   dim fastest), matching the old recursive enumeration order exactly so
   the counter accumulation order — and thus every float sum — is
   unchanged. A Full walk visits block [p] of a dim at origin [p·block]
   with its edge-clamped segment; an Analytic walk visits the dim's
   segment classes.

   With [shard = (i, d)] a full walk executes only the blocks whose walk
   index is congruent to [i] mod [d] — device [i]'s round-robin share of
   the grid. Spatial slicing guarantees inter-block independence, so d
   devices each running their residue class write disjoint output regions
   and the union is bit-identical to the single-device walk. *)
let walk ~full ~shard ~(c : compiled) ~device ~bufs ~scratch ~acc =
  let nd = Array.length c.cgrid in
  let positions =
    Array.init nd (fun i ->
        if full then
          let extent, block = c.cgrid.(i) in
          ceil_div extent block
        else Array.length c.cclasses.(i))
  in
  let ctx =
    {
      origins = Array.make nd 0;
      segs = Array.make nd 0;
      step_o = 0;
      step_s = c.cnominal_tile;
      mult = 1.0;
    }
  in
  let counters = Array.make nd 0 in
  let set_dim i p =
    if full then begin
      let extent, block = c.cgrid.(i) in
      let o = p * block in
      ctx.origins.(i) <- o;
      ctx.segs.(i) <- min block (extent - o)
    end
    else begin
      ctx.origins.(i) <- 0;
      ctx.segs.(i) <- fst c.cclasses.(i).(p)
    end
  in
  for i = 0 to nd - 1 do
    set_dim i 0
  done;
  let block_mult () =
    if full then 1.0
    else begin
      let m = ref 1.0 in
      for i = 0 to nd - 1 do
        m := !m *. float_of_int (snd c.cclasses.(i).(counters.(i)))
      done;
      !m
    end
  in
  let continue_ = ref true in
  let block_idx = ref 0 in
  let mine =
    match shard with
    | None -> fun _ -> true
    | Some (i, d) -> fun bi -> bi mod d = i
  in
  while !continue_ do
    if mine !block_idx then begin
      ctx.mult <- block_mult ();
      run_stages ~full ~c ~device ~bufs ~scratch ~acc ctx
    end;
    incr block_idx;
    let d = ref (nd - 1) in
    let stepped = ref false in
    while (not !stepped) && !d >= 0 do
      let ni = counters.(!d) + 1 in
      if ni < positions.(!d) then begin
        counters.(!d) <- ni;
        set_dim !d ni;
        stepped := true
      end
      else begin
        counters.(!d) <- 0;
        set_dim !d 0;
        decr d
      end
    done;
    if not !stepped then continue_ := false
  done

let run ?(mode = Full) ?arch ?shard device (k : Kernel.t) =
  (match shard with
  | Some (i, d) ->
      if d < 1 || i < 0 || i >= d then
        invalid_arg (Printf.sprintf "Exec.run: bad shard (%d, %d)" i d)
  | None -> ());
  let c = compiled_of k in
  (match arch with
  | Some (a : Arch.t) ->
      if c.csmem > a.smem_per_block then
        raise
          (Resource_exceeded
             (Printf.sprintf "kernel %s: %d B shared memory > %d B budget on %s" k.kname c.csmem
                a.smem_per_block a.name));
      if c.cregs > a.regfile_bytes then
        raise
          (Resource_exceeded
             (Printf.sprintf "kernel %s: %d B register tiles > %d B budget on %s" k.kname c.cregs
                a.regfile_bytes a.name))
  | None -> ());
  (* A validated, in-budget kernel is what reaches the "hardware": this is
     the launch point, so the fault injector (if any) decides here. *)
  (match Device.faults device with
  | Some inj -> Fault.Inject.launch inj ~kernel:k.kname
  | None -> ());
  let acc = { gemm_flops = 0.0; simd_flops = 0.0; bytes = 0.0 } in
  let full = mode = Full in
  let bufs = make_rbufs ~full c in
  let scratch = if full && c.cscratch > 0 then alloc_store c.cscratch else empty_store in
  Fun.protect
    ~finally:(fun () ->
      if full then begin
        Array.iter (fun b -> release_store b.store) bufs;
        release_store scratch
      end)
    (fun () -> walk ~full ~shard:(if full then shard else None) ~c ~device ~bufs ~scratch ~acc);
  let reads, writes = transfers device k in
  {
    ks_name = k.kname;
    ks_blocks = Kernel.num_blocks k;
    ks_steps = Kernel.num_steps k;
    ks_gemm_flops = acc.gemm_flops;
    ks_simd_flops = acc.simd_flops;
    ks_smem_bytes = c.csmem;
    ks_reg_bytes = c.cregs;
    ks_moved_bytes = acc.bytes;
    ks_reads = reads;
    ks_writes = writes;
    ks_tags = k.tags;
  }
