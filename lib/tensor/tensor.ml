(* Dense tensors over flat Bigarray (float64, C layout) buffers.

   The representation is the execution engine's data plane: buffers are
   unboxed, off the OCaml minor heap, and every kernel below is a tight
   index loop over [Bigarray.Array1.unsafe_get]/[unsafe_set] with stride
   tables precomputed per operation (never per element). An optional
   arena (see {!Arena}) recycles buffers across launches so steady-state
   model serving allocates nothing. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { shape : Shape.t; data : buf }

let fresh_buf n : buf = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n

external unsafe_get : buf -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : buf -> int -> float -> unit = "%caml_ba_unsafe_set_1"

(* ------------------------------------------------------------------ *)
(* Arena: size-bucketed free lists of buffers                          *)
(* ------------------------------------------------------------------ *)

module Arena = struct
  type t = {
    lock : Mutex.t;
    buckets : (int, buf list ref) Hashtbl.t;  (* exact element count -> free list *)
    max_bytes : int;
    mutable held_bytes : int;
    mutable n_hits : int;
    mutable n_misses : int;
    mutable n_evicted : int;
    (* Hard budget on bytes handed out and not yet released. [None]
       disables the check entirely; {!with_budget} scopes it so one
       request's allowance never charges the next. *)
    mutable budget_bytes : int option;
    mutable live_bytes : int;
    mutable n_allocs : int;
    mutable n_budget_trips : int;
  }

  let m_held = Obs.Metrics.gauge "arena.bytes_held"
  let m_hits = Obs.Metrics.counter "arena.hits"
  let m_misses = Obs.Metrics.counter "arena.misses"
  let m_evicted = Obs.Metrics.counter "arena.evicted"
  let m_trips = Obs.Metrics.counter "arena.budget_trips"

  let create ?(max_bytes = 1 lsl 28) () =
    if max_bytes < 0 then invalid_arg "Tensor.Arena.create: negative max_bytes";
    {
      lock = Mutex.create ();
      buckets = Hashtbl.create 32;
      max_bytes;
      held_bytes = 0;
      n_hits = 0;
      n_misses = 0;
      n_evicted = 0;
      budget_bytes = None;
      live_bytes = 0;
      n_allocs = 0;
      n_budget_trips = 0;
    }

  let locked a f =
    Mutex.lock a.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

  (* Buckets are exact-size: model workloads replay identical shapes, so
     exact keys reach near-total reuse without the aliasing risk of
     handing out oversized sub-views. Returned buffers hold stale data —
     every Tensor constructor below fully writes its output. *)
  let alloc a n =
    let reused =
      locked a (fun () ->
          (match a.budget_bytes with
          | Some budget when a.live_bytes + (8 * n) > budget ->
              a.n_budget_trips <- a.n_budget_trips + 1;
              `Exhausted (a.n_allocs, a.live_bytes + (8 * n), budget)
          | _ ->
              a.n_allocs <- a.n_allocs + 1;
              a.live_bytes <- a.live_bytes + (8 * n);
              match Hashtbl.find_opt a.buckets n with
              | Some ({ contents = b :: rest } as l) ->
                  l := rest;
                  a.held_bytes <- a.held_bytes - (8 * n);
                  a.n_hits <- a.n_hits + 1;
                  `Reused b
              | _ ->
                  a.n_misses <- a.n_misses + 1;
                  `Fresh))
    in
    match reused with
    | `Reused b ->
        Obs.Metrics.add m_held (-.float_of_int (8 * n));
        Obs.Metrics.incr m_hits;
        b
    | `Fresh ->
        Obs.Metrics.incr m_misses;
        fresh_buf n
    | `Exhausted (seq, want, budget) ->
        Obs.Metrics.incr m_trips;
        Fault.Inject.record Fault.Plan.Resource_exhausted;
        raise
          (Fault.Plan.Injected
             {
               Fault.Plan.f_kind = Fault.Plan.Resource_exhausted;
               f_kernel = Printf.sprintf "arena(%dB over %dB budget)" want budget;
               f_seq = seq;
             })

  let release a (b : buf) =
    let n = Bigarray.Array1.dim b in
    let kept =
      locked a (fun () ->
          a.live_bytes <- max 0 (a.live_bytes - (8 * n));
          if a.held_bytes + (8 * n) > a.max_bytes then begin
            a.n_evicted <- a.n_evicted + 1;
            false
          end
          else begin
            (match Hashtbl.find_opt a.buckets n with
            | Some l -> l := b :: !l
            | None -> Hashtbl.replace a.buckets n (ref [ b ]));
            a.held_bytes <- a.held_bytes + (8 * n);
            true
          end)
    in
    if kept then Obs.Metrics.add m_held (float_of_int (8 * n))
    else Obs.Metrics.incr m_evicted

  let bytes_held a = locked a (fun () -> a.held_bytes)
  let hits a = locked a (fun () -> a.n_hits)
  let misses a = locked a (fun () -> a.n_misses)
  let evicted a = locked a (fun () -> a.n_evicted)
  let live_bytes a = locked a (fun () -> a.live_bytes)
  let budget_trips a = locked a (fun () -> a.n_budget_trips)

  let with_budget a ~bytes f =
    if bytes < 0 then invalid_arg "Tensor.Arena.with_budget: negative budget";
    let saved =
      locked a (fun () ->
          let s = (a.budget_bytes, a.live_bytes) in
          a.budget_bytes <- Some bytes;
          a.live_bytes <- 0;
          s)
    in
    Fun.protect
      ~finally:(fun () ->
        locked a (fun () ->
            let budget, live = saved in
            a.budget_bytes <- budget;
            a.live_bytes <- live))
      f

  (* Ambient arena: per-domain, so allocation inside [with_arena] needs no
     plumbing through every operator. *)
  let ambient : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  let current () = !(Domain.DLS.get ambient)

  let with_arena a f =
    let cell = Domain.DLS.get ambient in
    let saved = !cell in
    cell := Some a;
    Fun.protect ~finally:(fun () -> cell := saved) f
end

(* Allocate [n] elements from the ambient arena if one is installed. *)
let alloc n = match Arena.current () with Some a -> Arena.alloc a n | None -> fresh_buf n

let release arena t = Arena.release arena t.data

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create shape v =
  Shape.validate shape;
  let data = alloc (Shape.numel shape) in
  Bigarray.Array1.fill data v;
  { shape; data }

let zeros shape = create shape 0.0
let ones shape = create shape 1.0

let scalar v =
  let data = alloc 1 in
  unsafe_set data 0 v;
  { shape = Shape.scalar; data }

let of_array shape (a : float array) =
  Shape.validate shape;
  let n = Shape.numel shape in
  if Array.length a <> n then
    invalid_arg
      (Printf.sprintf "Tensor.of_array: %d elements for shape %s" (Array.length a)
         (Shape.to_string shape));
  let data = alloc n in
  for i = 0 to n - 1 do
    unsafe_set data i (Array.unsafe_get a i)
  done;
  { shape; data }

let of_buffer shape (data : buf) =
  Shape.validate shape;
  if Bigarray.Array1.dim data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.of_buffer: %d elements for shape %s" (Bigarray.Array1.dim data)
         (Shape.to_string shape));
  { shape; data }

let init shape f =
  Shape.validate shape;
  let n = Shape.numel shape in
  let data = alloc n in
  let strides = Shape.strides shape in
  let idx = Array.make (Shape.rank shape) 0 in
  for i = 0 to n - 1 do
    Shape.unravel_into ~strides i idx;
    unsafe_set data i (f idx)
  done;
  { shape; data }

let randn ?(scale = 1.0) rng shape =
  Shape.validate shape;
  let n = Shape.numel shape in
  let data = alloc n in
  Rng.fill_normal rng ~scale data;
  { shape; data }

let arange n =
  let data = alloc n in
  for i = 0 to n - 1 do
    unsafe_set data i (float_of_int i)
  done;
  { shape = [| n |]; data }

(* ------------------------------------------------------------------ *)
(* Access                                                              *)
(* ------------------------------------------------------------------ *)

let shape t = t.shape
let numel t = Bigarray.Array1.dim t.data
let get t idx = t.data.{Shape.offset t.shape idx}
let set t idx v = t.data.{Shape.offset t.shape idx} <- v
let buffer t = t.data

let data t =
  let n = numel t in
  Array.init n (fun i -> unsafe_get t.data i)

let reshape t shape =
  Shape.validate shape;
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %s -> %s" (Shape.to_string t.shape) (Shape.to_string shape));
  { shape; data = t.data }

(* ------------------------------------------------------------------ *)
(* Elementwise                                                         *)
(* ------------------------------------------------------------------ *)

(* One row of a binary op: [len] outputs from [o], operands read from
   [oa]/[ob] stepping by [sa]/[sb] (1 along a contiguous last axis, 0
   where an operand broadcasts). Dispatching on the operator once per row
   keeps each loop to primitive float ops: no closure call, no boxing. *)
let binop_row op out o da oa sa db ob sb len =
  let pa = ref oa and pb = ref ob in
  match op with
  | `Add ->
      for j = o to o + len - 1 do
        unsafe_set out j (unsafe_get da !pa +. unsafe_get db !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | `Sub ->
      for j = o to o + len - 1 do
        unsafe_set out j (unsafe_get da !pa -. unsafe_get db !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | `Mul ->
      for j = o to o + len - 1 do
        unsafe_set out j (unsafe_get da !pa *. unsafe_get db !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | `Div ->
      for j = o to o + len - 1 do
        unsafe_set out j (unsafe_get da !pa /. unsafe_get db !pb);
        pa := !pa + sa;
        pb := !pb + sb
      done
  | `Max ->
      for j = o to o + len - 1 do
        unsafe_set out j (Float.max (unsafe_get da !pa) (unsafe_get db !pb));
        pa := !pa + sa;
        pb := !pb + sb
      done
  | `Min ->
      for j = o to o + len - 1 do
        unsafe_set out j (Float.min (unsafe_get da !pa) (unsafe_get db !pb));
        pa := !pa + sa;
        pb := !pb + sb
      done

(* Equal shapes run as one flat row. Otherwise both operands walk the
   output's index space through right-aligned stride tables (0 on
   broadcast axes): an odometer over every axis but the last keeps the
   row offsets incrementally (no per-element unravel), and each step runs
   one row over the last axis. *)
let binop op a b =
  if Shape.equal a.shape b.shape then begin
    let n = numel a in
    let out = alloc n in
    binop_row op out 0 a.data 0 1 b.data 0 1 n;
    { shape = a.shape; data = out }
  end
  else begin
    let out_shape = Shape.broadcast a.shape b.shape in
    let n = Shape.numel out_shape in
    let out = alloc n in
    let sa = Shape.broadcast_strides ~out:out_shape ~src:a.shape in
    let sb = Shape.broadcast_strides ~out:out_shape ~src:b.shape in
    (* Unequal shapes broadcast to rank >= 1, and no dim is 0. *)
    let last = Shape.rank out_shape - 1 in
    let len = out_shape.(last) in
    let rows = n / len in
    let idx = Array.make (last + 1) 0 in
    let oa = ref 0 and ob = ref 0 in
    for row = 0 to rows - 1 do
      binop_row op out (row * len) a.data !oa sa.(last) b.data !ob sb.(last) len;
      if row < rows - 1 then begin
        let d = ref (last - 1) in
        let carrying = ref true in
        while !carrying do
          let v = idx.(!d) + 1 in
          if v = out_shape.(!d) then begin
            idx.(!d) <- 0;
            oa := !oa - (sa.(!d) * (out_shape.(!d) - 1));
            ob := !ob - (sb.(!d) * (out_shape.(!d) - 1));
            decr d
          end
          else begin
            idx.(!d) <- v;
            oa := !oa + sa.(!d);
            ob := !ob + sb.(!d);
            carrying := false
          end
        done
      end
    done;
    { shape = out_shape; data = out }
  end

let add a b = binop `Add a b
let sub a b = binop `Sub a b
let mul a b = binop `Mul a b
let div a b = binop `Div a b
let maximum a b = binop `Max a b
let minimum a b = binop `Min a b

let unop_loop t g =
  let n = numel t in
  let out = alloc n in
  let src = t.data in
  g src out n;
  { shape = t.shape; data = out }

let neg t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (-.unsafe_get src i)
      done)

let exp t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (Stdlib.exp (unsafe_get src i))
      done)

let sqrt_ t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (Stdlib.sqrt (unsafe_get src i))
      done)

let relu t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (Float.max (unsafe_get src i) 0.0)
      done)

let tanh_ t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (Stdlib.tanh (unsafe_get src i))
      done)

let sigmoid t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (1.0 /. (1.0 +. Stdlib.exp (-.unsafe_get src i)))
      done)

let gelu =
  (* tanh approximation, as used by Bert-family models. *)
  let c = Stdlib.sqrt (2.0 /. Float.pi) in
  fun t ->
    unop_loop t (fun src out n ->
        for i = 0 to n - 1 do
          let x = unsafe_get src i in
          unsafe_set out i (0.5 *. x *. (1.0 +. Stdlib.tanh (c *. (x +. (0.044715 *. x *. x *. x)))))
        done)

let recip t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (1.0 /. unsafe_get src i)
      done)

let rsqrt t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (1.0 /. Stdlib.sqrt (unsafe_get src i))
      done)

let sqr t =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        let x = unsafe_get src i in
        unsafe_set out i (x *. x)
      done)

let add_scalar t v =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (unsafe_get src i +. v)
      done)

let mul_scalar t v =
  unop_loop t (fun src out n ->
      for i = 0 to n - 1 do
        unsafe_set out i (unsafe_get src i *. v)
      done)

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

let reduce op ~axis ~keepdims t =
  let a = Shape.normalize_axis t.shape axis in
  let out_shape = Shape.reduce t.shape ~axis:a ~keepdims in
  let extent = t.shape.(a) in
  (* Split indices into [outer; axis; inner]. *)
  let inner = ref 1 in
  for i = a + 1 to Shape.rank t.shape - 1 do
    inner := !inner * t.shape.(i)
  done;
  let outer = Shape.numel t.shape / (extent * !inner) in
  let inner = !inner in
  let out = alloc (outer * inner) in
  let src = t.data in
  (* One specialized loop per operator: the accumulator combine is a
     primitive float op, not a closure call per element. The source offset
     advances by [inner] per step of the reduced axis — same element
     order (ascending k) as the reference semantics. *)
  (match op with
  | `Sum ->
      for o = 0 to outer - 1 do
        for i = 0 to inner - 1 do
          let p = ref ((o * extent * inner) + i) in
          let acc = ref 0.0 in
          for _k = 0 to extent - 1 do
            acc := !acc +. unsafe_get src !p;
            p := !p + inner
          done;
          unsafe_set out ((o * inner) + i) !acc
        done
      done
  | `Mean ->
      let ext = float_of_int extent in
      for o = 0 to outer - 1 do
        for i = 0 to inner - 1 do
          let p = ref ((o * extent * inner) + i) in
          let acc = ref 0.0 in
          for _k = 0 to extent - 1 do
            acc := !acc +. unsafe_get src !p;
            p := !p + inner
          done;
          unsafe_set out ((o * inner) + i) (!acc /. ext)
        done
      done
  | `Max ->
      for o = 0 to outer - 1 do
        for i = 0 to inner - 1 do
          let p = ref ((o * extent * inner) + i) in
          let acc = ref Float.neg_infinity in
          for _k = 0 to extent - 1 do
            acc := Float.max !acc (unsafe_get src !p);
            p := !p + inner
          done;
          unsafe_set out ((o * inner) + i) !acc
        done
      done
  | `Min ->
      for o = 0 to outer - 1 do
        for i = 0 to inner - 1 do
          let p = ref ((o * extent * inner) + i) in
          let acc = ref Float.infinity in
          for _k = 0 to extent - 1 do
            acc := Float.min !acc (unsafe_get src !p);
            p := !p + inner
          done;
          unsafe_set out ((o * inner) + i) !acc
        done
      done);
  { shape = out_shape; data = out }

let sum ?(axis = -1) ?(keepdims = false) t = reduce `Sum ~axis ~keepdims t
let max_ ?(axis = -1) ?(keepdims = false) t = reduce `Max ~axis ~keepdims t
let mean ?(axis = -1) ?(keepdims = false) t = reduce `Mean ~axis ~keepdims t

let sum_all t =
  let n = numel t in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. unsafe_get t.data i
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Linear algebra                                                      *)
(* ------------------------------------------------------------------ *)

let matmul ?(trans_b = false) a b =
  let ra = Shape.rank a.shape and rb = Shape.rank b.shape in
  if ra < 2 || rb < 2 then invalid_arg "Tensor.matmul: operands must have rank >= 2";
  let m = a.shape.(ra - 2) and ka = a.shape.(ra - 1) in
  let n, kb =
    if trans_b then (b.shape.(rb - 2), b.shape.(rb - 1)) else (b.shape.(rb - 1), b.shape.(rb - 2))
  in
  if ka <> kb then
    invalid_arg
      (Printf.sprintf "Tensor.matmul: contraction mismatch %s x %s (trans_b=%b)"
         (Shape.to_string a.shape) (Shape.to_string b.shape) trans_b);
  let batch_a = Array.sub a.shape 0 (ra - 2) and batch_b = Array.sub b.shape 0 (rb - 2) in
  let batch = Shape.broadcast batch_a batch_b in
  let out_shape = Array.append batch [| m; n |] in
  let nb = Shape.numel batch in
  let out = alloc (nb * m * n) in
  let da = a.data and db = b.data in
  let sa = m * ka and sb = (if trans_b then n else kb) * if trans_b then ka else n in
  (* Per-batch source offsets through right-aligned stride tables (0 on
     broadcast axes); the batch index buffer is reused across batches. *)
  let bst = Shape.strides batch in
  let bsa = Shape.broadcast_strides ~out:batch ~src:batch_a in
  let bsb = Shape.broadcast_strides ~out:batch ~src:batch_b in
  let bidx = Array.make (Array.length batch) 0 in
  for bi = 0 to nb - 1 do
    Shape.unravel_into ~strides:bst bi bidx;
    let base_a = Shape.offset_with ~strides:bsa bidx * sa in
    let base_b = Shape.offset_with ~strides:bsb bidx * sb in
    let base_o = bi * m * n in
    if trans_b then begin
      (* C = A·Bᵀ: rows of both operands are contiguous. One dot product
         is a serial chain of float adds, bound by add latency, so a 2×4
         block of outputs runs as eight independent chains that share
         each loaded A and B element. Every chain still sums from 0.0 in
         ascending k, so results are bit-identical to the dot-product
         order. Past the last row or column the block re-reads the last
         one and skips its stores. *)
      let i = ref 0 in
      while !i < m do
        let pa0 = base_a + (!i * ka) in
        let pa1 = if !i + 1 < m then pa0 + ka else pa0 in
        let po0 = base_o + (!i * n) in
        let j = ref 0 in
        while !j < n do
          let j0 = !j in
          let pb0 = base_b + (j0 * ka) in
          let pb1 = if j0 + 1 < n then pb0 + ka else pb0 in
          let pb2 = if j0 + 2 < n then pb1 + ka else pb1 in
          let pb3 = if j0 + 3 < n then pb2 + ka else pb2 in
          let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
          let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
          for k = 0 to ka - 1 do
            let a0 = unsafe_get da (pa0 + k) and a1 = unsafe_get da (pa1 + k) in
            let b0 = unsafe_get db (pb0 + k) and b1 = unsafe_get db (pb1 + k) in
            let b2 = unsafe_get db (pb2 + k) and b3 = unsafe_get db (pb3 + k) in
            s00 := !s00 +. (a0 *. b0);
            s01 := !s01 +. (a0 *. b1);
            s02 := !s02 +. (a0 *. b2);
            s03 := !s03 +. (a0 *. b3);
            s10 := !s10 +. (a1 *. b0);
            s11 := !s11 +. (a1 *. b1);
            s12 := !s12 +. (a1 *. b2);
            s13 := !s13 +. (a1 *. b3)
          done;
          let po = po0 + j0 in
          unsafe_set out po !s00;
          if j0 + 1 < n then unsafe_set out (po + 1) !s01;
          if j0 + 2 < n then unsafe_set out (po + 2) !s02;
          if j0 + 3 < n then unsafe_set out (po + 3) !s03;
          if !i + 1 < m then begin
            let po = po + n in
            unsafe_set out po !s10;
            if j0 + 1 < n then unsafe_set out (po + 1) !s11;
            if j0 + 2 < n then unsafe_set out (po + 2) !s12;
            if j0 + 3 < n then unsafe_set out (po + 3) !s13
          end;
          j := j0 + 4
        done;
        i := !i + 2
      done
    end
    else begin
      (* C = A·B: i-k-j order streams B and C rows instead of striding B
         column-wise. k is unrolled 4-wide so each pass over j amortizes
         the C load/store over four multiply-adds; the additions still
         chain left-to-right in ascending k per output element, so results
         are bit-identical to the dot-product order. *)
      Bigarray.Array1.fill (Bigarray.Array1.sub out base_o (m * n)) 0.0;
      for i = 0 to m - 1 do
        let po = base_o + (i * n) in
        let pa = base_a + (i * ka) in
        let k = ref 0 in
        while !k + 3 < ka do
          let pk = pa + !k in
          let a0 = unsafe_get da pk
          and a1 = unsafe_get da (pk + 1)
          and a2 = unsafe_get da (pk + 2)
          and a3 = unsafe_get da (pk + 3) in
          let pb = base_b + (!k * n) in
          for j = 0 to n - 1 do
            unsafe_set out (po + j)
              (unsafe_get out (po + j)
              +. (a0 *. unsafe_get db (pb + j))
              +. (a1 *. unsafe_get db (pb + n + j))
              +. (a2 *. unsafe_get db (pb + (2 * n) + j))
              +. (a3 *. unsafe_get db (pb + (3 * n) + j)))
          done;
          k := !k + 4
        done;
        while !k < ka do
          let aik = unsafe_get da (pa + !k) in
          let pb = base_b + (!k * n) in
          for j = 0 to n - 1 do
            unsafe_set out (po + j) (unsafe_get out (po + j) +. (aik *. unsafe_get db (pb + j)))
          done;
          incr k
        done
      done
    end
  done;
  { shape = out_shape; data = out }

let softmax ~axis t =
  let m = reduce `Max ~axis ~keepdims:true t in
  let e = exp (sub t m) in
  let s = reduce `Sum ~axis ~keepdims:true e in
  div e s

let layernorm ?(eps = 1e-5) ?gamma ?beta ~axis t =
  let mu = reduce `Mean ~axis ~keepdims:true t in
  let centered = sub t mu in
  let var = reduce `Mean ~axis ~keepdims:true (sqr centered) in
  let normalized = div centered (sqrt_ (add_scalar var eps)) in
  let scaled = match gamma with None -> normalized | Some g -> mul normalized g in
  match beta with None -> scaled | Some b -> add scaled b

(* ------------------------------------------------------------------ *)
(* Comparison and printing                                             *)
(* ------------------------------------------------------------------ *)

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg
      (Printf.sprintf "Tensor.max_abs_diff: %s vs %s" (Shape.to_string a.shape)
         (Shape.to_string b.shape));
  let d = ref 0.0 in
  for i = 0 to numel a - 1 do
    d := Float.max !d (Float.abs (unsafe_get a.data i -. unsafe_get b.data i))
  done;
  !d

let allclose ?(rtol = 1e-5) ?(atol = 1e-8) a b =
  Shape.equal a.shape b.shape
  &&
  let ok = ref true in
  for i = 0 to numel a - 1 do
    let x = unsafe_get a.data i and y = unsafe_get b.data i in
    (* Non-finite values must match exactly (NaN never matches anything):
       a NaN would otherwise slip through, since NaN comparisons are all
       false. *)
    if Float.is_finite x && Float.is_finite y then begin
      if Float.abs (x -. y) > atol +. (rtol *. Float.abs y) then ok := false
    end
    else if not (x = y) then ok := false
  done;
  !ok

let pp fmt t =
  let n = numel t in
  let shown = min n 8 in
  Format.fprintf fmt "Tensor%s[" (Shape.to_string t.shape);
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf fmt "; ";
    Format.fprintf fmt "%g" (unsafe_get t.data i)
  done;
  if n > shown then Format.fprintf fmt "; ...";
  Format.fprintf fmt "]"

let to_string t = Format.asprintf "%a" pp t
