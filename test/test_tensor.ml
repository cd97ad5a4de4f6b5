(* Unit and property tests for the dense tensor substrate. *)

let t_of l shape = Tensor.of_array shape (Array.of_list l)

let check_tensor msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s vs %s" msg (Tensor.to_string expected) (Tensor.to_string actual))
    true
    (Tensor.allclose ~rtol:1e-9 ~atol:1e-12 expected actual)

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)
(* ------------------------------------------------------------------ *)

let test_shape_basics () =
  Alcotest.(check int) "numel" 24 (Shape.numel [| 2; 3; 4 |]);
  Alcotest.(check int) "numel scalar" 1 (Shape.numel [||]);
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides [| 2; 3; 4 |]);
  Alcotest.(check int) "offset" 23 (Shape.offset [| 2; 3; 4 |] [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "unravel" [| 1; 2; 3 |] (Shape.unravel [| 2; 3; 4 |] 23)

let test_shape_broadcast () =
  Alcotest.(check (array int)) "same" [| 2; 3 |] (Shape.broadcast [| 2; 3 |] [| 2; 3 |]);
  Alcotest.(check (array int)) "vs vector" [| 2; 3 |] (Shape.broadcast [| 2; 3 |] [| 3 |]);
  Alcotest.(check (array int)) "vs scalar" [| 2; 3 |] (Shape.broadcast [| 2; 3 |] [||]);
  Alcotest.(check (array int)) "ones expand" [| 4; 3; 5 |] (Shape.broadcast [| 4; 1; 5 |] [| 3; 1 |]);
  Alcotest.(check bool) "incompatible" false (Shape.broadcastable [| 2; 3 |] [| 4 |])

let test_shape_reduce () =
  Alcotest.(check (array int)) "drop axis" [| 2; 4 |] (Shape.reduce [| 2; 3; 4 |] ~axis:1 ~keepdims:false);
  Alcotest.(check (array int)) "keepdims" [| 2; 1; 4 |] (Shape.reduce [| 2; 3; 4 |] ~axis:1 ~keepdims:true);
  Alcotest.(check (array int)) "negative axis" [| 2; 3 |] (Shape.reduce [| 2; 3; 4 |] ~axis:(-1) ~keepdims:false)

let test_shape_errors () =
  Alcotest.check_raises "validate" (Invalid_argument "Shape.validate: non-positive dim in [2x0]")
    (fun () -> Shape.validate [| 2; 0 |]);
  Alcotest.check_raises "axis range"
    (Invalid_argument "Shape.normalize_axis: axis 3 out of range for [2x3]") (fun () ->
      ignore (Shape.normalize_axis [| 2; 3 |] 3))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 10 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done;
  let c = Rng.split a in
  Alcotest.(check bool) "split differs" true (Rng.float c <> Rng.float a)

(* The streams every seeded input in the repository is drawn from: the
   first eight draws of fresh generators, pinned bit for bit. *)
let test_rng_pinned () =
  let draws f r = List.init 8 (fun _ -> f r) in
  let check_floats msg expected actual =
    Alcotest.(check (list int64)) msg
      (List.map Int64.bits_of_float expected)
      (List.map Int64.bits_of_float actual)
  in
  List.iter
    (fun (seed, ints, floats, normals) ->
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %d next_int64" seed)
        ints
        (draws Rng.next_int64 (Rng.create seed));
      check_floats (Printf.sprintf "seed %d float" seed) floats
        (draws Rng.float (Rng.create seed));
      check_floats (Printf.sprintf "seed %d normal" seed) normals
        (draws Rng.normal (Rng.create seed)))
    [
      ( 0,
        [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
          0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ],
        [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1;
          0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
        [ -0x1.cf9fb99cfab92p-2; 0x1.53470d1ebc1f5p+1; -0x1.fa2a51dfe785dp-1; 0x1.0285969ebe6b7p-2;
          0x1.99992ecac5d52p+0; 0x1.81fae2d6ddccbp-4; -0x1.11c125d48b7fep+0; -0x1.a66ed714dc55fp-1 ] );
      ( 42,
        [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
          0x09bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ],
        [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
          0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ],
        [ 0x1.a8ac4b546f509p-2; -0x1.c8a54f4e91a7cp-1; 0x1.bac69cd4142bfp+0; 0x1.175b8fd2de8bap-1;
          -0x1.1495f183d321dp+0; -0x1.c76296a7a60e6p+0; -0x1.25473fd96d151p+0; 0x1.0ab38bced1168p-2 ] );
    ];
  Alcotest.(check (list int64))
    "split of seed 42"
    [ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L; 0x113e5dec6f8fd8a8L;
      0xad4a599062fd1739L; 0x11485b98a7ea20b7L; 0x32028f50341ebd74L; 0xbc16a3d4cc48678eL ]
    (draws Rng.next_int64 (Rng.split (Rng.create 42)))

let test_rng_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

(* ------------------------------------------------------------------ *)
(* Tensor ops                                                          *)
(* ------------------------------------------------------------------ *)

let test_elementwise () =
  let a = t_of [ 1.; 2.; 3.; 4. ] [| 2; 2 |] in
  let b = t_of [ 10.; 20.; 30.; 40. ] [| 2; 2 |] in
  check_tensor "add" (t_of [ 11.; 22.; 33.; 44. ] [| 2; 2 |]) (Tensor.add a b);
  check_tensor "mul" (t_of [ 10.; 40.; 90.; 160. ] [| 2; 2 |]) (Tensor.mul a b);
  check_tensor "neg" (t_of [ -1.; -2.; -3.; -4. ] [| 2; 2 |]) (Tensor.neg a)

let test_broadcast_ops () =
  let a = t_of [ 1.; 2.; 3.; 4.; 5.; 6. ] [| 2; 3 |] in
  let row = t_of [ 10.; 20.; 30. ] [| 3 |] in
  let col = t_of [ 100.; 200. ] [| 2; 1 |] in
  check_tensor "row broadcast" (t_of [ 11.; 22.; 33.; 14.; 25.; 36. ] [| 2; 3 |]) (Tensor.add a row);
  check_tensor "col broadcast"
    (t_of [ 101.; 102.; 103.; 204.; 205.; 206. ] [| 2; 3 |])
    (Tensor.add a col);
  check_tensor "scalar broadcast" (t_of [ 3.; 4.; 5.; 6.; 7.; 8. ] [| 2; 3 |])
    (Tensor.add a (Tensor.scalar 2.0))

let test_reductions () =
  let a = t_of [ 1.; 2.; 3.; 4.; 5.; 6. ] [| 2; 3 |] in
  check_tensor "sum last" (t_of [ 6.; 15. ] [| 2 |]) (Tensor.sum a);
  check_tensor "sum axis0" (t_of [ 5.; 7.; 9. ] [| 3 |]) (Tensor.sum ~axis:0 a);
  check_tensor "max keepdims" (t_of [ 3.; 6. ] [| 2; 1 |]) (Tensor.max_ ~keepdims:true a);
  check_tensor "mean" (t_of [ 2.; 5. ] [| 2 |]) (Tensor.mean a);
  Alcotest.(check (float 1e-12)) "sum_all" 21.0 (Tensor.sum_all a)

let test_matmul () =
  let a = t_of [ 1.; 2.; 3.; 4. ] [| 2; 2 |] in
  let b = t_of [ 5.; 6.; 7.; 8. ] [| 2; 2 |] in
  check_tensor "plain" (t_of [ 19.; 22.; 43.; 50. ] [| 2; 2 |]) (Tensor.matmul a b);
  check_tensor "trans_b" (t_of [ 17.; 23.; 39.; 53. ] [| 2; 2 |]) (Tensor.matmul ~trans_b:true a b)

let test_batched_matmul () =
  let rng = Rng.create 11 in
  let a = Tensor.randn rng [| 3; 4; 5 |] and b = Tensor.randn rng [| 3; 5; 6 |] in
  let c = Tensor.matmul a b in
  Alcotest.(check (array int)) "batched shape" [| 3; 4; 6 |] (Tensor.shape c);
  (* Batch 0 equals the unbatched product of the corresponding slices. *)
  let slice t i rows cols =
    Tensor.init [| rows; cols |] (fun idx -> Tensor.get t [| i; idx.(0); idx.(1) |])
  in
  check_tensor "batch 0 slice" (Tensor.matmul (slice a 0 4 5) (slice b 0 5 6)) (slice c 0 4 6)

let test_broadcast_batch_matmul () =
  let rng = Rng.create 13 in
  let a = Tensor.randn rng [| 4; 2; 3 |] and b = Tensor.randn rng [| 3; 5 |] in
  let c = Tensor.matmul a b in
  Alcotest.(check (array int)) "broadcast batch" [| 4; 2; 5 |] (Tensor.shape c)

let test_softmax () =
  let x = t_of [ 1.; 2.; 3.; 1.; 1.; 1. ] [| 2; 3 |] in
  let s = Tensor.softmax ~axis:1 x in
  let row_sums = Tensor.sum s in
  check_tensor "rows sum to one" (Tensor.ones [| 2 |]) row_sums;
  check_tensor "uniform row" (t_of [ 1. /. 3.; 1. /. 3.; 1. /. 3. ] [| 3 |])
    (Tensor.init [| 3 |] (fun i -> Tensor.get s [| 1; i.(0) |]))

let test_softmax_stability () =
  (* Large magnitudes must not overflow thanks to max subtraction. *)
  let x = t_of [ 1000.; 1001.; 1002. ] [| 1; 3 |] in
  let s = Tensor.softmax ~axis:1 x in
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite (Tensor.data s));
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Tensor.sum_all s)

let test_layernorm () =
  let rng = Rng.create 17 in
  let x = Tensor.randn rng [| 4; 16 |] in
  let y = Tensor.layernorm ~axis:1 x in
  let mu = Tensor.mean y in
  let var = Tensor.mean (Tensor.sqr (Tensor.sub y (Tensor.mean ~keepdims:true y))) in
  Alcotest.(check bool) "zero mean" true (Tensor.max_abs_diff mu (Tensor.zeros [| 4 |]) < 1e-9);
  Alcotest.(check bool) "unit variance" true
    (Tensor.max_abs_diff var (Tensor.ones [| 4 |]) < 1e-3)

let test_reshape_and_errors () =
  let a = Tensor.arange 6 in
  let b = Tensor.reshape a [| 2; 3 |] in
  Alcotest.(check (float 0.0)) "shared data" 5.0 (Tensor.get b [| 1; 2 |]);
  Alcotest.check_raises "reshape mismatch" (Invalid_argument "Tensor.reshape: [6] -> [4]")
    (fun () -> ignore (Tensor.reshape a [| 4 |]));
  Alcotest.check_raises "of_array mismatch"
    (Invalid_argument "Tensor.of_array: 3 elements for shape [2x2]") (fun () ->
      ignore (Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Differential: fused Bigarray kernels vs a naive reference           *)
(* ------------------------------------------------------------------ *)

(* Index-at-a-time reference semantics — the boxed-array implementation
   the Bigarray kernels replaced. Deliberately shares no loop structure
   with lib/tensor: every element goes through [Tensor.get] with an
   explicitly materialized index, so a stride-table or odometer bug in
   the fast kernels cannot cancel out here. *)
module Naive = struct
  let bcast_get t out_idx =
    let s = Tensor.shape t in
    let r = Array.length s and ro = Array.length out_idx in
    let idx = Array.init r (fun k -> if s.(k) = 1 then 0 else out_idx.(k + ro - r)) in
    Tensor.get t idx

  let map f t = Tensor.init (Tensor.shape t) (fun idx -> f (Tensor.get t idx))

  let map2 f a b =
    let out = Shape.broadcast (Tensor.shape a) (Tensor.shape b) in
    Tensor.init out (fun idx -> f (bcast_get a idx) (bcast_get b idx))

  let reduce which ~axis ~keepdims t =
    let s = Tensor.shape t in
    let axis = Shape.normalize_axis s axis in
    let rank = Array.length s in
    let extent = s.(axis) in
    let out = Shape.reduce s ~axis ~keepdims in
    Tensor.init out (fun oidx ->
        let src = Array.make rank 0 in
        let acc =
          ref
            (match which with
            | `Sum | `Mean -> 0.0
            | `Max -> Float.neg_infinity
            | `Min -> Float.infinity)
        in
        for j = 0 to extent - 1 do
          for k = 0 to rank - 1 do
            if k = axis then src.(k) <- j
            else src.(k) <- (if keepdims then oidx.(k) else oidx.(if k < axis then k else k - 1))
          done;
          let v = Tensor.get t src in
          acc :=
            (match which with
            | `Sum | `Mean -> !acc +. v
            | `Max -> Float.max !acc v
            | `Min -> Float.min !acc v)
        done;
        match which with `Mean -> !acc /. float_of_int extent | _ -> !acc)

  let matmul ?(trans_b = false) a b =
    let sa = Tensor.shape a and sb = Tensor.shape b in
    let ra = Array.length sa and rb = Array.length sb in
    let m = sa.(ra - 2) and k = sa.(ra - 1) in
    let n = if trans_b then sb.(rb - 2) else sb.(rb - 1) in
    let batch = Shape.broadcast (Array.sub sa 0 (ra - 2)) (Array.sub sb 0 (rb - 2)) in
    let out = Array.append batch [| m; n |] in
    let ro = Array.length out in
    Tensor.init out (fun idx ->
        let i = idx.(ro - 2) and j = idx.(ro - 1) in
        (* Batch axes right-align against the broadcast batch; unit axes
           pin to 0. *)
        let idx_for s r row col =
          Array.init r (fun q ->
              if q = r - 2 then row
              else if q = r - 1 then col
              else if s.(q) = 1 then 0
              else idx.(q + (ro - r)))
        in
        let acc = ref 0.0 in
        for kk = 0 to k - 1 do
          let av = Tensor.get a (idx_for sa ra i kk) in
          let bv =
            if trans_b then Tensor.get b (idx_for sb rb j kk)
            else Tensor.get b (idx_for sb rb kk j)
          in
          acc := !acc +. (av *. bv)
        done;
        !acc)
end

(* Same shape and the same bits: each fast kernel must evaluate exactly
   the reference's float expression per element. *)
let check_bits msg expected actual =
  Alcotest.(check string) (msg ^ " shape")
    (Shape.to_string (Tensor.shape expected))
    (Shape.to_string (Tensor.shape actual));
  let bits t = Array.map Int64.bits_of_float (Tensor.data t) in
  Alcotest.(check (array int64)) msg (bits expected) (bits actual)

let test_diff_elementwise () =
  let shapes =
    [
      ([||], [||]);
      ([| 1 |], [| 1 |]);
      ([| 7 |], [| 7 |]);
      ([| 2; 3 |], [| 3 |]);
      ([| 3; 1; 5 |], [| 2; 1 |]);
      ([| 2; 3 |], [||]);
      ([| 1 |], [| 4; 1 |]);
      ([| 5; 3; 2 |], [| 5; 3; 2 |]);
      ([| 4; 1 |], [| 1; 5 |]);
      ([| 2; 1; 3; 4 |], [| 3; 1 |]);
      ([| 2; 3; 1 |], [| 4 |]);
      ([||], [| 2; 3 |]);
    ]
  in
  List.iteri
    (fun si (sa, sb) ->
      let rng = Rng.create (100 + si) in
      let a = Tensor.randn rng sa and b = Tensor.randn rng sb in
      List.iter
        (fun (name, fast, f) ->
          check_bits (Printf.sprintf "%s case %d" name si) (Naive.map2 f a b) (fast a b))
        [
          ("add", Tensor.add, ( +. ));
          ("sub", Tensor.sub, ( -. ));
          ("mul", Tensor.mul, ( *. ));
          ("div", Tensor.div, ( /. ));
          ("maximum", Tensor.maximum, Float.max);
          ("minimum", Tensor.minimum, Float.min);
        ])
    shapes

let test_diff_unary () =
  let gelu_c = sqrt (2.0 /. Float.pi) in
  let shapes = [ [||]; [| 1 |]; [| 7 |]; [| 3; 1; 5 |]; [| 2; 3; 4 |] ] in
  List.iteri
    (fun si s ->
      let t = Tensor.randn (Rng.create (300 + si)) s in
      List.iter
        (fun (name, fast, f) ->
          check_bits (Printf.sprintf "%s case %d" name si) (Naive.map f t) (fast t))
        [
          ("neg", Tensor.neg, fun x -> -.x);
          ("exp", Tensor.exp, Stdlib.exp);
          ("sqrt", Tensor.sqrt_, Stdlib.sqrt);
          ("rsqrt", Tensor.rsqrt, fun x -> 1.0 /. Stdlib.sqrt x);
          ("tanh", Tensor.tanh_, Stdlib.tanh);
          ("recip", Tensor.recip, fun x -> 1.0 /. x);
          ("relu", Tensor.relu, fun x -> Float.max x 0.0);
          ("sigmoid", Tensor.sigmoid, fun x -> 1.0 /. (1.0 +. Stdlib.exp (-.x)));
          ( "gelu",
            Tensor.gelu,
            fun x -> 0.5 *. x *. (1.0 +. tanh (gelu_c *. (x +. (0.044715 *. x *. x *. x)))) );
          ("sqr", Tensor.sqr, fun x -> x *. x);
        ])
    shapes

let test_diff_reduce () =
  let cases =
    [
      ([| 1 |], 0);
      ([| 5 |], 0);
      ([| 2; 3 |], 0);
      ([| 2; 3 |], 1);
      ([| 2; 3 |], -1);
      ([| 3; 1; 4 |], 1);
      ([| 2; 3; 4; 5 |], 2);
      ([| 4; 1; 1; 3 |], 0);
    ]
  in
  List.iteri
    (fun si (s, axis) ->
      let t = Tensor.randn (Rng.create (400 + si)) s in
      List.iter
        (fun keepdims ->
          List.iter
            (fun (name, which) ->
              check_tensor
                (Printf.sprintf "%s case %d keepdims=%b" name si keepdims)
                (Naive.reduce which ~axis ~keepdims t)
                (Tensor.reduce which ~axis ~keepdims t))
            [ ("sum", `Sum); ("max", `Max); ("min", `Min); ("mean", `Mean) ])
        [ false; true ])
    cases

(* Matmul must reproduce the dot-product order exactly, so compare the
   bits. m, n and k sweep every remainder of the 2×4 output blocks and the
   4-wide k unrolling, in both orientations. *)
let test_diff_matmul () =
  let check_bits msg expected actual =
    Alcotest.(check (array int64)) msg
      (Array.map Int64.bits_of_float (Tensor.data expected))
      (Array.map Int64.bits_of_float (Tensor.data actual))
  in
  let sweep ~trans_b =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun n ->
            List.map
              (fun k -> ([| m; k |], if trans_b then [| n; k |] else [| k; n |]))
              [ 1; 3; 4; 5; 67 ])
          (List.init 9 succ))
      [ 1; 2; 3; 5 ]
  in
  let plain =
    [
      ([| 1; 1 |], [| 1; 1 |]);
      ([| 3; 4 |], [| 4; 5 |]);
      ([| 1; 7 |], [| 7; 1 |]);
      ([| 2; 3; 4 |], [| 2; 4; 5 |]);
      ([| 2; 3; 4 |], [| 4; 5 |]);
      ([| 2; 1; 3; 4 |], [| 6; 4; 2 |]);
      ([| 3; 5 |], [| 5; 5 |]);
    ]
    @ sweep ~trans_b:false
  and transposed =
    [
      ([| 3; 4 |], [| 5; 4 |]);
      ([| 1; 1 |], [| 1; 1 |]);
      ([| 2; 3; 4 |], [| 2; 5; 4 |]);
      ([| 4; 2; 3 |], [| 5; 3 |]);
      ([| 2; 1; 3; 4 |], [| 6; 2; 4 |]);
      ([| 3; 1; 5; 7 |], [| 2; 7; 7 |]);
    ]
    @ sweep ~trans_b:true
  in
  List.iteri
    (fun si (sa, sb) ->
      let rng = Rng.create (500 + si) in
      let a = Tensor.randn rng sa and b = Tensor.randn rng sb in
      check_bits (Printf.sprintf "matmul case %d" si) (Naive.matmul a b) (Tensor.matmul a b))
    plain;
  List.iteri
    (fun si (sa, sb) ->
      let rng = Rng.create (600 + si) in
      let a = Tensor.randn rng sa and b = Tensor.randn rng sb in
      check_bits
        (Printf.sprintf "matmul trans_b case %d" si)
        (Naive.matmul ~trans_b:true a b)
        (Tensor.matmul ~trans_b:true a b))
    transposed

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)
(* ------------------------------------------------------------------ *)

let test_arena_reuse () =
  let arena = Tensor.Arena.create () in
  Tensor.Arena.with_arena arena (fun () ->
      let t = Tensor.randn (Rng.create 7) [| 64 |] in
      let b0 = Tensor.buffer t in
      Tensor.release arena t;
      Alcotest.(check int) "held after release" (64 * 8) (Tensor.Arena.bytes_held arena);
      (* Same element count: the freed buffer comes back... *)
      let t2 = Tensor.zeros [| 64 |] in
      Alcotest.(check bool) "same-size alloc reuses buffer" true (Tensor.buffer t2 == b0);
      Alcotest.(check int) "held after reuse" 0 (Tensor.Arena.bytes_held arena);
      Alcotest.(check bool) "recycled buffer is zeroed" true
        (Array.for_all (fun x -> x = 0.0) (Tensor.data t2));
      (* ...a different count does not. *)
      Tensor.release arena t2;
      let t3 = Tensor.zeros [| 65 |] in
      Alcotest.(check bool) "different-size alloc is fresh" true (not (Tensor.buffer t3 == b0));
      Alcotest.(check int) "hits" 1 (Tensor.Arena.hits arena));
  Alcotest.(check bool) "ambient cleared" true (Tensor.Arena.current () = None)

let test_arena_eviction () =
  let arena = Tensor.Arena.create ~max_bytes:(8 * 16) () in
  let t = Tensor.zeros [| 16 |] and u = Tensor.zeros [| 16 |] in
  Tensor.release arena t;
  Tensor.release arena u;
  Alcotest.(check int) "cap holds one buffer" (8 * 16) (Tensor.Arena.bytes_held arena);
  Alcotest.(check int) "second release evicted" 1 (Tensor.Arena.evicted arena)

(* Interleaved alloc/release: no two live tensors may ever share a
   buffer, no matter the order of operations. *)
let prop_arena_no_alias =
  QCheck.Test.make ~name:"arena never aliases live buffers" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 9))
    (fun ops ->
      let arena = Tensor.Arena.create () in
      let sizes = [| 1; 3; 16; 64; 100 |] in
      Tensor.Arena.with_arena arena (fun () ->
          let live = ref [] in
          let no_alias () =
            let rec go = function
              | [] -> true
              | t :: rest ->
                  List.for_all (fun u -> not (Tensor.buffer t == Tensor.buffer u)) rest && go rest
            in
            go !live
          in
          List.for_all
            (fun op ->
              (if op < 5 then live := Tensor.zeros [| sizes.(op) |] :: !live
               else
                 match !live with
                 | [] -> ()
                 | t :: rest ->
                     live := rest;
                     Tensor.release arena t);
              no_alias ())
            ops))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let small_shape =
  QCheck.Gen.(map Array.of_list (list_size (int_range 1 3) (int_range 1 5)))

let arb_tensor =
  QCheck.make
    ~print:(fun t -> Tensor.to_string t)
    QCheck.Gen.(
      small_shape >>= fun shape ->
      let n = Shape.numel shape in
      map (fun seed -> Tensor.randn (Rng.create seed) shape) (int_range 0 10000) >>= fun t ->
      ignore n;
      return t)

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:100 arb_tensor (fun t ->
      let u = Tensor.mul_scalar t 2.0 in
      Tensor.allclose (Tensor.add t u) (Tensor.add u t))

let prop_softmax_normalized =
  QCheck.Test.make ~name:"softmax rows sum to 1" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (m, n) ->
      let x = Tensor.randn (Rng.create ((m * 100) + n)) [| m; n |] in
      let s = Tensor.sum (Tensor.softmax ~axis:1 x) in
      Tensor.allclose ~rtol:1e-9 ~atol:1e-9 (Tensor.ones [| m |]) s)

let prop_matmul_transpose_equiv =
  QCheck.Test.make ~name:"matmul trans_b consistent with explicit transpose" ~count:50
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 1 6))
    (fun (m, n, k) ->
      let rng = Rng.create ((m * 31) + (n * 7) + k) in
      let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| n; k |] in
      let bt = Tensor.init [| k; n |] (fun idx -> Tensor.get b [| idx.(1); idx.(0) |]) in
      Tensor.allclose ~rtol:1e-9 ~atol:1e-9 (Tensor.matmul ~trans_b:true a b) (Tensor.matmul a bt))

let prop_reduce_sum_linear =
  QCheck.Test.make ~name:"sum(a+b) = sum a + sum b" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (m, n) ->
      let rng = Rng.create ((m * 131) + n) in
      let a = Tensor.randn rng [| m; n |] and b = Tensor.randn rng [| m; n |] in
      Tensor.allclose ~rtol:1e-9 ~atol:1e-9
        (Tensor.sum (Tensor.add a b))
        (Tensor.add (Tensor.sum a) (Tensor.sum b)))

let prop_broadcast_assoc =
  QCheck.Test.make ~name:"broadcast shape is associative-compatible" ~count:200
    QCheck.(pair (make small_shape) (make small_shape))
    (fun (a, b) ->
      QCheck.assume (Shape.broadcastable a b);
      let c = Shape.broadcast a b in
      Shape.broadcastable a c && Shape.equal (Shape.broadcast a c) c)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_commutes;
      prop_softmax_normalized;
      prop_matmul_transpose_equiv;
      prop_reduce_sum_linear;
      prop_broadcast_assoc;
      prop_arena_no_alias;
    ]

let () =
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "broadcast" `Quick test_shape_broadcast;
          Alcotest.test_case "reduce" `Quick test_shape_reduce;
          Alcotest.test_case "errors" `Quick test_shape_errors;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned;
          Alcotest.test_case "range" `Quick test_rng_range;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "broadcast ops" `Quick test_broadcast_ops;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "batched matmul" `Quick test_batched_matmul;
          Alcotest.test_case "broadcast batch matmul" `Quick test_broadcast_batch_matmul;
          Alcotest.test_case "softmax" `Quick test_softmax;
          Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
          Alcotest.test_case "layernorm" `Quick test_layernorm;
          Alcotest.test_case "reshape/errors" `Quick test_reshape_and_errors;
        ] );
      ( "differential",
        [
          Alcotest.test_case "elementwise vs naive" `Quick test_diff_elementwise;
          Alcotest.test_case "unary vs naive" `Quick test_diff_unary;
          Alcotest.test_case "reduce vs naive" `Quick test_diff_reduce;
          Alcotest.test_case "matmul vs naive" `Quick test_diff_matmul;
        ] );
      ( "arena",
        [
          Alcotest.test_case "reuse" `Quick test_arena_reuse;
          Alcotest.test_case "eviction" `Quick test_arena_eviction;
        ] );
      ("properties", props);
    ]
