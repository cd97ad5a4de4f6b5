(* Tests for the simulated-GPU substrate: kernel IR, functional execution,
   analytic/full counter agreement, resource checks and the cost model. *)

open Gpu

let check_close msg expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s (%g vs %g)" msg expected actual) true
    (Float.abs (expected -. actual) <= 1e-9 *. (1.0 +. Float.abs expected))

(* A tiled GEMM kernel: C[M,N] = A[M,K] · B[N,K]ᵀ (or · B[K,N]), one
   accumulating GEMM per step of a temporal loop over [bk]-wide
   contraction tiles; without [accumulate], one GEMM per block over the
   whole contraction. *)
let gemm_kernel ?(trans_b = true) ?(accumulate = true) ~m ~n ~k ~bm ~bn ~bk () : Kernel.t =
  let kidx : Kernel.tindex = if accumulate then IStep else IAll in
  let kdim : Kernel.dimsize = if accumulate then Tile else Lit k in
  let body =
    [
      Kernel.Load { tensor = "A"; dst = "a"; idx = [| IGrid "M"; kidx |] };
      Load
        {
          tensor = "B";
          dst = "b";
          idx = (if trans_b then [| IGrid "N"; kidx |] else [| kidx; IGrid "N" |]);
        };
      Gemm { dst = "acc"; a = "a"; b = "b"; trans_b; accumulate };
    ]
  in
  let store = Kernel.Store { src = "acc"; tensor = "C"; idx = [| IGrid "M"; IGrid "N" |] } in
  {
    kname = "gemm";
    grid = [ { gdim = "M"; extent = m; block = bm }; { gdim = "N"; extent = n; block = bn } ];
    temporal = (if accumulate then Some ("K", k, bk) else None);
    bufs =
      [
        { bname = "a"; scope = Smem; brows = Blk "M"; bcols = kdim };
        (if trans_b then { bname = "b"; scope = Smem; brows = Blk "N"; bcols = kdim }
         else { bname = "b"; scope = Smem; brows = kdim; bcols = Blk "N" });
        { bname = "acc"; scope = Reg; brows = Blk "M"; bcols = Blk "N" };
      ];
    stages =
      (if accumulate then [ Once [ Fill ("acc", 0.0) ]; ForEachStep body; Once [ store ] ]
       else [ Once (body @ [ store ]) ]);
    tags = [];
  }

(* Row softmax in one kernel: rows in the grid, the whole row on chip. *)
let softmax_kernel ~m ~n ~bm : Kernel.t =
  {
    kname = "softmax";
    grid = [ { gdim = "M"; extent = m; block = bm } ];
    temporal = None;
    bufs =
      [
        { bname = "x"; scope = Smem; brows = Blk "M"; bcols = Lit n };
        { bname = "mx"; scope = Reg; brows = Blk "M"; bcols = Lit 1 };
        { bname = "s"; scope = Reg; brows = Blk "M"; bcols = Lit 1 };
      ];
    stages =
      [
        Once
          [
            Load { tensor = "X"; dst = "x"; idx = [| IGrid "M"; IAll |] };
            RowReduce { dst = "mx"; op = Ir.Op.Rmax; src = "x"; accumulate = false };
            Binary { dst = "x"; op = Ir.Op.Sub; a = "x"; b = "mx" };
            Unary { dst = "x"; op = Ir.Op.Exp; src = "x" };
            RowReduce { dst = "s"; op = Ir.Op.Rsum; src = "x"; accumulate = false };
            Binary { dst = "x"; op = Ir.Op.Div; a = "x"; b = "s" };
            Store { src = "x"; tensor = "Y"; idx = [| IGrid "M"; IAll |] };
          ];
      ];
    tags = [];
  }

let test_gemm_full () =
  let rng = Rng.create 7 in
  let a = Tensor.randn rng [| 13; 17 |] and b = Tensor.randn rng [| 11; 17 |] in
  let dev = Device.create () in
  Device.bind dev "A" a;
  Device.bind dev "B" b;
  Device.declare dev "C" [| 13; 11 |];
  let k = gemm_kernel ~m:13 ~n:11 ~k:17 ~bm:4 ~bn:4 ~bk:8 () in
  let _ = Exec.run dev k in
  let expected = Tensor.matmul ~trans_b:true a b in
  Alcotest.(check bool) "gemm matches reference" true
    (Tensor.allclose ~rtol:1e-9 ~atol:1e-9 expected (Device.tensor dev "C"))

(* Every [trans_b] × [accumulate] GEMM's Full walk, bit for bit against
   an index-at-a-time reference: each output sums from 0.0 in ascending k
   over one contraction tile, and an accumulating GEMM adds that sum to C
   last, tile after tile. Tile rows 1–9, columns 1–9 and contraction
   tiles 1–67 reach every remainder of the blocked loops, and tiles under
   4 columns reach the 4-row narrow block whole and ragged; each grid dim
   adds a narrower edge block, and each temporal loop a 1-wide last step. *)
let test_gemm_variants_bitexact () =
  let bits t = Array.map Int64.bits_of_float (Tensor.data t) in
  List.iter
    (fun (trans_b, accumulate) ->
      List.iter
        (fun (bm, bn, bk) ->
          let m = bm + 1 and n = bn + 2 in
          let k = if accumulate then (2 * bk) + 1 else bk in
          let rng = Rng.create ((100 * bm) + (10 * bn) + bk) in
          let a = Tensor.randn rng [| m; k |] in
          let b = Tensor.randn rng (if trans_b then [| n; k |] else [| k; n |]) in
          let dev = Device.create () in
          Device.bind dev "A" a;
          Device.bind dev "B" b;
          Device.declare dev "C" [| m; n |];
          ignore (Exec.run dev (gemm_kernel ~trans_b ~accumulate ~m ~n ~k ~bm ~bn ~bk ()));
          let expected =
            Tensor.init [| m; n |] (fun idx ->
                let i = idx.(0) and j = idx.(1) in
                let c = ref 0.0 in
                let k0 = ref 0 in
                while !k0 < k do
                  let s = ref 0.0 in
                  for kk = !k0 to min k (!k0 + bk) - 1 do
                    let bv = Tensor.get b (if trans_b then [| j; kk |] else [| kk; j |]) in
                    s := !s +. (Tensor.get a [| i; kk |] *. bv)
                  done;
                  c := if accumulate then !c +. !s else !s;
                  k0 := !k0 + bk
                done;
                !c)
          in
          Alcotest.(check (array int64))
            (Printf.sprintf "trans_b=%b accumulate=%b tile %dx%dx%d" trans_b accumulate bm bn bk)
            (bits expected)
            (bits (Device.tensor dev "C")))
        (List.concat_map
           (fun bm ->
             List.concat_map (fun bn -> List.map (fun bk -> (bm, bn, bk)) [ 1; 3; 4; 5; 67 ])
               (List.init 9 succ))
           [ 1; 2; 3; 4; 5; 8; 9 ]))
    [ (false, false); (false, true); (true, false); (true, true) ]

(* One Full walk of a grid-less kernel over whole tensors. *)
let run_whole ~name ~bufs ~body ~inputs ~outputs =
  let dev = Device.create () in
  List.iter (fun (n, t) -> Device.bind dev n t) inputs;
  List.iter (fun (n, s) -> Device.declare dev n s) outputs;
  let k : Kernel.t =
    { kname = name; grid = []; temporal = None; bufs; stages = [ Once body ]; tags = [] }
  in
  ignore (Exec.run dev k);
  dev

let whole n (t : Tensor.t) : Kernel.instr =
  Load { tensor = n; dst = String.lowercase_ascii n; idx = Array.map (fun _ -> Kernel.IAll) (Tensor.shape t) }

let buf name rows cols : Kernel.buf = { bname = name; scope = Smem; brows = Lit rows; bcols = Lit cols }

let check_bits msg expected actual =
  let bits t = Array.map Int64.bits_of_float (Tensor.data t) in
  Alcotest.(check (array int64)) msg (bits expected) (bits actual)

(* Every unary, binary and reduction op of a Full walk, bit for bit
   against [Ir.Op]'s closures: the walk's loops must evaluate the same
   float expression per element. Inputs are standard normal, so sqrt,
   rsqrt and recip also meet negative and tiny operands. *)
let test_elementwise_bitexact () =
  let m = 5 and n = 7 in
  let rng = Rng.create 17 in
  let x = Tensor.randn rng [| m; n |] and y = Tensor.randn rng [| m; n |] in
  let xrow = Tensor.randn rng [| 1; n |] and xcol = Tensor.randn rng [| m; 1 |] in
  List.iter
    (fun op ->
      let dev =
        run_whole ~name:"unary"
          ~bufs:[ buf "x" m n; buf "o" m n ]
          ~body:
            [
              whole "X" x;
              Unary { dst = "o"; op; src = "x" };
              Store { src = "o"; tensor = "O"; idx = [| IAll; IAll |] };
            ]
          ~inputs:[ ("X", x) ] ~outputs:[ ("O", [| m; n |]) ]
      in
      check_bits (Ir.Op.unop_to_string op)
        (Tensor.init [| m; n |] (fun i -> Ir.Op.apply_unop op (Tensor.get x i)))
        (Device.tensor dev "O"))
    Ir.Op.[ Exp; Relu; Sqrt; Rsqrt; Neg; Recip; Sqr; Tanh; Sigmoid; Gelu ];
  let bget t idx = Tensor.get t (Array.mapi (fun k i -> if (Tensor.shape t).(k) = 1 then 0 else i) idx) in
  List.iter
    (fun op ->
      List.iter
        (fun (case, a, b, dst) ->
          let sa = Tensor.shape a and sb = Tensor.shape b in
          let dev =
            run_whole ~name:"binary"
              ~bufs:[ buf "a" sa.(0) sa.(1); buf "b" sb.(0) sb.(1); buf "o" m n ]
              ~body:
                [
                  whole "A" a;
                  whole "B" b;
                  Binary { dst; op; a = "a"; b = "b" };
                  Store { src = dst; tensor = "O"; idx = [| IAll; IAll |] };
                ]
              ~inputs:[ ("A", a); ("B", b) ] ~outputs:[ ("O", [| m; n |]) ]
          in
          check_bits
            (Printf.sprintf "%s %s" (Ir.Op.binop_to_string op) case)
            (Tensor.init [| m; n |] (fun i -> Ir.Op.apply_binop op (bget a i) (bget b i)))
            (Device.tensor dev "O"))
        [
          ("same shape", x, y, "o");
          ("row broadcast", x, xrow, "o");
          ("column broadcast", xcol, y, "o");
          ("into a", x, y, "a");
          ("into b over a column", xcol, y, "b");
        ])
    Ir.Op.[ Add; Sub; Mul; Div; Max; Min ];
  let fold op init get len =
    let acc = ref (Ir.Op.redop_identity op) in
    for k = 0 to len - 1 do
      acc := Ir.Op.redop_combine op !acc (get k)
    done;
    match init with Some c -> Ir.Op.redop_combine op c !acc | None -> !acc
  in
  List.iter
    (fun op ->
      List.iter
        (fun accumulate ->
          let name = Printf.sprintf "%s accumulate=%b" (Ir.Op.redop_to_string op) accumulate in
          let init c0 i = if accumulate then Some (Tensor.get c0 i) else None in
          let reduce ~rows kind out_shape =
            let c0 = Tensor.randn rng out_shape in
            let r, c = (out_shape.(0), out_shape.(1)) in
            let dev =
              run_whole ~name:"reduce"
                ~bufs:[ buf "x" m n; buf "c0" r c ]
                ~body:
                  ((whole "X" x :: (if accumulate then [ whole "C0" c0 ] else []))
                  @ [
                      (if rows then Kernel.RowReduce { dst = "c0"; op; src = "x"; accumulate }
                       else Kernel.ColReduce { dst = "c0"; op; src = "x"; accumulate });
                      Store { src = "c0"; tensor = "O"; idx = [| IAll; IAll |] };
                    ])
                ~inputs:(("X", x) :: (if accumulate then [ ("C0", c0) ] else []))
                ~outputs:[ ("O", out_shape) ]
            in
            check_bits (name ^ " " ^ kind)
              (Tensor.init out_shape (fun i ->
                   if rows then fold op (init c0 i) (fun k -> Tensor.get x [| i.(0); k |]) n
                   else fold op (init c0 i) (fun k -> Tensor.get x [| k; i.(1) |]) m))
              (Device.tensor dev "O")
          in
          reduce ~rows:true "by row" [| m; 1 |];
          reduce ~rows:false "by column" [| 1; n |])
        [ false; true ])
    (* [Kernel.validate] requires [Rmean] lowered to [Rsum]. *)
    Ir.Op.[ Rsum; Rmax; Rmin ]

(* A Full walk's elementwise work allocates nothing per element: what an
   LN plan's walk allocates is per-block bookkeeping, whatever a block's
   row count (at 1 024 rows a block holds 8 rows of 256). *)
let test_full_walk_alloc_flat () =
  List.iter
    (fun m ->
      let g = Ir.Models.layernorm_graph ~m ~n:256 in
      let plan = Backends.Baselines.spacefusion.Backends.Policy.compile Arch.ampere ~name:"ln" g in
      let env = Ir.Interp.random_env ~seed:1 g in
      let walk () =
        let dev = Device.create () in
        Plan.declare_all plan dev;
        List.iter (fun (n, t) -> Device.bind dev n t) env;
        let before = Gc.minor_words () in
        let blocks =
          List.fold_left (fun acc k -> acc + (Exec.run ~arch:Arch.ampere dev k).ks_blocks) 0 plan.p_kernels
        in
        (Gc.minor_words () -. before, blocks)
      in
      ignore (walk ());
      let words, blocks = walk () in
      Alcotest.(check bool)
        (Printf.sprintf "ln %dx256: %.0f words over %d blocks" m words blocks)
        true
        (words <= 1_000.0 *. float_of_int blocks))
    [ 64; 1024 ]

(* A transfer whose unit-blocked grid axis is past the tensor's extent
   must fail, not read or write outside the tensor's buffer. The probe is
   the 4-row softmax kernel, whose grid blocks rows at 1 (d0(4/1)). *)
let test_transfer_bounds () =
  let g = Ir.Models.softmax_graph ~m:4 ~n:8 in
  let plan = Backends.Baselines.spacefusion.Backends.Policy.compile Arch.ampere ~name:"v" g in
  let k = match plan.p_kernels with [ k ] -> k | _ -> Alcotest.fail "one kernel expected" in
  let x4 = Tensor.randn (Rng.create 5) [| 4; 8 |] and x2 = Tensor.randn (Rng.create 5) [| 2; 8 |] in
  let store_dev = Device.create () in
  let with_decls decls = Plan.make ~name:plan.p_name ~kernels:plan.p_kernels ~decls in
  Plan.declare_all
    (with_decls (List.map (fun (n, s) -> if n = "v:out0" then (n, [| 2; 8 |]) else (n, s)) plan.p_decls))
    store_dev;
  Device.bind store_dev "x" x4;
  Alcotest.check_raises "store past the output's rows"
    (Invalid_argument "Exec v.k0: store of \"v:out0\" at axis 0: origin 2 is past extent 2")
    (fun () -> ignore (Exec.run store_dev k));
  let load_dev = Device.create () in
  Plan.declare_all (with_decls (List.remove_assoc "x" plan.p_decls)) load_dev;
  Device.bind load_dev "x" x2;
  Alcotest.check_raises "load past the input's rows"
    (Invalid_argument "Exec v.k0: load of \"x\" at axis 0: origin 2 is past extent 2")
    (fun () -> ignore (Exec.run load_dev k))

let test_gemm_flops () =
  let dev = Device.create () in
  Device.declare dev "A" [| 16; 32 |];
  Device.declare dev "B" [| 8; 32 |];
  Device.declare dev "C" [| 16; 8 |];
  let k = gemm_kernel ~m:16 ~n:8 ~k:32 ~bm:8 ~bn:8 ~bk:16 () in
  let s = Exec.run ~mode:Exec.Analytic dev k in
  check_close "gemm flops" (2.0 *. 16.0 *. 8.0 *. 32.0) s.ks_gemm_flops

let test_softmax_full () =
  let rng = Rng.create 3 in
  let x = Tensor.randn rng [| 9; 21 |] in
  let dev = Device.create () in
  Device.bind dev "X" x;
  Device.declare dev "Y" [| 9; 21 |];
  let _ = Exec.run dev (softmax_kernel ~m:9 ~n:21 ~bm:4) in
  let expected = Tensor.softmax ~axis:1 x in
  Alcotest.(check bool) "softmax matches reference" true
    (Tensor.allclose ~rtol:1e-9 ~atol:1e-12 expected (Device.tensor dev "Y"))

let test_full_analytic_agree () =
  (* Full and analytic walks must count identical flops/bytes, including
     ragged edge blocks and a ragged temporal remainder. *)
  let dev = Device.create () in
  Device.declare dev "A" [| 13; 19 |];
  Device.declare dev "B" [| 7; 19 |];
  Device.declare dev "C" [| 13; 7 |];
  let k = gemm_kernel ~m:13 ~n:7 ~k:19 ~bm:4 ~bn:3 ~bk:8 () in
  Device.bind dev "A" (Tensor.ones [| 13; 19 |]);
  Device.bind dev "B" (Tensor.ones [| 7; 19 |]);
  let full = Exec.run ~mode:Exec.Full dev k in
  let ana = Exec.run ~mode:Exec.Analytic dev k in
  check_close "gemm flops agree" full.ks_gemm_flops ana.ks_gemm_flops;
  check_close "simd flops agree" full.ks_simd_flops ana.ks_simd_flops;
  check_close "moved bytes agree" full.ks_moved_bytes ana.ks_moved_bytes

let test_transfer_summary () =
  let dev = Device.create () in
  Device.declare dev "A" [| 16; 32 |];
  Device.declare dev "B" [| 8; 32 |];
  Device.declare dev "C" [| 16; 8 |];
  (* 2 M-blocks x 1 N-block; B is re-requested by each M-block. *)
  let k = gemm_kernel ~m:16 ~n:8 ~k:32 ~bm:8 ~bn:8 ~bk:32 () in
  let s = Exec.run ~mode:Exec.Analytic dev k in
  let tr name = List.find (fun (t : Exec.transfer) -> t.tr_tensor = name) s.ks_reads in
  Alcotest.(check int) "A requested once" (16 * 32 * Arch.elt_bytes) (tr "A").tr_requested;
  Alcotest.(check int) "B requested per M-block" (2 * 8 * 32 * Arch.elt_bytes) (tr "B").tr_requested;
  Alcotest.(check int) "B unique" (8 * 32 * Arch.elt_bytes) (tr "B").tr_unique;
  let w = List.find (fun (t : Exec.transfer) -> t.tr_tensor = "C") s.ks_writes in
  Alcotest.(check int) "C written once" (16 * 8 * Arch.elt_bytes) w.tr_requested

let test_transfer_step_tile () =
  (* Hand-computed transfer table for a 2x1-block GEMM with K=32 in bk=8
     steps. IStep axes count one step tile in tr_per_block: one pass of a
     block touches an 8x8 slice of A (128 B at 2 B/elt), not the whole
     8x32 K-strip — tr_per_block feeds the L1 single-pass residency
     check, so overcounting it by the loop extent suppresses re-pass
     hits. tr_requested still covers the full extent. *)
  let dev = Device.create () in
  Device.declare dev "A" [| 16; 32 |];
  Device.declare dev "B" [| 8; 32 |];
  Device.declare dev "C" [| 16; 8 |];
  let k = gemm_kernel ~m:16 ~n:8 ~k:32 ~bm:8 ~bn:8 ~bk:8 () in
  let s = Exec.run ~mode:Exec.Analytic dev k in
  let tr name = List.find (fun (t : Exec.transfer) -> t.tr_tensor = name) s.ks_reads in
  let a = tr "A" in
  Alcotest.(check int) "A requested = full tensor once" (16 * 32 * Arch.elt_bytes)
    a.tr_requested;
  Alcotest.(check int) "A unique" (16 * 32 * Arch.elt_bytes) a.tr_unique;
  Alcotest.(check int) "A per-block pass = bm x bk tile" (8 * 8 * Arch.elt_bytes)
    a.tr_per_block;
  Alcotest.(check int) "A one static load site" 1 a.tr_passes;
  let b = tr "B" in
  Alcotest.(check int) "B requested = tensor per M-block" (2 * 8 * 32 * Arch.elt_bytes)
    b.tr_requested;
  Alcotest.(check int) "B unique" (8 * 32 * Arch.elt_bytes) b.tr_unique;
  Alcotest.(check int) "B per-block pass = bn x bk tile" (8 * 8 * Arch.elt_bytes)
    b.tr_per_block;
  let c = List.find (fun (t : Exec.transfer) -> t.tr_tensor = "C") s.ks_writes in
  Alcotest.(check int) "C written once" (16 * 8 * Arch.elt_bytes) c.tr_requested;
  Alcotest.(check int) "C per-block = bm x bn tile" (8 * 8 * Arch.elt_bytes)
    c.tr_per_block

let test_analytic_cost_flat () =
  (* An Analytic walk visits segment classes, never individual blocks or
     steps, so its allocation must not grow with the grid: a million
     unit-block rows and a million unit-tile steps cost what a small
     kernel does. *)
  let m = 1 lsl 20 in
  let dev = Device.create () in
  Device.declare dev "A" [| m; m |];
  Device.declare dev "B" [| 64; m |];
  Device.declare dev "C" [| m; 64 |];
  let k = gemm_kernel ~m ~n:64 ~k:m ~bm:1 ~bn:64 ~bk:1 () in
  let before = Gc.minor_words () in
  let s = Exec.run ~mode:Exec.Analytic dev k in
  let words = Gc.minor_words () -. before in
  check_close "gemm flops" (2.0 *. float_of_int m *. 64.0 *. float_of_int m) s.ks_gemm_flops;
  Alcotest.(check bool) (Printf.sprintf "allocation is O(kernel), not O(grid): %.0f words" words) true
    (words < 50_000.0)

let test_reg_budget_per_arch () =
  (* The register-tile budget is a per-arch constant, not a multiple of
     the thread register count: a 160 KiB accumulator fits Ampere's and
     Hopper's 256 KiB regfile budget but must be rejected on Volta's
     128 KiB one. *)
  let k : Kernel.t =
    {
      kname = "reghog";
      grid = [ { gdim = "M"; extent = 8; block = 8 } ];
      temporal = None;
      bufs = [ { bname = "acc"; scope = Reg; brows = Lit 256; bcols = Lit 320 } ];
      stages = [ Once [ Fill ("acc", 0.0) ] ];
      tags = [];
    }
  in
  let dev = Device.create () in
  Alcotest.(check bool) "sized between the volta and ampere budgets" true
    (Kernel.reg_bytes k > Arch.volta.regfile_bytes
    && Kernel.reg_bytes k <= Arch.ampere.regfile_bytes
    && Kernel.reg_bytes k <= Arch.hopper.regfile_bytes);
  ignore (Exec.run ~mode:Exec.Analytic ~arch:Arch.ampere dev k);
  ignore (Exec.run ~mode:Exec.Analytic ~arch:Arch.hopper dev k);
  Alcotest.check_raises "volta rejects the register tile"
    (Exec.Resource_exceeded
       (Printf.sprintf "kernel reghog: %d B register tiles > %d B budget on Volta"
          (Kernel.reg_bytes k) Arch.volta.regfile_bytes))
    (fun () -> ignore (Exec.run ~mode:Exec.Analytic ~arch:Arch.volta dev k))

let test_resource_exceeded () =
  let dev = Device.create () in
  Device.declare dev "A" [| 4096; 4096 |];
  Device.declare dev "B" [| 4096; 4096 |];
  Device.declare dev "C" [| 4096; 4096 |];
  let k = gemm_kernel ~m:4096 ~n:4096 ~k:4096 ~bm:1024 ~bn:1024 ~bk:64 () in
  Alcotest.check_raises "smem budget enforced"
    (Exec.Resource_exceeded
       (Printf.sprintf "kernel gemm: %d B shared memory > %d B budget on Volta"
          (Kernel.smem_bytes k) Arch.volta.smem_per_block))
    (fun () -> ignore (Exec.run ~mode:Exec.Analytic ~arch:Arch.volta dev k))

let test_validate_istep_outside_loop () =
  let bad : Kernel.t =
    {
      kname = "bad2";
      grid = [ { gdim = "M"; extent = 8; block = 4 } ];
      temporal = Some ("K", 8, 4);
      bufs = [ { bname = "x"; scope = Smem; brows = Blk "M"; bcols = Tile } ];
      stages = [ Once [ Load { tensor = "X"; dst = "x"; idx = [| IGrid "M"; IStep |] } ] ];
      tags = [];
    }
  in
  Alcotest.check_raises "IStep outside loop rejected"
    (Invalid_argument "Kernel bad2: transfer of \"X\" uses IStep outside the temporal loop")
    (fun () -> Kernel.validate bad)

let test_validate_rejects () =
  let bad : Kernel.t =
    {
      kname = "bad";
      grid = [ { gdim = "M"; extent = 8; block = 4 } ];
      temporal = None;
      bufs = [];
      stages = [ Once [ Fill ("ghost", 0.0) ] ];
      tags = [];
    }
  in
  Alcotest.check_raises "unknown buffer rejected"
    (Invalid_argument "Kernel bad: instruction references unknown buffer \"ghost\"") (fun () ->
      Kernel.validate bad);
  (* A Full walk of an aliased GEMM would read output it already wrote. *)
  List.iter
    (fun (a, b) ->
      let aliased : Kernel.t =
        {
          kname = "aliased";
          grid = [];
          temporal = None;
          bufs =
            [
              { bname = "x"; scope = Smem; brows = Lit 4; bcols = Lit 4 };
              { bname = "y"; scope = Smem; brows = Lit 4; bcols = Lit 4 };
            ];
          stages = [ Once [ Gemm { dst = "x"; a; b; trans_b = true; accumulate = false } ] ];
          tags = [];
        }
      in
      Alcotest.check_raises
        (Printf.sprintf "gemm x <- %s·%sᵀ rejected" a b)
        (Invalid_argument "Kernel aliased: gemm writes \"x\", one of its own operands") (fun () ->
          Kernel.validate aliased))
    [ ("x", "y"); ("y", "x"); ("x", "x") ]

let test_cost_monotone () =
  (* More DRAM traffic must not make a kernel faster. *)
  let dev = Device.create () in
  Device.declare dev "A" [| 1024; 1024 |];
  Device.declare dev "B" [| 1024; 1024 |];
  Device.declare dev "C" [| 1024; 1024 |];
  let time bn =
    let k = gemm_kernel ~m:1024 ~n:1024 ~k:1024 ~bm:64 ~bn ~bk:64 () in
    let s = Exec.run ~mode:Exec.Analytic dev k in
    let cache = Cost.fresh_cache Arch.ampere in
    (Cost.kernel_time Arch.ampere cache s).Cost.time
  in
  Alcotest.(check bool) "64x64 tiles at least as fast as 64x8" true (time 64 <= time 8)

let test_cache_residency () =
  (* A small tensor read twice in a row: the second kernel's read should hit
     in L2 and cause no DRAM reads. *)
  let dev = Device.create () in
  Device.declare dev "X" [| 256; 256 |];
  Device.declare dev "Y" [| 256; 256 |];
  let k = softmax_kernel ~m:256 ~n:256 ~bm:32 in
  let s = Exec.run ~mode:Exec.Analytic dev k in
  let cache = Cost.fresh_cache Arch.ampere in
  let t1 = Cost.kernel_time Arch.ampere cache s in
  let t2 = Cost.kernel_time Arch.ampere cache s in
  Alcotest.(check bool) "first run reads DRAM" true (t1.Cost.dram_read > 0.0);
  Alcotest.(check bool) "second run hits L2" true (t2.Cost.dram_read = 0.0)

let test_colreduce () =
  (* Column-direction reduction: 1×c result, with accumulation. *)
  let dev = Gpu.Device.create () in
  let x = Tensor.of_array [| 3; 4 |] [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11.; 12. |] in
  Device.bind dev "X" x;
  Device.declare dev "Y" [| 1; 4 |];
  let k : Kernel.t =
    {
      kname = "colsum";
      grid = [];
      temporal = None;
      bufs =
        [
          { bname = "x"; scope = Smem; brows = Lit 3; bcols = Lit 4 };
          { bname = "s"; scope = Reg; brows = Lit 1; bcols = Lit 4 };
        ];
      stages =
        [
          Once
            [
              Load { tensor = "X"; dst = "x"; idx = [| IAll; IAll |] };
              ColReduce { dst = "s"; op = Ir.Op.Rsum; src = "x"; accumulate = false };
              Store { src = "s"; tensor = "Y"; idx = [| IAll; IAll |] };
            ];
        ];
      tags = [];
    }
  in
  let _ = Exec.run dev k in
  Alcotest.(check bool) "column sums" true
    (Tensor.allclose (Tensor.of_array [| 1; 4 |] [| 15.; 18.; 21.; 24. |]) (Device.tensor dev "Y"))

let test_device_errors () =
  let dev = Device.create () in
  Device.declare dev "a" [| 2; 2 |];
  Alcotest.check_raises "conflicting redeclare"
    (Invalid_argument "Device.declare: \"a\" redeclared [2x2] -> [3x3]") (fun () ->
      Device.declare dev "a" [| 3; 3 |]);
  Alcotest.check_raises "tensor without data"
    (Invalid_argument "Device.tensor: \"a\" has no data (analytic run?)") (fun () ->
      ignore (Device.tensor dev "a"));
  Alcotest.check_raises "unknown tensor" (Invalid_argument "Device: unknown tensor \"nope\"")
    (fun () -> ignore (Device.shape dev "nope"))

let test_cost_accumulation () =
  let t = Gpu.Cost.add Gpu.Cost.zero Gpu.Cost.zero in
  Alcotest.(check (float 0.0)) "zero is neutral" 0.0 t.Gpu.Cost.time

let test_arch_lookup () =
  Alcotest.(check string) "by_name" "Hopper" (Arch.by_name "hopper").Arch.name;
  Alcotest.(check int) "three archs" 3 (List.length Arch.all)

let suite =
  [
    Alcotest.test_case "gemm full execution" `Quick test_gemm_full;
    Alcotest.test_case "gemm variants bit-exact" `Quick test_gemm_variants_bitexact;
    Alcotest.test_case "elementwise ops bit-exact" `Quick test_elementwise_bitexact;
    Alcotest.test_case "full walk allocation flat in rows" `Quick test_full_walk_alloc_flat;
    Alcotest.test_case "transfer bounds" `Quick test_transfer_bounds;
    Alcotest.test_case "gemm flop count" `Quick test_gemm_flops;
    Alcotest.test_case "softmax full execution" `Quick test_softmax_full;
    Alcotest.test_case "full/analytic counters agree" `Quick test_full_analytic_agree;
    Alcotest.test_case "transfer summary" `Quick test_transfer_summary;
    Alcotest.test_case "transfer step tile" `Quick test_transfer_step_tile;
    Alcotest.test_case "analytic cost flat in grid size" `Quick test_analytic_cost_flat;
    Alcotest.test_case "resource bound enforced" `Quick test_resource_exceeded;
    Alcotest.test_case "register budget per arch" `Quick test_reg_budget_per_arch;
    Alcotest.test_case "kernel validation" `Quick test_validate_rejects;
    Alcotest.test_case "IStep scoping" `Quick test_validate_istep_outside_loop;
    Alcotest.test_case "cost monotone in traffic" `Quick test_cost_monotone;
    Alcotest.test_case "L2 residency across kernels" `Quick test_cache_residency;
    Alcotest.test_case "colreduce" `Quick test_colreduce;
    Alcotest.test_case "device errors" `Quick test_device_errors;
    Alcotest.test_case "cost accumulation" `Quick test_cost_accumulation;
    Alcotest.test_case "arch lookup" `Quick test_arch_lookup;
  ]

let () = Alcotest.run "gpu" [ ("gpu", suite) ]
