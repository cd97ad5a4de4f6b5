(* Tests for the DFG IR, the reference interpreter and the model zoo. *)

open Ir

let check_tensor msg expected actual =
  Alcotest.(check bool) msg true (Tensor.allclose ~rtol:1e-9 ~atol:1e-9 expected actual)

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let test_build_shapes () =
  let g = Graph.create () in
  let x = Graph.input g "x" [| 4; 8 |] in
  let w = Graph.weight g "w" [| 16; 8 |] in
  let y = Graph.matmul g ~trans_b:true x w in
  Alcotest.(check (array int)) "matmul shape" [| 4; 16 |] (Graph.node g y).shape;
  let b = Graph.weight g "b" [| 16 |] in
  let z = Graph.binary g Op.Add y b in
  Alcotest.(check (array int)) "broadcast shape" [| 4; 16 |] (Graph.node g z).shape;
  let r = Graph.reduce g Op.Rsum ~axis:(-1) z in
  Alcotest.(check (array int)) "reduce shape" [| 4 |] (Graph.node g r).shape;
  let rk = Graph.reduce g Op.Rmax ~keepdims:true ~axis:1 z in
  Alcotest.(check (array int)) "keepdims shape" [| 4; 1 |] (Graph.node g rk).shape

let test_build_errors () =
  let g = Graph.create () in
  let x = Graph.input g "x" [| 4; 8 |] in
  let w = Graph.weight g "w" [| 16; 9 |] in
  Alcotest.check_raises "contraction mismatch"
    (Invalid_argument "Graph.matmul: contraction mismatch [4x8] x [16x9] (trans_b=true)")
    (fun () -> ignore (Graph.matmul g ~trans_b:true x w))

let test_graph_navigation () =
  let g = Models.softmax_graph ~m:4 ~n:8 in
  let ns = Graph.nodes g in
  Alcotest.(check int) "node count" 6 (List.length ns);
  let input = List.hd ns in
  Alcotest.(check bool) "input has consumers" true (Graph.consumers g input.id <> []);
  Alcotest.(check int) "one output" 1 (List.length (Graph.outputs g));
  Alcotest.(check bool) "output marked" true (Graph.is_output g (List.hd (Graph.outputs g)))

let test_classification () =
  let g = Graph.create () in
  let x = Graph.input g "x" [| 2; 2 |] in
  let w = Graph.weight g "w" [| 2; 2 |] in
  let mm = Graph.matmul g x w in
  let e = Graph.unary g Op.Exp mm in
  let r = Graph.reduce g Op.Rsum ~axis:1 e in
  Alcotest.(check bool) "matmul is CI" true (Graph.is_compute_intensive (Graph.node g mm).kind);
  Alcotest.(check bool) "exp is MI" true (Graph.is_memory_intensive (Graph.node g e).kind);
  Alcotest.(check bool) "exp is elementwise" true (Graph.is_elementwise (Graph.node g e).kind);
  Alcotest.(check bool) "reduce not elementwise" false (Graph.is_elementwise (Graph.node g r).kind);
  Alcotest.(check bool) "input neither" false (Graph.is_memory_intensive (Graph.node g x).kind)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let test_interp_matches_tensor_ops () =
  let g = Models.softmax_graph ~m:5 ~n:7 in
  let env = Interp.random_env ~seed:1 g in
  let x = List.assoc "x" env in
  let[@warning "-8"] [ out ] = Interp.eval g env in
  check_tensor "softmax graph == Tensor.softmax" (Tensor.softmax ~axis:1 x) out

let test_interp_layernorm () =
  let g = Models.layernorm_graph ~m:3 ~n:16 in
  let env = Interp.random_env ~seed:2 g in
  let x = List.assoc "x" env in
  let gamma = List.assoc "ln.gamma" env and beta = List.assoc "ln.beta" env in
  let[@warning "-8"] [ out ] = Interp.eval g env in
  check_tensor "layernorm graph" (Tensor.layernorm ~gamma ~beta ~axis:1 x) out

let test_interp_mha () =
  let g = Models.mha ~batch_heads:2 ~seq_q:5 ~seq_kv:6 ~head_dim:4 () in
  let env = Interp.random_env ~seed:3 g in
  let q = List.assoc "q" env and k = List.assoc "k" env and v = List.assoc "v" env in
  let[@warning "-8"] [ out ] = Interp.eval g env in
  let scale = 1.0 /. sqrt 4.0 in
  let qk = Tensor.mul_scalar (Tensor.matmul ~trans_b:true q k) scale in
  let expected = Tensor.matmul (Tensor.softmax ~axis:2 qk) v in
  check_tensor "mha graph" expected out

let test_interp_missing_binding () =
  let g = Models.softmax_graph ~m:2 ~n:2 in
  Alcotest.check_raises "missing input" (Invalid_argument "Interp: missing binding for \"x\"")
    (fun () -> ignore (Interp.eval g []))

let test_interp_mlp_depth () =
  (* A 1-layer MLP equals relu(x·Wᵀ + b). *)
  let g = Models.mlp ~layers:1 ~m:3 ~n:4 ~k:5 in
  let env = Interp.random_env ~seed:4 g in
  let x = List.assoc "x" env in
  let w = List.assoc "layer1.w" env and b = List.assoc "layer1.b" env in
  let[@warning "-8"] [ out ] = Interp.eval g env in
  check_tensor "mlp(1)" (Tensor.relu (Tensor.add (Tensor.matmul ~trans_b:true x w) b)) out

(* The oracle's reference side, pinned bit for bit: an md5 of the Int64
   bits of every drawn input and every output, at the oracle's seeds.
   No plan is involved, so compiler changes cannot move it. *)
let test_interp_pinned () =
  List.iter
    (fun (name, g, expected) ->
      let buf = Buffer.create (1 lsl 20) in
      let add t =
        Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) (Tensor.data t)
      in
      List.iter
        (fun seed ->
          let env = Interp.random_env ~seed g in
          List.iter (fun (_, t) -> add t) env;
          List.iter add (Interp.eval g env))
        [ 42; 137; 9001 ];
      Alcotest.(check string) name expected (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      ( "ffn_ln",
        Models.ffn_ln ~m:64 ~hidden:256 ~ffn:1024 ~act:`Gelu ~norm:`Layernorm,
        "6962ce3d79835797fba5ffdb9033d24b" );
      ( "mha",
        Models.mha ~batch_heads:4 ~seq_q:64 ~seq_kv:64 ~head_dim:64 (),
        "15ab7c060b91f52a01c9af6807b1d2f2" );
    ]

(* ------------------------------------------------------------------ *)
(* Model zoo structure                                                 *)
(* ------------------------------------------------------------------ *)

let test_zoo_shapes () =
  let m = Models.bert ~batch:2 ~seq:128 in
  Alcotest.(check int) "bert: 4 distinct subprograms" 4 (List.length m.subprograms);
  Alcotest.(check int) "bert: 48 executed subgraphs" 48 (Models.total_subgraphs m);
  let mha = List.find (fun (sp : Models.subprogram) -> sp.sp_name = "mha") m.subprograms in
  Alcotest.(check (array int)) "bert mha q shape" [| 24; 128; 64 |]
    (List.assoc "q" (Graph.inputs mha.graph))

let test_zoo_all_eval () =
  (* Every distinct subprogram of every model interprets cleanly at a
     miniature scale. *)
  let minis =
    [ Models.bert ~batch:1 ~seq:4; Models.t5 ~batch:1 ~seq:4; Models.vit ~batch:1 ~image:32 ]
  in
  List.iter
    (fun (m : Models.model) ->
      List.iter
        (fun (sp : Models.subprogram) ->
          let env = Interp.random_env ~seed:7 sp.graph in
          let outs = Interp.eval sp.graph env in
          List.iter
            (fun t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s finite" m.model_name sp.sp_name)
                true
                (Array.for_all Float.is_finite (Tensor.data t)))
            outs)
        m.subprograms)
    minis

let test_llama_structure () =
  let m = Models.llama2_7b ~batch:1 ~seq:8 in
  Alcotest.(check int) "llama: 5 distinct subprograms" 5 (List.length m.subprograms);
  Alcotest.(check int) "llama: 129 executed subgraphs" 129 (Models.total_subgraphs m)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_mha_rows_convex =
  (* Attention output rows are convex combinations of V rows: with V >= 0
     and rows of V bounded by 1, outputs stay within [min V, max V]. *)
  QCheck.Test.make ~name:"mha output bounded by V range" ~count:30
    QCheck.(triple (int_range 1 3) (int_range 1 6) (int_range 1 5))
    (fun (bh, seq, hd) ->
      let g = Models.mha ~batch_heads:bh ~seq_q:seq ~seq_kv:seq ~head_dim:hd () in
      let env = Interp.random_env ~seed:((bh * 100) + (seq * 10) + hd) g in
      let v = List.assoc "v" env in
      let[@warning "-8"] [ out ] = Interp.eval g env in
      let vmin = Array.fold_left Float.min Float.infinity (Tensor.data v) in
      let vmax = Array.fold_left Float.max Float.neg_infinity (Tensor.data v) in
      Array.for_all (fun x -> x >= vmin -. 1e-9 && x <= vmax +. 1e-9) (Tensor.data out))

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpretation is deterministic" ~count:20 QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Models.lstm_cell ~m:3 ~hidden:5 ~input:4 in
      let env = Interp.random_env ~seed g in
      let a = Interp.eval g env and b = Interp.eval g env in
      List.for_all2 (fun x y -> Tensor.allclose x y) a b)

let props = List.map QCheck_alcotest.to_alcotest [ prop_mha_rows_convex; prop_interp_deterministic ]

let () =
  Alcotest.run "ir"
    [
      ( "graph",
        [
          Alcotest.test_case "shapes" `Quick test_build_shapes;
          Alcotest.test_case "errors" `Quick test_build_errors;
          Alcotest.test_case "navigation" `Quick test_graph_navigation;
          Alcotest.test_case "classification" `Quick test_classification;
        ] );
      ( "interp",
        [
          Alcotest.test_case "softmax" `Quick test_interp_matches_tensor_ops;
          Alcotest.test_case "layernorm" `Quick test_interp_layernorm;
          Alcotest.test_case "mha" `Quick test_interp_mha;
          Alcotest.test_case "missing binding" `Quick test_interp_missing_binding;
          Alcotest.test_case "mlp" `Quick test_interp_mlp_depth;
          Alcotest.test_case "pinned outputs" `Quick test_interp_pinned;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "bert shapes" `Quick test_zoo_shapes;
          Alcotest.test_case "all models eval" `Quick test_zoo_all_eval;
          Alcotest.test_case "llama structure" `Quick test_llama_structure;
        ] );
      ("properties", props);
    ]
