(* Property tests for the broadcast-postposition rewrite engine: rewriting
   must preserve semantics on random expressions and random data, and the
   extracted normal forms must evaluate to the original reductions. *)

open Core
module Op = Ir.Op

(* A little evaluator for Pexpr over concrete data: t-varying leaves are
   vectors of length [n]; EScal leaves are bound scalars. *)
let rec eval ~vecs ~scals ~n (e : Pexpr.expr) : float array =
  let splat v = Array.make n v in
  match e with
  | Pexpr.EIn (id, uniform) ->
      let v = List.assoc id vecs in
      if uniform then splat v.(0) else v
  | Pexpr.EScal id -> splat (List.assoc id scals)
  | Pexpr.EConst c -> splat c
  | Pexpr.ERaw _ -> failwith "eval: raw slot"
  | Pexpr.EUn (op, a) -> Array.map (Op.apply_unop op) (eval ~vecs ~scals ~n a)
  | Pexpr.EBin (op, a, b) ->
      let va = eval ~vecs ~scals ~n a and vb = eval ~vecs ~scals ~n b in
      Array.init n (fun i -> Op.apply_binop op va.(i) vb.(i))
  | Pexpr.ERed (op, a) ->
      let va = eval ~vecs ~scals ~n a in
      let combined = Array.fold_left (Op.redop_combine op) (Op.redop_identity op) va in
      splat (match op with Op.Rmean -> combined /. float_of_int n | _ -> combined)

(* Random expression generator over two vector leaves (0: varying, 1:
   uniform) and one scalar (id 10). Keeps to the ops the rules cover and to
   positive-ish magnitudes so div/exp stay finite. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return (Pexpr.EIn (0, false));
        return (Pexpr.EIn (1, true));
        return (Pexpr.EScal 10);
        map (fun c -> Pexpr.EConst c) (float_range 0.5 2.0);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map2 (fun a b -> Pexpr.EBin (Op.Add, a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Pexpr.EBin (Op.Sub, a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Pexpr.EBin (Op.Mul, a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map (fun a -> Pexpr.EBin (Op.Div, a, Pexpr.EScal 10)) (go (depth - 1)));
          (1, map (fun a -> Pexpr.EUn (Op.Sqr, a)) (go (depth - 1)));
          (1, map (fun a -> Pexpr.EUn (Op.Exp, Pexpr.EBin (Op.Sub, a, Pexpr.EScal 10))) (go (depth - 1)));
          (1, map (fun a -> Pexpr.ERed (Op.Rsum, a)) (go (depth - 1)));
          (1, map (fun a -> Pexpr.ERed (Op.Rmean, a)) (go (depth - 1)));
        ]
  in
  go 4

let arb_expr = QCheck.make ~print:Pexpr.to_string gen_expr

(* [a = b] first: nested exps overflow to the same infinity on both sides,
   and inf - inf is nan. *)
let close a b =
  let scale = 1.0 +. Float.max (Float.abs a) (Float.abs b) in
  a = b || (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-6 *. scale

let prop_rewrite_preserves_semantics =
  QCheck.Test.make ~name:"postposition preserves semantics" ~count:300
    QCheck.(pair arb_expr (int_range 0 10000))
    (fun (e, seed) ->
      let n = 5 in
      let rng = Rng.create seed in
      let vec () = Array.init n (fun _ -> Rng.uniform rng ~lo:0.2 ~hi:1.8) in
      let vecs = [ (0, vec ()); (1, vec ()) ] in
      let scals = [ (10, Rng.uniform rng ~lo:0.5 ~hi:1.5) ] in
      let before = eval ~vecs ~scals ~n e in
      let after = eval ~vecs ~scals ~n (Pexpr.rewrite ~extent:n e) in
      Array.for_all2 close before after)

let prop_extract_sound =
  (* When extraction succeeds on a rewritten reduction, evaluating
     reduce(core) × Π atomᵉ reproduces the original value. *)
  QCheck.Test.make ~name:"extracted normal form is sound" ~count:300
    QCheck.(pair arb_expr (int_range 0 10000))
    (fun (body, seed) ->
      let n = 5 in
      let e = Pexpr.ERed (Op.Rsum, body) in
      let rewritten = Pexpr.rewrite ~extent:n e in
      match Pexpr.extract rewritten with
      | None -> QCheck.assume_fail ()
      | Some { nf_op; nf_core; nf_scale } ->
          let rng = Rng.create seed in
          let vec () = Array.init n (fun _ -> Rng.uniform rng ~lo:0.2 ~hi:1.8) in
          let vecs = [ (0, vec ()); (1, vec ()) ] in
          let scals = [ (10, Rng.uniform rng ~lo:0.5 ~hi:1.5) ] in
          let original = (eval ~vecs ~scals ~n e).(0) in
          let raw = (eval ~vecs ~scals ~n (Pexpr.ERed (nf_op, nf_core))).(0) in
          let atom_value = function
            | Pexpr.AConst c -> c
            | Pexpr.AScal id -> List.assoc id scals
            | Pexpr.AExp id -> exp (List.assoc id scals)
          in
          let scaled =
            List.fold_left
              (fun acc (a, expo) -> acc *. (atom_value a ** float_of_int expo))
              raw nf_scale
          in
          close original scaled)

let prop_uniformity_stable =
  QCheck.Test.make ~name:"rewriting never changes t-uniformity" ~count:300 arb_expr (fun e ->
      Pexpr.is_uniform e = Pexpr.is_uniform (Pexpr.rewrite ~extent:7 e))

(* Unit checks of the flagship derivations. *)

let test_softmax_sum_nf () =
  (* red_sum(exp(x − max)) normalizes to red_sum(exp x) / exp(max). *)
  let e = Pexpr.ERed (Op.Rsum, Pexpr.EUn (Op.Exp, Pexpr.EBin (Op.Sub, Pexpr.EIn (0, false), Pexpr.EScal 1))) in
  match Pexpr.extract (Pexpr.rewrite ~extent:8 e) with
  | Some { nf_op = Op.Rsum; nf_scale = [ (Pexpr.AExp 1, -1) ]; _ } -> ()
  | Some nf ->
      Alcotest.failf "unexpected nf: scale=%s core=%s"
        (Update_fn.factor_to_string nf.nf_scale)
        (Pexpr.to_string nf.nf_core)
  | None -> Alcotest.fail "extraction failed"

let test_attention_out_nf () =
  (* red_sum(div(exp(x−max), sum) · v) → scale exp(max)⁻¹ · sum⁻¹. *)
  let p =
    Pexpr.EBin
      ( Op.Div,
        Pexpr.EUn (Op.Exp, Pexpr.EBin (Op.Sub, Pexpr.EIn (0, false), Pexpr.EScal 1)),
        Pexpr.EScal 2 )
  in
  let e = Pexpr.ERed (Op.Rsum, Pexpr.EBin (Op.Mul, p, Pexpr.EIn (3, false))) in
  match Pexpr.extract (Pexpr.rewrite ~extent:8 e) with
  | Some { nf_scale; _ } ->
      let sorted = List.sort compare nf_scale in
      Alcotest.(check bool) "two divisor atoms" true
        (sorted = List.sort compare [ (Pexpr.AExp 1, -1); (Pexpr.AScal 2, -1) ])
  | None -> Alcotest.fail "extraction failed"

let test_variance_falls_back () =
  (* red_mean((x − mean)²) mixes several reductions: extraction must fail
     and collect_raws must find Σx² and Σx. *)
  let centered = Pexpr.EBin (Op.Sub, Pexpr.EIn (0, false), Pexpr.EScal 1) in
  let e =
    Pexpr.EBin (Op.Div, Pexpr.ERed (Op.Rsum, Pexpr.EUn (Op.Sqr, centered)), Pexpr.EConst 8.0)
  in
  let r = Pexpr.rewrite ~extent:8 e in
  Alcotest.(check (option unit)) "no single-monomial nf" None
    (Option.map (fun _ -> ()) (Pexpr.extract r));
  let raws, value = Pexpr.collect_raws r in
  Alcotest.(check int) "two raw reductions" 2 (List.length raws);
  Alcotest.(check bool) "value references raw slots" true (Pexpr.to_string value <> "")

let test_uniform_reduction_rule () =
  (* red_sum of a t-uniform value becomes extent × value. *)
  let e = Pexpr.ERed (Op.Rsum, Pexpr.EUn (Op.Sqr, Pexpr.EScal 1)) in
  match Pexpr.rewrite ~extent:8 e with
  | Pexpr.EBin (Op.Mul, Pexpr.EConst 8.0, Pexpr.EUn (Op.Sqr, Pexpr.EScal 1)) -> ()
  | e' -> Alcotest.failf "unexpected: %s" (Pexpr.to_string e')

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rewrite_preserves_semantics; prop_extract_sound; prop_uniformity_stable ]

let () =
  Alcotest.run "pexpr"
    [
      ( "normal forms",
        [
          Alcotest.test_case "softmax sum" `Quick test_softmax_sum_nf;
          Alcotest.test_case "attention out" `Quick test_attention_out_nf;
          Alcotest.test_case "variance fallback" `Quick test_variance_falls_back;
          Alcotest.test_case "uniform reduction" `Quick test_uniform_reduction_rule;
        ] );
      ("properties", props);
    ]
