let default_seeds = [ 42; 137; 9001 ]

let tensor_nonfinite t =
  let buf = Tensor.buffer t in
  let n = Tensor.numel t in
  let bad = ref None in
  (try
     for i = 0 to n - 1 do
       let v = buf.{i} in
       if not (Float.is_finite v) then begin
         bad := Some (i, v);
         raise Exit
       end
     done
   with Exit -> ());
  !bad

let reference_finite ?(seeds = default_seeds) graph =
  List.for_all
    (fun seed ->
      let env = Ir.Interp.random_env ~seed graph in
      List.for_all (fun t -> tensor_nonfinite t = None) (Ir.Interp.eval graph env))
    seeds

(* Execute [plan] on a fresh device against inputs drawn from [seed] and
   compare every output tensor to the interpreter. A non-finite value on
   either side is a failure in its own right: allclose on matching
   infinities would otherwise report vacuous agreement. *)
let verify_seed ~rtol ~atol ~arch ~name graph (plan : Gpu.Plan.t) seed =
  let env = Ir.Interp.random_env ~seed graph in
  let expected = Ir.Interp.eval graph env in
  let device = Gpu.Device.create () in
  Gpu.Plan.declare_all plan device;
  let clash (n, t) =
    Gpu.Device.mem device n && not (Shape.equal (Gpu.Device.shape device n) (Tensor.shape t))
  in
  match List.find_opt clash env with
  | Some (n, t) ->
      Error
        (Printf.sprintf "%s: input %s is declared %s by the plan but drawn %s (seed %d)" name n
           (Shape.to_string (Gpu.Device.shape device n))
           (Shape.to_string (Tensor.shape t)) seed)
  | None -> (
      List.iter (fun (n, t) -> Gpu.Device.bind device n t) env;
      match
        List.iter
          (fun k -> ignore (Gpu.Exec.run ~mode:Gpu.Exec.Full ~arch device k))
          plan.Gpu.Plan.p_kernels
      with
      | exception e ->
          Error (Printf.sprintf "%s: execution failed (seed %d): %s" name seed (Printexc.to_string e))
      | () ->
          let rec check i = function
            | [] -> Ok ()
            | expect :: rest -> (
                let tname = Printf.sprintf "%s:out%d" name i in
                match Gpu.Device.tensor device tname with
                | exception _ ->
                    Error (Printf.sprintf "%s: output %s was never written (seed %d)" name tname seed)
                | actual when not (Shape.equal (Tensor.shape actual) (Tensor.shape expect)) ->
                    Error
                      (Printf.sprintf "%s: output %s has shape %s, reference %s (seed %d)" name
                         tname
                         (Shape.to_string (Tensor.shape actual))
                         (Shape.to_string (Tensor.shape expect))
                         seed)
                | actual -> (
                    match (tensor_nonfinite expect, tensor_nonfinite actual) with
                    | Some (i, v), _ ->
                        Error
                          (Printf.sprintf "%s: reference %s is non-finite (%g at %d, seed %d)" name
                             tname v i seed)
                    | None, Some (i, v) ->
                        Error
                          (Printf.sprintf "%s: output %s is non-finite (%g at %d, seed %d)" name
                             tname v i seed)
                    | None, None ->
                        if Tensor.allclose ~rtol ~atol expect actual then check (i + 1) rest
                        else
                          Error
                            (Printf.sprintf
                               "%s: output %s differs from reference (max abs diff %g, seed %d)"
                               name tname (Tensor.max_abs_diff expect actual) seed)))
          in
          check 0 expected)

(* Fewest elements a graph's [random_env] draws for which checking its
   seeds on helper domains pays. A helper costs about 200 µs to spawn and
   join, which is what checking one LayerNorm seed of about 4K drawn
   elements takes. *)
let parallel_floor = 4096

let drawn_elements graph =
  List.fold_left
    (fun acc (_, shape) -> acc + Shape.numel shape)
    0
    (Ir.Graph.inputs graph @ Ir.Graph.weights graph)

let verify_plan ?(seeds = default_seeds) ?(rtol = 1e-6) ?(atol = 1e-8) ~arch ~name graph plan =
  if seeds = [] then invalid_arg "Verify.verify_plan: empty seed list";
  let seeds = Array.of_list seeds in
  let n = Array.length seeds in
  let jobs = if drawn_elements graph >= parallel_floor then Core.Parallel.default_jobs () else 1 in
  (* Seeds are independent: each draws its own inputs and walks the plan
     on its own device. A failed seed starts no later one, as a serial
     sweep would stop there, and folding the results in seed order keeps
     the first [Error] and the first exception those of a serial sweep. *)
  let result =
    Core.Parallel.tabulate ~stop:Result.is_error ~jobs n (fun i ->
        verify_seed ~rtol ~atol ~arch ~name graph plan seeds.(i))
  in
  let rec fold i =
    if i = n then Ok () else match result i with Ok () -> fold (i + 1) | Error _ as e -> e
  in
  fold 0

let verify_backend ?seeds ~arch ~name (backend : Backends.Policy.t) graph =
  match backend.Backends.Policy.compile arch ~name graph with
  | exception e ->
      Error (Printf.sprintf "%s/%s: compile failed: %s" backend.Backends.Policy.be_name name
           (Printexc.to_string e))
  | plan -> verify_plan ?seeds ~arch ~name graph plan
