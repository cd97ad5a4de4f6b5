type placement = Auto | Pin of int

type t = {
  backend : Backends.Policy.t;
  arch : Gpu.Arch.t;
  model : Ir.Models.model;
  devices : int;
  placement : placement;
  shapes : Shape_class.policy;
}

let make ?(devices = 1) ?(placement = Auto) ?(shapes = Shape_class.Exact) ~arch backend model =
  if devices < 1 then invalid_arg "Workload.make: devices < 1";
  (match placement with
  | Pin i when i < 0 || i >= devices ->
      invalid_arg (Printf.sprintf "Workload.make: Pin %d outside [0, %d)" i devices)
  | Pin _ | Auto -> ());
  { backend; arch; model; devices; placement; shapes }

(* Same identity a warm plan cache sees: policy, architecture, device
   count and the digest of every subprogram — equal digests license
   coalescing two requests end to end. Under [Pow2], a sliceable
   subprogram contributes its (class id, canonical-graph digest) instead
   of its concrete digest, so every in-class shape shares one identity —
   the batch key. Under [Exact] the digest is byte-identical to the
   legacy one. *)
let digest w =
  let b = Buffer.create 256 in
  Buffer.add_string b w.backend.Backends.Policy.be_name;
  Buffer.add_char b '\x00';
  Buffer.add_string b w.arch.Gpu.Arch.name;
  Buffer.add_char b '\x00';
  Buffer.add_string b (string_of_int w.devices);
  Buffer.add_char b '\x00';
  Buffer.add_string b w.model.Ir.Models.model_name;
  List.iter
    (fun (sp : Ir.Models.subprogram) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b sp.sp_name;
      Buffer.add_string b (string_of_int sp.count);
      match Shape_class.plan_graph ~policy:w.shapes sp.graph with
      | Some (c, cg) ->
          Buffer.add_string b (Shape_class.id c);
          Buffer.add_string b (Digest.string (Ir.Parse.to_dsl cg))
      | None -> Buffer.add_string b (Digest.string (Ir.Parse.to_dsl sp.graph)))
    w.model.Ir.Models.subprograms;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Row batching is sound only when every subprogram rows-slices along
   one shared leading dim (and canonicalizes cleanly); a model that mixes
   sliceable and exact subprograms still shares classed plans but runs
   each request as a one-member batch. *)
let batch_space w =
  match w.shapes with
  | Shape_class.Exact -> None
  | Shape_class.Pow2 -> (
      let dim (sp : Ir.Models.subprogram) =
        match Shape_class.plan_graph ~policy:w.shapes sp.graph with
        | None -> None
        | Some _ -> Shape_class.slice_dim sp.graph
      in
      match List.map dim w.model.Ir.Models.subprograms with
      | [] -> None
      | Some d :: rest when List.for_all (( = ) (Some d)) rest ->
          (* The batch caps at the NEXT shape-class boundary, not this
             class's representative: every in-class dim exceeds half the
             representative, so capping at the representative could never
             stack two members. At [2 * hi] a multi-member batch's row
             total always lands in [(hi, 2*hi]] — exactly one class up,
             one cached plan. *)
          Some (d, 2 * Shape_class.representative (Shape_class.classify d))
      | _ -> None)

let rebatch w ~rows =
  if batch_space w = None then invalid_arg "Workload.rebatch: workload is not row-sliceable";
  let subprograms =
    List.map
      (fun (sp : Ir.Models.subprogram) ->
        { sp with Ir.Models.graph = Shape_class.rebatch sp.graph ~rows })
      w.model.Ir.Models.subprograms
  in
  { w with model = { w.model with Ir.Models.subprograms } }

let path_key w = w.backend.Backends.Policy.be_name ^ "|" ^ w.arch.Gpu.Arch.name

let describe w =
  Printf.sprintf "%s/%s@%s%s" w.model.Ir.Models.model_name w.backend.Backends.Policy.be_name
    w.arch.Gpu.Arch.name
    (if w.devices > 1 then Printf.sprintf " x%d" w.devices else "")

let to_json w =
  Obs.Json.(
    Obj
      [
        ("model", Str w.model.Ir.Models.model_name);
        ("backend", Str w.backend.Backends.Policy.be_name);
        ("arch", Str w.arch.Gpu.Arch.name);
        ("devices", Num (float_of_int w.devices));
        ( "placement",
          match w.placement with
          | Auto -> Str "auto"
          | Pin i -> Str (Printf.sprintf "pin:%d" i) );
        ("shapes", Str (Shape_class.policy_to_string w.shapes));
      ])
