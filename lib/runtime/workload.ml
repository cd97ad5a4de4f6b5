type placement = Auto | Pin of int

type sub = {
  sp : Ir.Models.subprogram;
  name : string;
  cls : Shape_class.t option;
  graph : Ir.Graph.t;
  digest : Digest.t;
}

type t = {
  backend : Backends.Policy.t;
  arch : Gpu.Arch.t;
  model : Ir.Models.model;
  devices : int;
  placement : placement;
  shapes : Shape_class.policy;
  subs : sub list;
  key : string;
  space : (int * int) option;
}

(* Same identity a warm plan cache sees: policy, architecture, device
   count and the digest of every subprogram — equal digests license
   coalescing two requests end to end. A classed subprogram contributes
   its (class id, canonical-graph digest) instead of its concrete digest,
   so every in-class shape shares one identity — the batch key. Under
   [Exact] the digest is byte-identical to the legacy one. *)
let key_of (backend : Backends.Policy.t) arch ~devices (model : Ir.Models.model) subs =
  let b = Buffer.create 256 in
  Buffer.add_string b backend.be_name;
  Buffer.add_char b '\x00';
  Buffer.add_string b arch.Gpu.Arch.name;
  Buffer.add_char b '\x00';
  Buffer.add_string b (string_of_int devices);
  Buffer.add_char b '\x00';
  Buffer.add_string b model.model_name;
  List.iter
    (fun s ->
      Buffer.add_char b '\x00';
      Buffer.add_string b s.sp.sp_name;
      Buffer.add_string b (string_of_int s.sp.count);
      Option.iter (fun c -> Buffer.add_string b (Shape_class.id c)) s.cls;
      Buffer.add_string b s.digest)
    subs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Row batching is sound only when every subprogram rows-slices along
   one shared leading dim (and canonicalizes cleanly); a model that mixes
   sliceable and exact subprograms still shares classed plans but runs
   each request as a one-member batch. [dims] holds each classed
   subprogram's leading dim, [None] for an exact one. *)
let space_of dims =
  match dims with
  | Some d :: rest when List.for_all (( = ) (Some d)) rest ->
      (* The batch caps at the NEXT shape-class boundary, not this class's
         representative: every in-class dim exceeds half the
         representative, so capping at the representative could never
         stack two members. At [2 * hi] a multi-member batch's row total
         always lands in [(hi, 2*hi]] — exactly one class up, one cached
         plan. *)
      Some (d, 2 * Shape_class.representative (Shape_class.classify d))
  | _ -> None

let make ?(devices = 1) ?(placement = Auto) ?(shapes = Shape_class.Exact) ~arch backend model =
  if devices < 1 then invalid_arg "Workload.make: devices < 1";
  (match placement with
  | Pin i when i < 0 || i >= devices ->
      invalid_arg (Printf.sprintf "Workload.make: Pin %d outside [0, %d)" i devices)
  | Pin _ | Auto -> ());
  (* Each subprogram's identity, derived once: under [Pow2] a sliceable
     subprogram is classed by its leading dim and planned at the class
     representative; anything else keeps its concrete graph. *)
  let derived =
    List.map
      (fun (sp : Ir.Models.subprogram) ->
        let rows =
          match shapes with Shape_class.Exact -> None | Pow2 -> Shape_class.slice_dim sp.graph
        in
        let cls, graph, rows =
          match Option.bind rows (fun rows -> Shape_class.canonical sp.graph ~rows) with
          | Some (c, cg) -> (Some c, cg, rows)
          | None -> (None, sp.graph, None)
        in
        let name = model.Ir.Models.model_name ^ "." ^ sp.sp_name in
        ({ sp; name; cls; graph; digest = Plan_cache.graph_digest graph }, rows))
      model.Ir.Models.subprograms
  in
  let subs = List.map fst derived in
  {
    backend; arch; model; devices; placement; shapes; subs;
    key = key_of backend arch ~devices model subs;
    space = space_of (List.map snd derived);
  }

let digest w = w.key
let batch_space w = w.space

let rebatch w ~rows =
  if Option.is_none w.space then invalid_arg "Workload.rebatch: workload is not row-sliceable";
  let subprograms =
    List.map
      (fun (sp : Ir.Models.subprogram) ->
        { sp with Ir.Models.graph = Shape_class.rebatch sp.graph ~rows })
      w.model.Ir.Models.subprograms
  in
  make ~devices:w.devices ~placement:w.placement ~shapes:w.shapes ~arch:w.arch w.backend
    { w.model with Ir.Models.subprograms }

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
