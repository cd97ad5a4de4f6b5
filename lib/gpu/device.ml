type entry = {
  eshape : Shape.t;
  mutable edata : Tensor.buf option;
  mutable eowned : bool;  (* allocated by [ensure_data]: safe to return to an arena *)
}

type t = { tensors : (string, entry) Hashtbl.t; mutable inj : Fault.Inject.t option }

let create () = { tensors = Hashtbl.create 64; inj = None }

let attach_faults t inj = t.inj <- Some inj
let faults t = t.inj

let declare t name shape =
  Shape.validate shape;
  match Hashtbl.find_opt t.tensors name with
  | None -> Hashtbl.replace t.tensors name { eshape = shape; edata = None; eowned = false }
  | Some e ->
      if not (Shape.equal e.eshape shape) then
        invalid_arg
          (Printf.sprintf "Device.declare: %S redeclared %s -> %s" name
             (Shape.to_string e.eshape) (Shape.to_string shape))

let bind t name tensor =
  declare t name (Tensor.shape tensor);
  let e = Hashtbl.find t.tensors name in
  e.edata <- Some (Tensor.buffer tensor);
  e.eowned <- false

let find t name =
  match Hashtbl.find_opt t.tensors name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Device: unknown tensor %S" name)

let shape t name = (find t name).eshape
let mem t name = Hashtbl.mem t.tensors name

let ensure_data t name =
  let e = find t name in
  match e.edata with
  | Some d -> d
  | None ->
      let n = Shape.numel e.eshape in
      let d =
        match Tensor.Arena.current () with
        | Some a -> Tensor.Arena.alloc a n
        | None -> Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n
      in
      (* Arena buffers are recycled, so zero explicitly to keep the old
         [Array.make _ 0.0] first-touch semantics. *)
      Bigarray.Array1.fill d 0.0;
      e.edata <- Some d;
      e.eowned <- true;
      d

let tensor t name =
  let e = find t name in
  match e.edata with
  | Some d -> Tensor.of_buffer e.eshape d
  | None -> invalid_arg (Printf.sprintf "Device.tensor: %S has no data (analytic run?)" name)

let release_owned t arena =
  Hashtbl.iter
    (fun _ e ->
      if e.eowned then begin
        (match e.edata with Some d -> Tensor.Arena.release arena d | None -> ());
        e.edata <- None;
        e.eowned <- false
      end)
    t.tensors

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tensors []
