(* Options, converters and helpers shared by the spacefusion subcommands.
   Every flag that more than one subcommand accepts is defined here once —
   serve, chaos, warm and query used to each spell their own --seed /
   --store / --telemetry / --workers / --deadline-ms, and --devices lands
   in one place for all of them. *)

open Cmdliner

let arch_conv =
  let parse s =
    match Gpu.Arch.by_name s with
    | a -> Ok a
    | exception Not_found -> Error (`Msg (Printf.sprintf "unknown architecture %S" s))
  in
  Arg.conv (parse, fun fmt (a : Gpu.Arch.t) -> Format.pp_print_string fmt a.name)

let arch_arg =
  Arg.(value & opt arch_conv Gpu.Arch.ampere & info [ "arch" ] ~doc:"volta | ampere | hopper")

(* One exit path for every typed pipeline error the subcommands hit. *)
let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "error: %s\n" (Core.Spacefusion.Error.to_string e);
      exit 1

(* The mixed-traffic zoo the serve storm, the chaos storm and the warm CLI
   all draw from: same names, same graphs, so a store warmed by one is
   warm for the others. *)
let mini_zoo () =
  let one name g =
    { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }
  in
  [
    one "ln" (Ir.Models.layernorm_graph ~m:128 ~n:128);
    one "rms" (Ir.Models.rmsnorm_graph ~m:128 ~n:128);
    one "softmax" (Ir.Models.softmax_graph ~m:128 ~n:128);
    one "mlp" (Ir.Models.mlp ~layers:2 ~m:32 ~n:128 ~k:128);
    one "sm-gemm" (Ir.Models.softmax_gemm ~m:32 ~l:128 ~n:64);
    one "bn" (Ir.Models.batchnorm_graph ~m:128 ~n:128);
  ]

let serve_backends () =
  [ Backends.Baselines.pytorch; Backends.Baselines.cublas; Backends.Baselines.cublaslt ]

let metric_counter name =
  match Obs.Metrics.find name with Some (Obs.Metrics.Counter n) -> n | _ -> 0

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ]
        ~docv:"DIR"
        ~doc:
          "back the plan cache with the on-disk plan store at $(docv): plans (and their \
           verified stamps) load on start and persist across restarts")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ]
        ~docv:"DIR"
        ~doc:
          "append this run's metrics as a row to the columnar telemetry store at $(docv) \
           (query it with $(b,spacefusion query))")

let seed_arg ~default ~doc = Arg.(value & opt int default & info [ "seed" ] ~doc)
let workers_arg ~default ~doc = Arg.(value & opt int default & info [ "workers" ] ~doc)

let deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~doc:"per-request deadline; expired backlog entries time out")

let devices_arg =
  Arg.(
    value & opt int 1
    & info [ "devices" ]
        ~doc:
          "simulated devices behind the command (an NVLink-style node). With more than one, \
           serving routes across a device fleet and every workload is priced by the \
           cross-device sharding scheduler")

let pretty_arg =
  Arg.(value & flag & info [ "pretty" ] ~doc:"human-readable summary instead of JSON")

let bucket_conv =
  let parse s =
    match Runtime.Shape_class.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown bucketing policy %S (exact | pow2)" s))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Runtime.Shape_class.policy_to_string p))

let bucket_arg =
  Arg.(
    value
    & opt bucket_conv Runtime.Shape_class.Exact
    & info [ "bucket" ] ~docv:"POLICY"
        ~doc:
          "shape-bucketing policy: $(b,exact) (one plan per concrete shape, every request run \
           on its own) or $(b,pow2) (power-of-two shape classes with guard predicates and \
           continuous row batching)")
