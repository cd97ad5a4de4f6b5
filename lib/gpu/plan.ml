type step = { s_stats : Exec.kstats; s_timing : Cost.timing }

(* Installed walks, newest first. [None] marks a plan unwalkable on that
   arch. The list only grows, by compare-and-set. *)
type memo = (Arch.t * step list option) list Atomic.t

type t = {
  p_name : string;
  p_kernels : Kernel.t list;
  p_decls : (string * Shape.t) list;
  p_memo : memo;
}

let make ~name ~kernels ~decls =
  { p_name = name; p_kernels = kernels; p_decls = decls; p_memo = Atomic.make [] }

let declare_all t device = List.iter (fun (name, shape) -> Device.declare device name shape) t.p_decls

let num_kernels t = List.length t.p_kernels

let m_walks = Obs.Metrics.counter "run.analytic_walks"

let fresh_walk t arch =
  let device = Device.create () in
  let cache = Cost.fresh_cache arch in
  match
    declare_all t device;
    List.map
      (fun k ->
        let s = Exec.run ~mode:Exec.Analytic ~arch device k in
        { s_stats = s; s_timing = Cost.kernel_time arch cache s })
      t.p_kernels
  with
  | steps -> Some steps
  | exception _ -> None

let rec install t arch w =
  let installed = Atomic.get t.p_memo in
  match List.assoc_opt arch installed with
  | Some w -> w
  | None ->
      if Atomic.compare_and_set t.p_memo installed ((arch, w) :: installed) then begin
        Obs.Metrics.incr m_walks;
        w
      end
      else install t arch w

let walk t arch =
  match List.assoc_opt arch (Atomic.get t.p_memo) with
  | Some w -> w
  | None -> install t arch (fresh_walk t arch)

let pp fmt t =
  Format.fprintf fmt "@[<v>plan %s (%d kernels)@," t.p_name (num_kernels t);
  List.iter (fun k -> Format.fprintf fmt "%a@," Kernel.pp k) t.p_kernels;
  Format.fprintf fmt "@]"
