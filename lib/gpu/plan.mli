(** An executable plan: the kernels a scheduling policy (SpaceFusion or a
    baseline) emits for one subprogram, plus the global tensors they
    exchange.

    A plan's Analytic walk is a pure function of its kernels, its
    declarations and the architecture, so the plan memoises it ({!walk}).
    The record is private so that only {!make} builds one: a copy made
    with other kernels (a mutant, a decoded plan) starts with no memo and
    can never report another plan's cost. Structural equality also
    compares memos, so compare two plans by their other fields. *)

type memo
(** The plan's memoised Analytic walks, one per architecture value. *)

type t = private {
  p_name : string;
  p_kernels : Kernel.t list;  (** launch order *)
  p_decls : (string * Shape.t) list;  (** intermediate/output tensor shapes *)
  p_memo : memo;
}

val make : name:string -> kernels:Kernel.t list -> decls:(string * Shape.t) list -> t
(** A plan with no memoised walk. *)

val declare_all : t -> Device.t -> unit
val num_kernels : t -> int

type step = { s_stats : Exec.kstats; s_timing : Cost.timing }
(** One kernel of a walk: its counters, and its timing on the walk's L2
    model. *)

val walk : t -> Arch.t -> step list option
(** The plan's Analytic walk on [arch], one step per kernel in launch
    order, timed on one {!Cost.cache} that starts fresh at the first
    kernel — what a fault-free {!Exec.run} [~mode:Analytic ~arch] and
    {!Cost.kernel_time} loop over [p_kernels] computes. The first call for
    an architecture value (compared structurally, not by name) walks the
    plan on a new device holding only [p_decls], with no fault injector,
    and installs the result in the plan atomically: a racing second walk
    computes the same values, and the first install wins. Each install
    counts one [run.analytic_walks]. Later calls read the memo.

    [None] when that walk raises (an invalid kernel, a kernel over the
    arch's budget, a tensor missing from [p_decls]): the plan is then
    marked unwalkable on [arch], and callers walk its kernels themselves
    to raise the same exception. *)

val pp : Format.formatter -> t -> unit
