(** Simulated device global memory: a table of named tensors. In analytic
    runs only shapes are tracked; in full (functional) runs tensors carry
    data. *)

type t

val create : unit -> t
val declare : t -> string -> Shape.t -> unit
(** Declare a tensor's shape (idempotent if shapes agree; raises
    [Invalid_argument] on conflicting redeclaration). *)

val bind : t -> string -> Tensor.t -> unit
(** Declare and attach data. *)

val shape : t -> string -> Shape.t
val mem : t -> string -> bool
val tensor : t -> string -> Tensor.t
(** Raises [Invalid_argument] if undeclared or data-less. *)

val ensure_data : t -> string -> Tensor.buf
(** The tensor's buffer, allocating zeros on first touch (for kernel
    outputs in full mode). First-touch allocations draw from the ambient
    {!Tensor.Arena} when one is installed. *)

val release_owned : t -> Tensor.Arena.t -> unit
(** Return every buffer the device itself allocated (via {!ensure_data})
    to [arena] and drop the data bindings. Buffers attached with {!bind}
    are left alone — the caller owns those. Any {!tensor} view of an
    owned buffer must be dead before calling this. *)

val attach_faults : t -> Fault.Inject.t -> unit
(** Attach a fault injector: subsequent kernel launches on this device
    consult it (see {!Exec.run}) and may raise {!Fault.Plan.Injected}. *)

val faults : t -> Fault.Inject.t option

val names : t -> string list
