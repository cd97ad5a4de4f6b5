(** Dense row-major n-d tensors of floats.

    Values are stored in float64 for numerical fidelity of the correctness
    oracle; the GPU cost model accounts sizes in FP16 separately.

    Storage is a flat {!Bigarray.Array1} (C layout), so tensor payloads
    live outside the OCaml heap and the kernel loops run over unboxed
    floats without bounds checks. When an {!Arena} is installed (see
    {!Arena.with_arena}), freshly built tensors draw their buffers from
    its free lists instead of allocating. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { shape : Shape.t; data : buf }

(** {1 Arenas}

    A size-bucketed free-list allocator for tensor buffers. Runtimes
    install one around a launch (or a serving request) so that the
    buffers of intermediate tensors are recycled across runs instead of
    churning the allocator. Thread-safe; the ambient binding made by
    {!Arena.with_arena} is per-domain. Reports [arena.bytes_held],
    [arena.hits], [arena.misses] and [arena.evicted] via [Obs.Metrics]. *)
module Arena : sig
  type t

  val create : ?max_bytes:int -> unit -> t
  (** [max_bytes] caps the total bytes parked on free lists (default
      256 MiB); releases beyond the cap drop the buffer instead. *)

  val alloc : t -> int -> buf
  (** [alloc a n] returns an [n]-element buffer, reusing a released one
      of exactly that size when available. Contents are unspecified. *)

  val release : t -> buf -> unit
  (** Return a buffer to the free lists. The caller must not touch the
      buffer afterwards and must guarantee no live tensor still refers
      to it. *)

  val with_arena : t -> (unit -> 'a) -> 'a
  (** Run a thunk with the arena installed as this domain's ambient
      allocator; restores the previous binding on exit (nesting ok). *)

  val current : unit -> t option

  val with_budget : t -> bytes:int -> (unit -> 'a) -> 'a
  (** Run a thunk under a hard byte budget on {e live} allocations
      (handed out minus released, counted from zero at scope entry). An
      allocation that would exceed the budget raises
      {!Fault.Plan.Injected} with kind [Resource_exhausted] (counted in
      [arena.budget_trips] and [fault.resource_exhausted]) instead of
      allocating. Restores the previous budget and live count on exit,
      so per-request scopes nest and never charge each other. *)

  val bytes_held : t -> int
  val hits : t -> int
  val misses : t -> int
  val evicted : t -> int

  val live_bytes : t -> int
  (** Bytes handed out and not yet released within the current budget
      scope (0 when no {!with_budget} scope was ever entered). *)

  val budget_trips : t -> int
  (** Allocations refused because they would have exceeded a budget. *)
end

val release : Arena.t -> t -> unit
(** Return a tensor's buffer to an arena. Same aliasing caveat as
    {!Arena.release}: the tensor (and any {!reshape} of it) must be
    dead. *)

(** {1 Construction} *)

val create : Shape.t -> float -> t
val zeros : Shape.t -> t
val ones : Shape.t -> t
val scalar : float -> t
val of_array : Shape.t -> float array -> t
(** Copies the array into a fresh buffer. Raises [Invalid_argument] on
    size mismatch. *)

val of_buffer : Shape.t -> buf -> t
(** Takes ownership of the buffer (no copy). Raises [Invalid_argument]
    on size mismatch. *)

val init : Shape.t -> (int array -> float) -> t
val randn : ?scale:float -> Rng.t -> Shape.t -> t
val arange : int -> t
(** [arange n] is the 1-d tensor [0.; 1.; ...; n-1.]. *)

(** {1 Access} *)

val shape : t -> Shape.t
val numel : t -> int
val get : t -> int array -> float
val set : t -> int array -> float -> unit

val buffer : t -> buf
(** The underlying flat buffer (shared, mutable). *)

val data : t -> float array
(** A fresh boxed-array copy of the contents (for interop/tests; the
    hot paths use {!buffer}). *)

val reshape : t -> Shape.t -> t
(** Same buffer, new shape; element counts must match. *)

(** {1 Elementwise, with broadcasting} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val maximum : t -> t -> t
val minimum : t -> t -> t
val neg : t -> t
val exp : t -> t
val sqrt_ : t -> t
val relu : t -> t
val tanh_ : t -> t
val sigmoid : t -> t
val gelu : t -> t
val recip : t -> t
val rsqrt : t -> t
val sqr : t -> t
val add_scalar : t -> float -> t
val mul_scalar : t -> float -> t

(** {1 Reductions} *)

val reduce : [ `Sum | `Max | `Min | `Mean ] -> axis:int -> keepdims:bool -> t -> t
val sum : ?axis:int -> ?keepdims:bool -> t -> t
val max_ : ?axis:int -> ?keepdims:bool -> t -> t
val mean : ?axis:int -> ?keepdims:bool -> t -> t
val sum_all : t -> float

(** {1 Linear algebra} *)

val matmul : ?trans_b:bool -> t -> t -> t
(** Batched matrix multiply over the last two axes with broadcast batch
    dims. With [trans_b] the RHS is interpreted as [[...; n; k]] so the
    contraction reads rows of both operands (the paper's GEMM convention
    [C = A·Bᵀ]). Every output is bit-identical to a naive dot product:
    a sum from [0.0] over ascending k. *)

val softmax : axis:int -> t -> t
(** Numerically-stable softmax (max-subtraction), the MHA reference. *)

val layernorm : ?eps:float -> ?gamma:t -> ?beta:t -> axis:int -> t -> t

(** {1 Comparison and printing} *)

val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool
val max_abs_diff : t -> t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
