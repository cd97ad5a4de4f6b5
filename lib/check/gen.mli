(** Trace-based random graph generator for differential testing.

    A trace records the input shape and a list of op entries whose operand
    references are taken modulo the live-value pool, so {e any} sublist of
    entries still builds a well-typed graph. That closure property is what
    makes {!shrink} safe: every shrink candidate is a valid trace by
    construction. Generated graphs cover the operator family SpaceFusion
    schedules — element-wise chains with broadcasting, keepdims row/column
    reductions, matmuls against fresh weights, and the dependent
    max/exp/sum softmax chain that triggers update-then-aggregate
    scheduling. *)

type kind =
  | KUnary of Ir.Op.unop
  | KBinary of Ir.Op.binop
  | KRowReduce of Ir.Op.redop
  | KColReduce of Ir.Op.redop
  | KMatmul of { mm_out : int; mm_trans : bool }
  | KVecScale of Ir.Op.binop  (** binary against a fresh broadcast vector *)
  | KSoftmax  (** dependent-reduction chain: max → sub → exp → sum → div *)

type entry = { e_src : int; e_alt : int; e_kind : kind }
(** Operand indices are reduced modulo the pool size at build time. *)

type t = { g_rows : int; g_cols : int; g_entries : entry list }
(** A trace: the input's shape plus the entries to replay. *)

type spec = { sp_nodes : int; sp_seed : int }
(** A compact case description; expands deterministically via
    {!trace_of_spec}. *)

val spec_to_string : spec -> string
val to_string : t -> string

val trace_of_spec : spec -> t
(** Deterministic: the same spec always yields the same trace. *)

val build : t -> Ir.Graph.t
(** Replay a trace into a graph. Always yields at least one compute node
    and marks up to two sink nodes as outputs. *)

val graph_of_spec : spec -> Ir.Graph.t
(** [build (trace_of_spec spec)]. *)

val with_rows : t -> int -> t
(** Treat the leading (batch) dim as symbolic: the same trace rebuilt at
    another row count. For a trace with no column reductions (every live
    value keeps the leading dim, nothing mixes rows) the entry semantics
    are rows-invariant, so this is exactly the graph family one
    shape-class plan serves. Raises [Invalid_argument] on [rows < 1]. *)

val shrink : ?max_steps:int -> still_fails:(t -> bool) -> t -> t
(** Greedy shrinking: repeatedly adopt the first candidate (an entry
    dropped, a dimension reduced to 2, or an op simplified to Relu) that
    still satisfies [still_fails], until none does or [max_steps]
    (default 200) candidates have been tried. *)
