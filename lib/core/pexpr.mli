(** Per-row symbolic expressions along a sliced dimension, and the
    Broadcast Postposition rewrite engine (§4.3, Fig 8).

    For a fixed point of the non-sliced dimensions, every value in the block
    is either a stream along the sliced dimension [t] (t-varying) or a
    per-row scalar (t-uniform). Broadcast postposition rewrites the
    expressions so that scalar factors introduced by broadcasts move outside
    the reductions, exposing each reduction's normal form
    [raw_reduction × scalar_monomial] — from which Update Functions are
    generated. *)

type atom =
  | AExp of Ir.Graph.node_id  (** [exp] of a maintained scalar (a row max) *)
  | AScal of Ir.Graph.node_id  (** a maintained scalar (e.g. a row sum) *)
  | AConst of float

type expr =
  | EIn of Ir.Graph.node_id * bool  (** opaque leaf; [true] = t-uniform *)
  | EScal of Ir.Graph.node_id  (** reference to a t-reduction's value *)
  | EConst of float
  | ERaw of int  (** slot of an extracted raw reduction (fallback plans) *)
  | EUn of Ir.Op.unop * expr
  | EBin of Ir.Op.binop * expr * expr
  | ERed of Ir.Op.redop * expr  (** reduction along t ([Rmean] never appears:
                                    converted to [Rsum]/extent at build) *)

val is_uniform : expr -> bool

val is_t_reduction : Smg.t -> dim:int -> Ir.Graph.node_id -> bool
(** The node reduces along the sliced dimension (a [Reduce] on it, or a
    [Matmul] contracting it). *)

val defn : Smg.t -> dim:int -> Ir.Graph.node_id -> expr
(** One-level expansion of a t-reduction node: its own reduction applied to
    the expanded argument. For any other node, the expression of its
    value, referencing t-reductions as [EScal] (their maintained
    values). *)

val rewrite : extent:int -> expr -> expr
(** Broadcast postposition to fixpoint. Semantics-preserving rules:
    [exp(x−s) → exp x / exp s], [(x−s)² → x² − 2sx + s²], linear reductions
    distribute over ±, scalar factors move out of linear reductions, and
    linear reductions of t-uniform values become [extent × s]. [extent] is
    the sliced dimension's full extent. *)

type nf = { nf_op : Ir.Op.redop; nf_core : expr; nf_scale : (atom * int) list }
(** [value = reduce(core) × Π atomᵉ]. *)

val extract : expr -> nf option
(** Normal form of a rewritten reduction definition, when it matches the
    single-reduction × scalar-monomial pattern. *)

val collect_raws : expr -> (int * expr) list * expr
(** Fallback: replace maximal [ERed] subterms by [ERaw] slots; returns the
    slot bindings (deduplicated structurally) and the residual value
    expression. *)

val contains_escal : expr -> bool
val free_escals : expr -> Ir.Graph.node_id list
val to_string : expr -> string
