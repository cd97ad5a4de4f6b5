(** The Space-Mapping Graph (§4.1).

    Nodes are computational spaces — data spaces (tensors) and iteration
    spaces (operator loop nests) — positioned in the fused geometric space;
    edges are One-to-One / One-to-All / All-to-One space mappings, each with
    its direction dimensions.

    Built from a DFG fusion group by connecting per-operator SMGs through
    their intermediate data spaces with dimension alignment (Fig 4): an
    operator's output data space and its consumers' input data space are one
    shared node, which is exactly the paper's fusing of One-to-One-connected
    spaces. *)

type space_kind = Data | Iter

type space = {
  sid : int;
  label : string;
  kind : space_kind;
  node : Ir.Graph.node_id;  (** value (Data) or operator (Iter) provenance *)
  sdims : int list;  (** fused dimensions present, sorted *)
}

type mapping_kind = O2O | O2A | A2O of Ir.Op.redop

type mapping = {
  msrc : int;
  mdst : int;
  mkind : mapping_kind;
  mdims : int list;  (** direction dimensions; empty for O2O *)
}

type t

val build : Ir.Graph.t -> t
val graph : t -> Ir.Graph.t
val fused : t -> Fusedspace.t
val spaces : t -> space list
val mappings : t -> mapping list
val space : t -> int -> space
val data_space : t -> Ir.Graph.node_id -> space
(** The (shared) data space holding a node's value. *)

val is_input_space : t -> space -> bool
(** True for data spaces backed by kernel inputs (activations, weights,
    constants) — the sources a spatial slicer may cut through (§4.2). *)

val mappings_along : t -> int -> mapping list
(** All mappings whose direction includes the given fused dimension. *)

val iter_spaces : t -> space list
val data_volume_along : t -> int -> int
(** Σ over data spaces containing the dimension of their element counts —
    the temporal slicer's priority measure (§5.1). *)

val num_a2o : t -> int
(** Number of All-to-One mappings (used by the Table 6 pattern census). *)

val consistent : t -> bool
(** Whether every tensor axis carries a distinct fused dimension and no
    contraction dimension escapes into its node's own value. A fusion group
    that reuses a GEMM input element-wise downstream of the GEMM can unify
    the contraction dim with an output dim (one axis, two index roles) —
    such an SMG cannot be scheduled as a whole and must be partitioned. *)

val pp : Format.formatter -> t -> unit
