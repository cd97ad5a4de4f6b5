(** Tile-level kernel IR — what a SpaceFusion schedule (or a baseline
    policy) lowers to, and what the simulator executes.

    A kernel is a grid of thread blocks (one per SMG block). Each block runs
    a sequence of {!stage}s over on-chip tile buffers; [ForEachStep] stages
    iterate the serial temporal loop (one iteration per intra-block, §4.3).
    Several [ForEachStep] stages give multi-pass plans (e.g. two-pass
    LayerNorm). *)

type scope = Smem | Reg

type dimsize =
  | Blk of string  (** the block extent of the named grid dimension *)
  | Tile  (** the temporal tile extent *)
  | Lit of int  (** a fixed extent *)

type buf = { bname : string; scope : scope; brows : dimsize; bcols : dimsize }

(** How one axis of a global tensor is indexed by a tile transfer. *)
type tindex =
  | IGrid of string  (** partitioned by the named grid dimension *)
  | IStep  (** partitioned by the temporal loop *)
  | IAll  (** the whole axis, every block/step *)

type instr =
  | Load of { tensor : string; dst : string; idx : tindex array }
  | Store of { src : string; tensor : string; idx : tindex array }
  | Fill of string * float
  | Copy of { dst : string; src : string }
  | Gemm of { dst : string; a : string; b : string; trans_b : bool; accumulate : bool }
      (** [dst[r,c] (+)= Σ_k a[r,k]·b[c,k]] when [trans_b], else
          [Σ_k a[r,k]·b[k,c]]. Uses tensor-core throughput. *)
  | Unary of { dst : string; op : Ir.Op.unop; src : string }
  | Binary of { dst : string; op : Ir.Op.binop; a : string; b : string }
      (** Tile-wise with broadcasting of row vectors (1×c), column vectors
          (r×1) and scalars (1×1). *)
  | RowReduce of { dst : string; op : Ir.Op.redop; src : string; accumulate : bool }
      (** [dst] is r×1. [Rmean] is not allowed here: lowering converts it to
          [Rsum] plus a scalar multiply. With [accumulate], combines into the
          previous contents (for cross-step aggregation). *)
  | ColReduce of { dst : string; op : Ir.Op.redop; src : string; accumulate : bool }
      (** Column-direction reduction: [dst] is 1×c (BatchNorm-style axis-0
          statistics). Same [Rmean]/[accumulate] rules as {!RowReduce}. *)

type stage = Once of instr list | ForEachStep of instr list

type grid_dim = { gdim : string; extent : int; block : int }

type t = {
  kname : string;
  grid : grid_dim list;
  temporal : (string * int * int) option;  (** dim, extent, tile *)
  bufs : buf list;
  stages : stage list;
  tags : string list;  (** free-form labels, e.g. which ops were fused *)
}

val num_blocks : t -> int
val num_steps : t -> int
(** 1 when there is no temporal loop. *)

val buf_capacity : t -> buf -> int * int
(** Resolved (rows, cols) capacity in elements. *)

val smem_bytes : t -> int
(** Per-block shared-memory footprint (FP16 accounting). *)

val reg_bytes : t -> int

val validate : t -> unit
(** Structural checks: buffer names unique and referenced instructions
    resolve; grid/temporal dims named by [Blk]/[Tile]/[IGrid]/[IStep]
    exist; no [Gemm] writes one of its own operands. Raises
    [Invalid_argument]. *)

val pp : Format.formatter -> t -> unit
