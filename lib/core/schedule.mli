(** A fusion schedule for one SMG: the slicing decisions plus the tunable
    block-size configuration space (§5.1).

    Dimensions are partitioned into:
    - batch spatial dims — sliced with block 1 (e.g. the batch×heads
      dimension of attention: they appear as leading tensor axes, so tiles
      along them would be 3-D);
    - tiled spatial dims (at most two) — sliced with searched block sizes,
      forming the rows/columns of on-chip tiles;
    - one temporal dim (optional) with a searched tile size and an
      {!Update_fn.t} intra-block plan;
    - inner dims — kept whole inside each block. *)

type t = {
  smg : Smg.t;
  batch_dims : int list;
  tiled_dims : int list;  (** at most two *)
  temporal : Update_fn.t option;
  inner_dims : int list;
}

type cfg = { blocks : (int * int) list;  (** tiled dim → block size *) tile : int option }

val make : Smg.t -> spatial:int list -> temporal:Update_fn.t option -> t
(** Classifies the spatial dims into batch/tiled (keeping the two
    largest-extent tileable dims) and derives the inner dims. *)

val enum_cfgs : t -> cfg list
(** The multiplier/exponential search space of §5.1 (before resource
    filtering, which Algorithm 1 performs by lowering each candidate and
    checking the footprint against the architecture).

    The returned order is deterministic (a pure function of the schedule)
    and duplicate-free, and downstream stages preserve it: it is the tuner's
    tie-break order, which is what makes pruned and unpruned tuning select
    the same configuration (see {!Tuner.pick_best}). *)

val compare_cfg : cfg -> cfg -> int
(** Total order on configurations (lexicographic on block assignments, then
    tile) — a stable identity for deduplication and for asserting the
    {!enum_cfgs} uniqueness contract in tests. *)

val cfg_to_string : cfg -> string
val describe : t -> string
