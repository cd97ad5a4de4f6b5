(** Deterministic, seedable PRNG (splitmix64) for reproducible synthetic
    weights and inputs. Independent of [Stdlib.Random] state. *)

type t

val create : int -> t
(** [create seed] — the same seed always yields the same stream. *)

val next_int64 : t -> int64

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float

val normal : t -> float
(** Standard normal via Box–Muller. *)

val fill_normal : t -> scale:float -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t -> unit
(** [fill_normal t ~scale buf] sets each element of [buf], in index
    order, to [scale *. normal t]: the same draws, without allocating. *)

val split : t -> t
(** Derive an independent stream (e.g. one per tensor). *)
