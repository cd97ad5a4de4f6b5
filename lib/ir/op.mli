(** Primitive tensor operators and their dependency classification (§2,
    Table 1 of the paper). *)

type unop =
  | Exp
  | Relu
  | Sqrt
  | Rsqrt
  | Neg
  | Recip
  | Sqr
  | Tanh
  | Sigmoid
  | Gelu

type binop = Add | Sub | Mul | Div | Max | Min

type redop = Rsum | Rmax | Rmin | Rmean

val apply_unop : unop -> float -> float
(** The operators' reference semantics. [Tensor]'s named kernels and
    [Gpu.Exec]'s loops evaluate the same float expressions inline, one
    loop per operator, and the tests compare them bit for bit with these
    closures. *)

val apply_binop : binop -> float -> float -> float

val redop_identity : redop -> float
val redop_combine : redop -> float -> float -> float
(** Pairwise combine; [Rmean] combines as sum (the caller divides by the
    extent). *)

val unop_to_string : unop -> string
val binop_to_string : binop -> string
val redop_to_string : redop -> string

val redop_is_linear : redop -> bool
(** True for [Rsum] and [Rmean]: reductions that distribute over [+]/[-] and
    commute with scalar scaling — the reductions broadcast postposition can
    move through (§4.3). *)
