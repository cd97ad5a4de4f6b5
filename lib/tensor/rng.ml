(* The splitmix64 state lives in a one-element int64 Bigarray, so
   advancing it stores an unboxed int64: a mutable record field would box
   every new state. *)
type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external get : t -> int -> int64 = "%caml_ba_unsafe_ref_1"
external set : t -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 1 in
  set t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (get t 0) golden in
  set t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] float t =
  (* 53 random bits into the mantissa. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let[@inline] box_muller u1 u2 = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Box–Muller needs a nonzero first uniform: a zero draw is redrawn. *)
let rec normal t =
  let u1 = float t in
  if u1 = 0.0 then normal t else box_muller u1 (float t)

(* [normal]'s stream, drawn straight into the buffer: the loop-free fast
   path inlines here, so no draw is boxed; only a zero first uniform
   (probability 2^-53) takes the out-of-line redraw. *)
let fill_normal t ~scale (buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  for i = 0 to Bigarray.Array1.dim buf - 1 do
    let u1 = float t in
    Bigarray.Array1.unsafe_set buf i
      (scale *. (if u1 = 0.0 then normal t else box_muller u1 (float t)))
  done

let split t = of_state (next_int64 t)
