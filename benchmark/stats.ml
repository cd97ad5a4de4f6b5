(* Order statistics shared by [run] and [compare]. Percentiles of latency
   samples come from Serve.Stats.percentile. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] (method "exclusive"), the
   quartiles the acceptance check computes, reproduced digit for digit so
   a spread printed here is the spread it will see. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median: the spread a bound
   must cover. One value has no spread: infinity stands for unknown. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if List.length xs < 2 then infinity else if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
