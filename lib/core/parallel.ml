let env_jobs () =
  match Sys.getenv_opt "SPACEFUSION_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let override : int option Atomic.t = Atomic.make None

(* The OCaml runtime caps live domains at 128; stay well under it so a
   caller sizing a domain pool from this can never make a spawn fail. *)
let max_jobs = 64

let default_jobs () =
  let n =
    match Atomic.get override with
    | Some n -> n
    | None -> (
        match env_jobs () with
        | Some n -> n
        | None -> Domain.recommended_domain_count ())
  in
  max 1 (min max_jobs n)

let with_jobs n f =
  let prev = Atomic.get override in
  Atomic.set override (Some (max 1 n));
  Fun.protect ~finally:(fun () -> Atomic.set override prev) f
