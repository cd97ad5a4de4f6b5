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

let tabulate ?(stop = fun _ -> false) ~jobs n f =
  let jobs = min jobs n in
  if jobs <= 1 || not (Domain.is_main_domain ()) then f
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 and stopped = Atomic.make false in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && not (Atomic.get stopped) then begin
        let r = match f i with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
        (match r with Ok v when stop v -> Atomic.set stopped true | _ -> ());
        out.(i) <- Some r;
        work ()
      end
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers;
    fun i ->
      match out.(i) with
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> f i
  end
