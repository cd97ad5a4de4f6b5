(* Batch formation, bisection and delivery. See batcher.mli for the
   contract. *)

type 'r slot = {
  sl_result : 'r;
  sl_members : int;
  sl_rows : int;
  sl_off : int;
  sl_len : int;
  sl_expired : bool;
}

type 'r member = {
  m_rows : int;
  m_deadline : float option;
  m_tag : int;
  m_cb : 'r slot -> unit;
}

type 'r t = 'r member array

let m_batches = Obs.Metrics.counter "batch.closed"
let m_boundary = Obs.Metrics.counter "batch.boundary_closes"
let m_bisections = Obs.Metrics.counter "batch.bisections"
let m_isolated = Obs.Metrics.counter "batch.isolated"

let rows_of ms = Array.fold_left (fun acc m -> acc + m.m_rows) 0 ms

let form ~cap members =
  if members = [] then invalid_arg "Batcher.form: no members";
  let ms = Array.of_list members in
  if Array.length ms > 1 && Array.exists (fun m -> m.m_rows < 1) ms then
    invalid_arg "Batcher.form: a member without rows";
  let rows = rows_of ms in
  if rows > cap then invalid_arg (Printf.sprintf "Batcher.form: %d rows exceed the cap %d" rows cap);
  if rows > 0 && rows = cap then Obs.Metrics.incr m_boundary;
  ms

let members = Array.length

(* The run may outlive any single member only up to the slackest deadline;
   members past their own deadline expire individually at delivery. A
   deadline-free member makes the run deadline-free. *)
let run_deadline b =
  Array.fold_left
    (fun acc m ->
      match (acc, m.m_deadline) with Some a, Some d -> Some (Float.max a d) | _, None | None, _ -> None)
    (Some neg_infinity) b
  |> function
  | Some d when d > neg_infinity -> Some d
  | _ -> None

let execute b ~clock ~run =
  let n = Array.length b in
  let slots = Array.make n None in
  (* Serve members [lo, hi) from one sub-run's result, at cumulative row
     offsets within it. *)
  let place lo hi ~rows r =
    let off = ref 0 in
    for i = lo to hi - 1 do
      let len = b.(i).m_rows in
      slots.(i) <-
        Some { sl_result = r; sl_members = hi - lo; sl_rows = rows; sl_off = !off; sl_len = len; sl_expired = false };
      off := !off + len
    done
  in
  let rec go lo hi =
    let sub = Array.sub b lo (hi - lo) in
    let rows = rows_of sub in
    match run (Array.to_list sub) ~rows with
    | `Served r -> place lo hi ~rows r
    | `Split r when hi - lo = 1 ->
        (* Fully isolated: the failure is this member's alone. *)
        if n > 1 then Obs.Metrics.incr m_isolated;
        place lo hi ~rows r
    | `Split _ ->
        Obs.Metrics.incr m_bisections;
        let mid = lo + ((hi - lo + 1) / 2) in
        go lo mid;
        go mid hi
  in
  go 0 n;
  Obs.Metrics.incr m_batches;
  let now = clock () in
  Array.iteri
    (fun i m ->
      match slots.(i) with
      | Some s ->
          (* Each member keeps its own absolute deadline: joining a batch
             must never extend (or shrink) a request's budget to the
             leader's. *)
          m.m_cb { s with sl_expired = (match m.m_deadline with Some d -> now > d | None -> false) }
      | None -> assert false)
    b
