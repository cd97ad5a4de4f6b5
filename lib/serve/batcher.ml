(* Batch formation and delivery. See batcher.mli for the contract. *)

type mode = Shared | Sliced

type 'r slot = {
  sl_result : 'r;
  sl_members : int;
  sl_rows : int;
  sl_off : int;
  sl_len : int;
  sl_expired : bool;
}

type 'r member = {
  mb_cb : 'r slot -> unit;
  mb_deadline : float option;
  mb_off : int;
  mb_len : int;
  mb_tag : int;
}

type 'r joiner = {
  j_rows : int;
  j_deadline : float option;
  j_tag : int;
  j_cb : 'r slot -> unit;
}

type member_view = {
  mv_index : int;
  mv_rows : int;
  mv_off : int;
  mv_deadline : float option;
  mv_tag : int;
}

type 'r delivery = {
  dv_result : 'r;
  dv_batch : int;
  dv_rows : int;
  dv_off : int;
  dv_len : int;
}

type 'r batch = {
  bt_key : string;  (* "" for [Sliced]: never in the table *)
  bt_mode : mode;
  mutable bt_members : 'r member list;  (* newest first *)
  bt_rows : int;  (* stacked row total (Sliced), 0 for Shared *)
}

type 'r t = {
  lock : Mutex.t;
  table : (string, 'r batch) Hashtbl.t;  (* Shared batches still joinable *)
  clock : unit -> float;
}

let m_batches = Obs.Metrics.counter "batch.closed"
let m_joined = Obs.Metrics.counter "batch.joined"
let m_boundary = Obs.Metrics.counter "batch.boundary_closes"

let create ?(clock = Unix.gettimeofday) () =
  { lock = Mutex.create (); table = Hashtbl.create 16; clock }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let members b = List.length b.bt_members
let rows b = b.bt_rows
let mode b = b.bt_mode

let admit t ~key ?deadline ?(tag = 0) cb =
  let m = { mb_cb = cb; mb_deadline = deadline; mb_off = 0; mb_len = 0; mb_tag = tag } in
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some b ->
          (* Joinable until delivery: late joiners share the leader's
             in-flight run for free. *)
          b.bt_members <- m :: b.bt_members;
          Obs.Metrics.incr m_joined;
          `Join
      | None ->
          let b =
            { bt_key = key; bt_mode = Shared; bt_members = [ m ]; bt_rows = 0 }
          in
          Hashtbl.replace t.table key b;
          `Lead b)

let sliced ~cap joiners =
  if joiners = [] then invalid_arg "Batcher.sliced: no members";
  let off = ref 0 in
  let ms =
    List.map
      (fun j ->
        if j.j_rows < 1 then invalid_arg "Batcher.sliced: a member without rows";
        let m = { mb_cb = j.j_cb; mb_deadline = j.j_deadline; mb_off = !off; mb_len = j.j_rows; mb_tag = j.j_tag } in
        off := !off + j.j_rows;
        m)
      joiners
  in
  if !off > cap then
    invalid_arg (Printf.sprintf "Batcher.sliced: %d rows exceed the cap %d" !off cap);
  if !off = cap then Obs.Metrics.incr m_boundary;
  Obs.Metrics.incr ~by:(List.length ms - 1) m_joined;
  { bt_key = ""; bt_mode = Sliced; bt_members = List.rev ms; bt_rows = !off }

let run_deadline b =
  match b.bt_mode with
  | Shared -> (
      (* The leader's own deadline governs the run, as it did under
         identical-request coalescing; late joiners inherit the run but
         keep their own deadlines for delivery-time expiry. *)
      match List.rev b.bt_members with [] -> None | leader :: _ -> leader.mb_deadline)
  | Sliced ->
      (* The run may outlive any single member only up to the slackest
         deadline; members past their own deadline expire individually at
         delivery. A deadline-free member makes the run deadline-free. *)
      List.fold_left
        (fun acc m ->
          match (acc, m.mb_deadline) with
          | Some a, Some d -> Some (Float.max a d)
          | _, None | None, _ -> None)
        (Some neg_infinity) b.bt_members
      |> function
      | Some d when d > neg_infinity -> Some d
      | _ -> None

let member_views t b =
  let ms = locked t (fun () -> List.rev b.bt_members) in
  List.mapi
    (fun i m ->
      { mv_index = i; mv_rows = m.mb_len; mv_off = m.mb_off; mv_deadline = m.mb_deadline; mv_tag = m.mb_tag })
    ms

(* Atomically freeze membership: the unmapping and the member snapshot
   happen under one lock acquisition, because a Shared batch keeps
   admitting joiners right up to delivery. *)
let take_members t b =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table b.bt_key with
      | Some b' when b' == b -> Hashtbl.remove t.table b.bt_key
      | Some _ | None -> ());
      List.rev b.bt_members)

let run_deliveries t ms deliveries =
  Obs.Metrics.incr m_batches;
  let now = t.clock () in
  List.iteri
    (fun i m ->
      let d = deliveries.(i) in
      m.mb_cb
        {
          sl_result = d.dv_result;
          sl_members = d.dv_batch;
          sl_rows = d.dv_rows;
          sl_off = d.dv_off;
          sl_len = d.dv_len;
          (* Each member keeps its own absolute deadline: joining a batch
             must never extend (or shrink) a request's budget to the
             leader's. *)
          sl_expired = (match m.mb_deadline with Some d -> now > d | None -> false);
        })
    ms;
  List.length ms - 1

let deliver_each t b deliveries =
  let ms = take_members t b in
  let n = List.length ms in
  if Array.length deliveries <> n then
    invalid_arg
      (Printf.sprintf "Batcher.deliver_each: %d deliveries for %d members"
         (Array.length deliveries) n);
  run_deliveries t ms deliveries

let deliver t b r =
  let ms = take_members t b in
  let n = List.length ms in
  let deliveries =
    Array.of_list
      (List.map
         (fun m ->
           { dv_result = r; dv_batch = n; dv_rows = b.bt_rows; dv_off = m.mb_off; dv_len = m.mb_len })
         ms)
  in
  run_deliveries t ms deliveries

let in_flight t = locked t (fun () -> Hashtbl.length t.table)
