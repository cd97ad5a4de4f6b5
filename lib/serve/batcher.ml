(* Growing-batch admission. See batcher.mli for the contract. *)

type mode = Shared | Sliced of { rows : int; cap : int }

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

type state = Open | Sealed | Delivered

type 'r batch = {
  bt_key : string;
  bt_mode : mode;
  bt_opened : float;
  mutable bt_state : state;
  mutable bt_members : 'r member list;  (* newest first *)
  mutable bt_rows : int;  (* row total admitted so far (Sliced) *)
}

type 'r t = {
  lock : Mutex.t;
  table : (string, 'r batch) Hashtbl.t;
  window_s : float;
  clock : unit -> float;
}

let m_batches = Obs.Metrics.counter "batch.closed"
let m_joined = Obs.Metrics.counter "batch.joined"
let m_boundary = Obs.Metrics.counter "batch.boundary_closes"

let create ?(window_s = 2e-3) ?(clock = Unix.gettimeofday) () =
  if window_s < 0.0 then invalid_arg "Batcher.create: window_s < 0";
  { lock = Mutex.create (); table = Hashtbl.create 16; window_s; clock }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let members b = List.length b.bt_members
let rows b = b.bt_rows

let mode_rows = function Shared -> 0 | Sliced { rows; _ } -> rows

(* Whether a new request of [mode] may still join [b]. A [Shared] batch
   stays joinable until delivery — late joiners share the leader's
   in-flight run for free. A [Sliced] batch only grows while open: its
   members' rows are stacked into one execution, so nobody may join once
   the leader started running. *)
let joinable b mode =
  match (b.bt_state, mode) with
  | Delivered, _ -> false
  | (Open | Sealed), Shared -> ( match b.bt_mode with Shared -> true | Sliced _ -> false)
  | Open, Sliced { rows; cap } -> (
      match b.bt_mode with
      | Shared -> false
      | Sliced { cap = cap'; _ } ->
          cap = cap' && b.bt_rows + rows <= cap)
  | Sealed, Sliced _ -> false

let admit t ~key ~mode ?deadline ?(tag = 0) cb =
  locked t (fun () ->
      let lead () =
        let b =
          {
            bt_key = key;
            bt_mode = mode;
            bt_opened = t.clock ();
            bt_state = Open;
            bt_members =
              [
                {
                  mb_cb = cb;
                  mb_deadline = deadline;
                  mb_off = 0;
                  mb_len = mode_rows mode;
                  mb_tag = tag;
                };
              ];
            bt_rows = mode_rows mode;
          }
        in
        Hashtbl.replace t.table key b;
        `Lead b
      in
      match Hashtbl.find_opt t.table key with
      | Some b when joinable b mode ->
          b.bt_members <-
            {
              mb_cb = cb;
              mb_deadline = deadline;
              mb_off = b.bt_rows;
              mb_len = mode_rows mode;
              mb_tag = tag;
            }
            :: b.bt_members;
          b.bt_rows <- b.bt_rows + mode_rows mode;
          (* Shape-class boundary: the bucket is full — seal so the
             leader's grow loop returns without waiting out the window. *)
          (match mode with
          | Sliced { cap; _ } when b.bt_rows >= cap ->
              b.bt_state <- Sealed;
              Obs.Metrics.incr m_boundary
          | _ -> ());
          Obs.Metrics.incr m_joined;
          `Join
      | Some stale ->
          (* Sealed (or mode-incompatible, or row-overflowing) batch still
             in the table: its leader will deliver through its own handle
             — replace the mapping so this key admits a fresh batch
             immediately. An [Open] [Sliced] batch we overflow has hit its
             shape-class boundary: seal it so its leader's {!grow} stops
             waiting for joiners that can no longer fit. *)
          (match (stale.bt_state, stale.bt_mode) with
          | Open, Sliced _ ->
              stale.bt_state <- Sealed;
              Obs.Metrics.incr m_boundary
          | _ -> ());
          lead ()
      | None -> lead ())

let earliest_deadline b =
  List.fold_left
    (fun acc m ->
      match (m.mb_deadline, acc) with
      | None, acc -> acc
      | Some d, None -> Some d
      | Some d, Some d' -> Some (min d d'))
    None b.bt_members

let grow t b =
  match b.bt_mode with
  | Shared -> ()  (* joins keep landing while the leader runs *)
  | Sliced _ ->
      let quantum = Float.max 1e-4 (t.window_s /. 8.0) in
      let rec wait () =
        let stop =
          locked t (fun () ->
              if b.bt_state <> Open then true
              else
                let now = t.clock () in
                (* Deadline-aware close: never sleep past the window, nor
                   past the tightest member deadline — a batch that waits
                   out a member's whole budget converts it to a timeout. *)
                let close_at =
                  match earliest_deadline b with
                  | None -> b.bt_opened +. t.window_s
                  | Some d -> Float.min (b.bt_opened +. t.window_s) d
                in
                now >= close_at)
        in
        if stop then ()
        else begin
          Unix.sleepf quantum;
          wait ()
        end
      in
      wait ();
      locked t (fun () ->
          if b.bt_state = Open then b.bt_state <- Sealed;
          match Hashtbl.find_opt t.table b.bt_key with
          | Some b' when b' == b -> Hashtbl.remove t.table b.bt_key
          | Some _ | None -> ())

let run_deadline b =
  match b.bt_mode with
  | Shared -> (
      (* The leader's own deadline governs the run, as it did under
         identical-request coalescing; late joiners inherit the run but
         keep their own deadlines for delivery-time expiry. *)
      match List.rev b.bt_members with [] -> None | leader :: _ -> leader.mb_deadline)
  | Sliced _ ->
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

(* Atomically freeze membership: the Delivered transition and the member
   snapshot happen under one lock acquisition, because a Shared batch
   keeps admitting joiners right up to delivery. *)
let take_members t b =
  locked t (fun () ->
      b.bt_state <- Delivered;
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
