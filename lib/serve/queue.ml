type 'a entry = { payload : 'a; priority : int; deadline : float option; enq_at : float }

type 'a popped = {
  p_payload : 'a;
  p_priority : int;
  p_deadline : float option;
  p_queued_s : float;
}

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  classes : 'a entry Stdlib.Queue.t array;  (* index 0 = most urgent *)
  q_capacity : int;
  clock : unit -> float;
  mutable len : int;
  mutable closed : bool;
  mutable paused : bool;
}

let create ?(clock = Unix.gettimeofday) ?(priorities = 1) ~capacity () =
  if capacity < 1 then invalid_arg "Serve.Queue.create: capacity must be >= 1";
  if priorities < 1 then invalid_arg "Serve.Queue.create: priorities must be >= 1";
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    classes = Array.init priorities (fun _ -> Stdlib.Queue.create ());
    q_capacity = capacity;
    clock;
    len = 0;
    closed = false;
    paused = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> t.len)

let push t ?(priority = 0) ?deadline payload =
  let priority = max 0 (min (Array.length t.classes - 1) priority) in
  let enq_at = t.clock () in
  locked t (fun () ->
      if t.closed || t.len >= t.q_capacity then false
      else begin
        Stdlib.Queue.add { payload; priority; deadline; enq_at } t.classes.(priority);
        t.len <- t.len + 1;
        Condition.signal t.nonempty;
        true
      end)

let take_most_urgent t =
  let rec go i =
    if i >= Array.length t.classes then None
    else if Stdlib.Queue.is_empty t.classes.(i) then go (i + 1)
    else Some (Stdlib.Queue.pop t.classes.(i))
  in
  match go 0 with
  | None -> None
  | Some e ->
      t.len <- t.len - 1;
      Some e

let to_popped t (e : 'a entry) =
  {
    p_payload = e.payload;
    p_priority = e.priority;
    p_deadline = e.deadline;
    p_queued_s = Float.max 0.0 (t.clock () -. e.enq_at);
  }

let pop t =
  let taken =
    locked t (fun () ->
        let rec wait () =
          (* A paused queue holds items back from consumers even when
             nonempty (close still wins, so shutdown never hangs). *)
          if t.paused && not t.closed then begin
            Condition.wait t.nonempty t.lock;
            wait ()
          end
          else
            match take_most_urgent t with
            | Some e -> Some e
            | None ->
                if t.closed then None
                else begin
                  Condition.wait t.nonempty t.lock;
                  wait ()
                end
        in
        wait ())
  in
  match taken with
  | None -> `Closed
  | Some e ->
      (* Expiry is decided here, outside the lock, by the one consumer
         that removed the entry — so every item resolves exactly once. *)
      let p = to_popped t e in
      let expired =
        match e.deadline with Some d -> t.clock () > d | None -> false
      in
      if expired then `Expired p else `Item p

let take t f =
  let taken =
    locked t (fun () ->
        if t.paused && not t.closed then []
        else begin
          let now = t.clock () in
          let taken = ref [] in
          Array.iter
            (fun cls ->
              let keep = Stdlib.Queue.create () in
              Stdlib.Queue.iter
                (fun e ->
                  let expired = match e.deadline with Some d -> now > d | None -> false in
                  if f ~expired e.payload then taken := (e, expired) :: !taken
                  else Stdlib.Queue.add e keep)
                cls;
              Stdlib.Queue.clear cls;
              Stdlib.Queue.transfer keep cls)
            t.classes;
          t.len <- t.len - List.length !taken;
          List.rev !taken
        end)
  in
  List.map (fun (e, expired) -> if expired then `Expired (to_popped t e) else `Item (to_popped t e)) taken

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let pause t = locked t (fun () -> t.paused <- true)

let resume t =
  locked t (fun () ->
      t.paused <- false;
      Condition.broadcast t.nonempty)

let flush t =
  let drained =
    locked t (fun () ->
        let rec go acc =
          match take_most_urgent t with None -> List.rev acc | Some e -> go (e :: acc)
        in
        go [])
  in
  List.map (to_popped t) drained
