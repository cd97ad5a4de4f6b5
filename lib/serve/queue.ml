type 'a entry = { payload : 'a; deadline : float option; enq_at : float }

type 'a popped = {
  p_payload : 'a;
  p_deadline : float option;
  p_queued_s : float;
}

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  items : 'a entry Stdlib.Queue.t;  (* oldest first *)
  q_capacity : int;
  clock : unit -> float;
  mutable closed : bool;
  mutable paused : bool;
}

let create ?(clock = Unix.gettimeofday) ~capacity () =
  if capacity < 1 then invalid_arg "Serve.Queue.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    items = Stdlib.Queue.create ();
    q_capacity = capacity;
    clock;
    closed = false;
    paused = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Stdlib.Queue.length t.items)

let push t ?deadline payload =
  let enq_at = t.clock () in
  locked t (fun () ->
      if t.closed then `Closed
      else if Stdlib.Queue.length t.items >= t.q_capacity then `Full
      else begin
        Stdlib.Queue.add { payload; deadline; enq_at } t.items;
        Condition.signal t.nonempty;
        `Queued
      end)

let to_popped t (e : 'a entry) =
  { p_payload = e.payload; p_deadline = e.deadline; p_queued_s = Float.max 0.0 (t.clock () -. e.enq_at) }

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
            match Stdlib.Queue.take_opt t.items with
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
          let taken = ref [] and keep = Stdlib.Queue.create () in
          Stdlib.Queue.iter
            (fun e ->
              let expired = match e.deadline with Some d -> now > d | None -> false in
              if f ~expired e.payload then taken := (e, expired) :: !taken
              else Stdlib.Queue.add e keep)
            t.items;
          Stdlib.Queue.clear t.items;
          Stdlib.Queue.transfer keep t.items;
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
