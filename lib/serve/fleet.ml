type slot = {
  sl_id : int;
  mutable sl_dead : bool;
  sl_inflight : int Atomic.t;
  sl_served : int Atomic.t;
  sl_inject : Fault.Inject.t option;
}

type t = {
  slots : slot array;
  lock : Mutex.t;  (* guards sl_dead; load counters are atomics *)
  reroutes : int Atomic.t;
}

let m_placements = Obs.Metrics.counter "fleet.placements"
let m_locality = Obs.Metrics.counter "fleet.locality_hits"
let m_reroutes = Obs.Metrics.counter "fleet.reroutes"
let m_dead = Obs.Metrics.counter "fleet.dead_devices"

(* Per-device injector streams live far above the per-attempt request
   streams ((rq_stream lsl 8) lor attempt), so the two schemes never
   collide on a (stream, seq) pair. *)
let device_stream i = (1 lsl 30) lor i

let create ?fault_plan ~devices () =
  if devices < 1 then invalid_arg "Fleet.create: devices < 1";
  {
    slots =
      Array.init devices (fun i ->
          {
            sl_id = i;
            sl_dead = false;
            sl_inflight = Atomic.make 0;
            sl_served = Atomic.make 0;
            sl_inject =
              Option.map (fun p -> Fault.Inject.create p ~stream:(device_stream i)) fault_plan;
          });
    lock = Mutex.create ();
    reroutes = Atomic.make 0;
  }

let devices t = Array.length t.slots

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let alive_count t =
  locked t (fun () ->
      Array.fold_left (fun n s -> if s.sl_dead then n else n + 1) 0 t.slots)

(* The same stable hash for every run: the low bits of the key's MD5. *)
let preferred t ~key =
  let d = Digest.string key in
  Char.code d.[0] mod Array.length t.slots

let place t ~key =
  locked t (fun () ->
      let pref = preferred t ~key in
      let load s = Atomic.get s.sl_inflight in
      let least =
        Array.fold_left
          (fun acc s ->
            if s.sl_dead then acc
            else
              match acc with
              | Some best when load best <= load s -> acc
              | _ -> Some s)
          None t.slots
      in
      match least with
      | None -> None
      | Some least ->
          let p = t.slots.(pref) in
          (* Locality wins unless the preferred device is dead or strictly
             busier than the least-loaded alternative by more than one
             request — plan/cache warmth is worth a little queueing. *)
          let s =
            if (not p.sl_dead) && load p <= load least + 1 then begin
              Obs.Metrics.incr m_locality;
              p
            end
            else least
          in
          Some s.sl_id)

let acquire t i =
  Atomic.incr t.slots.(i).sl_inflight;
  Obs.Metrics.incr m_placements

let release t i =
  Atomic.decr t.slots.(i).sl_inflight;
  Atomic.incr t.slots.(i).sl_served

let injector t i = t.slots.(i).sl_inject

let mark_dead t i =
  locked t (fun () ->
      if not t.slots.(i).sl_dead then begin
        t.slots.(i).sl_dead <- true;
        Obs.Metrics.incr m_dead
      end)

let is_dead t i = locked t (fun () -> t.slots.(i).sl_dead)

let note_reroute t =
  Atomic.incr t.reroutes;
  Obs.Metrics.incr m_reroutes

let to_json t =
  locked t (fun () ->
      Obs.Json.(
        Obj
          [
            ("devices", Num (float_of_int (Array.length t.slots)));
            ( "dead",
              Arr
                (Array.to_list t.slots
                |> List.filter_map (fun s ->
                       if s.sl_dead then Some (Num (float_of_int s.sl_id)) else None)) );
            ( "served",
              Arr
                (Array.to_list t.slots
                |> List.map (fun s -> Num (float_of_int (Atomic.get s.sl_served)))) );
            ("reroutes", Num (float_of_int (Atomic.get t.reroutes)));
          ]))
