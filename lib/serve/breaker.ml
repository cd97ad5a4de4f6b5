type config = { threshold : int; cooldown_s : float }

let default_config = { threshold = 5; cooldown_s = 0.05 }

type state = Closed | Open | Half_open

type entry = {
  mutable st : state;
  mutable consecutive : int;  (* failures since the last success (Closed) *)
  mutable opened_at : float;
  mutable probing : bool;  (* the Half_open probe slot is taken *)
  mutable ntrips : int;
}

type t = {
  cfg : config;
  clock : unit -> float;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
}

let m_opened = Obs.Metrics.counter "breaker.opened"
let m_half = Obs.Metrics.counter "breaker.half_opened"
let m_closed = Obs.Metrics.counter "breaker.closed"
let m_short = Obs.Metrics.counter "breaker.short_circuits"
let m_probes = Obs.Metrics.counter "breaker.probes"
let m_open_g = Obs.Metrics.gauge "breaker.open"

let create ?(clock = Unix.gettimeofday) cfg =
  if cfg.threshold < 1 then
    invalid_arg (Printf.sprintf "Breaker.create: threshold %d < 1" cfg.threshold);
  if cfg.cooldown_s < 0.0 then
    invalid_arg (Printf.sprintf "Breaker.create: negative cooldown %g" cfg.cooldown_s);
  { cfg; clock; lock = Mutex.create (); entries = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { st = Closed; consecutive = 0; opened_at = 0.0; probing = false; ntrips = 0 } in
      Hashtbl.add t.entries key e;
      e

let gauge_add by = Obs.Metrics.add m_open_g by

let trip e now =
  if e.st = Closed then gauge_add 1.0;
  e.st <- Open;
  e.consecutive <- 0;
  e.probing <- false;
  e.opened_at <- now;
  e.ntrips <- e.ntrips + 1;
  Obs.Metrics.incr m_opened

let close e =
  if e.st <> Closed then gauge_add (-1.0);
  e.st <- Closed;
  e.consecutive <- 0;
  e.probing <- false;
  Obs.Metrics.incr m_closed

let acquire t ~key =
  locked t @@ fun () ->
  let e = entry t key in
  (match e.st with
  | Open when t.clock () -. e.opened_at >= t.cfg.cooldown_s ->
      e.st <- Half_open;
      e.probing <- false;
      Obs.Metrics.incr m_half
  | _ -> ());
  match e.st with
  | Closed -> `Proceed
  | Open ->
      Obs.Metrics.incr m_short;
      `Short_circuit
  | Half_open ->
      if e.probing then begin
        Obs.Metrics.incr m_short;
        `Short_circuit
      end
      else begin
        e.probing <- true;
        Obs.Metrics.incr m_probes;
        `Probe
      end

let success t ~key ~probe =
  locked t @@ fun () ->
  let e = entry t key in
  if probe then close e
  else
    match e.st with
    | Closed -> e.consecutive <- 0
    | Open | Half_open -> ()

let failure t ~key ~probe =
  locked t @@ fun () ->
  let e = entry t key in
  if probe then begin
    (* Probe failed: back to Open for a fresh cooldown. The gauge is
       unchanged — the breaker never closed. *)
    e.st <- Open;
    e.probing <- false;
    e.opened_at <- t.clock ();
    e.ntrips <- e.ntrips + 1;
    Obs.Metrics.incr m_opened
  end
  else
    match e.st with
    | Closed ->
        e.consecutive <- e.consecutive + 1;
        if e.consecutive >= t.cfg.threshold then trip e (t.clock ())
    | Open | Half_open -> ()

let state t ~key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.entries key with None -> Closed | Some e -> e.st

let trips t ~key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.entries key with None -> 0 | Some e -> e.ntrips
