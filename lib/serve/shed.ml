type t = {
  lock : Mutex.t;
  workers : int;
  ewma : (string, float) Hashtbl.t;
  mutable backlog_s : float;
  (* Quarantine: per-request-key poison offense counts. *)
  q_threshold : int;
  offenses : (string, int) Hashtbl.t;
}

let m_backlog = Obs.Metrics.gauge "shed.backlog_seconds"
let m_offense = Obs.Metrics.counter "shed.offenses"

(* EWMA smoothing factor of the service-time estimates. *)
let alpha = 0.3

let create ?(workers = 1) ?(quarantine_threshold = 0) () =
  if workers < 1 then invalid_arg "Serve.Shed.create: workers must be >= 1";
  if quarantine_threshold < 0 then
    invalid_arg "Serve.Shed.create: negative quarantine_threshold";
  {
    lock = Mutex.create ();
    workers;
    ewma = Hashtbl.create 32;
    backlog_s = 0.0;
    q_threshold = quarantine_threshold;
    offenses = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Service-time estimation                                             *)
(* ------------------------------------------------------------------ *)

let estimate t ~key = locked t (fun () -> Hashtbl.find_opt t.ewma key)

let observe t ~key ~service_s =
  if service_s >= 0.0 && not (Float.is_nan service_s) then
    locked t (fun () ->
        let next =
          match Hashtbl.find_opt t.ewma key with
          | None -> service_s
          | Some prev -> prev +. (alpha *. (service_s -. prev))
        in
        Hashtbl.replace t.ewma key next)

(* ------------------------------------------------------------------ *)
(* Admission feasibility                                               *)
(* ------------------------------------------------------------------ *)

let set_backlog_gauge v = Obs.Metrics.set m_backlog v

let admit t ~key ?deadline_rel () =
  let verdict =
    locked t (fun () ->
        let est = Hashtbl.find_opt t.ewma key in
        match deadline_rel with
        | None ->
            (* No deadline: always feasible; still charge the backlog so
               later deadline-carrying arrivals see the queue's weight. *)
            let charge = Option.value est ~default:0.0 in
            t.backlog_s <- t.backlog_s +. charge;
            `Admit (charge, t.backlog_s)
        | Some d -> (
            match est with
            | None ->
                (* Never seen this key: admit optimistically (cold starts
                   must not shed on ignorance) and charge nothing. *)
                t.backlog_s <- t.backlog_s +. 0.0;
                `Admit (0.0, t.backlog_s)
            | Some svc ->
                let wait = t.backlog_s /. float_of_int t.workers in
                if wait +. svc > d then `Shed (wait, svc, d)
                else begin
                  t.backlog_s <- t.backlog_s +. svc;
                  `Admit (svc, t.backlog_s)
                end))
  in
  match verdict with
  | `Admit (charge, backlog) ->
      set_backlog_gauge backlog;
      `Admit charge
  | `Shed (wait, svc, d) ->
      `Shed
        (Printf.sprintf "infeasible deadline: est wait %.6gs + service %.6gs > %.6gs" wait
           svc d)

let drain t charge =
  if charge > 0.0 then begin
    let backlog =
      locked t (fun () ->
          t.backlog_s <- Float.max 0.0 (t.backlog_s -. charge);
          t.backlog_s)
    in
    set_backlog_gauge backlog
  end

let backlog_seconds t = locked t (fun () -> t.backlog_s)

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)
(* ------------------------------------------------------------------ *)

let offense t ~key =
  Obs.Metrics.incr m_offense;
  locked t (fun () ->
      let n = 1 + Option.value (Hashtbl.find_opt t.offenses key) ~default:0 in
      Hashtbl.replace t.offenses key n;
      n)

let offenses t ~key = locked t (fun () -> Option.value (Hashtbl.find_opt t.offenses key) ~default:0)

let quarantined t ~key =
  t.q_threshold > 0
  && locked t (fun () ->
         Option.value (Hashtbl.find_opt t.offenses key) ~default:0 >= t.q_threshold)
