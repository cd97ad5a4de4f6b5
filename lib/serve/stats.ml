type event =
  | Submitted
  | Admitted
  | Rejected
  | Timed_out
  | Done
  | Failed
  | Coalesced
  | Batched
  | Degraded
  | Retried
  | Shed
  | Quarantined

type snapshot = {
  s_submitted : int;
  s_admitted : int;
  s_rejected : int;
  s_timed_out : int;
  s_done : int;
  s_failed : int;
  s_coalesced : int;
  s_batched : int;
  s_degraded : int;
  s_retries : int;
  s_shed : int;
  s_quarantined : int;
}

type t = {
  submitted : int Atomic.t;
  admitted : int Atomic.t;
  rejected : int Atomic.t;
  timed_out : int Atomic.t;
  done_ : int Atomic.t;
  failed : int Atomic.t;
  coalesced : int Atomic.t;
  batched : int Atomic.t;
  degraded : int Atomic.t;
  retries : int Atomic.t;
  shed : int Atomic.t;
  quarantined : int Atomic.t;
  lat_lock : Mutex.t;
  lat : Float.Array.t;  (* ring of the last [latency_capacity] latencies *)
  mutable lat_seen : int;  (* latencies observed so far; the next slot is lat_seen mod capacity *)
}

let latency_capacity = 65_536

(* Process-wide mirrors, shared by every server in the process. *)
let m_submitted = Obs.Metrics.counter "serve.submitted"
let m_admitted = Obs.Metrics.counter "serve.admitted"
let m_rejected = Obs.Metrics.counter "serve.rejected"
let m_timed_out = Obs.Metrics.counter "serve.timed_out"
let m_done = Obs.Metrics.counter "serve.done"
let m_failed = Obs.Metrics.counter "serve.failed"
let m_coalesced = Obs.Metrics.counter "serve.coalesced"
let m_batched = Obs.Metrics.counter "serve.batched"
let m_degraded = Obs.Metrics.counter "serve.degraded"
let m_retries = Obs.Metrics.counter "serve.retries"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_quarantined = Obs.Metrics.counter "serve.quarantined"
let m_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let m_latency = Obs.Metrics.histogram "serve.latency_seconds"
let m_queue_wait = Obs.Metrics.histogram "serve.queue_wait_seconds"

let create () =
  {
    submitted = Atomic.make 0;
    admitted = Atomic.make 0;
    rejected = Atomic.make 0;
    timed_out = Atomic.make 0;
    done_ = Atomic.make 0;
    failed = Atomic.make 0;
    coalesced = Atomic.make 0;
    batched = Atomic.make 0;
    degraded = Atomic.make 0;
    retries = Atomic.make 0;
    shed = Atomic.make 0;
    quarantined = Atomic.make 0;
    lat_lock = Mutex.create ();
    lat = Float.Array.make latency_capacity 0.0;
    lat_seen = 0;
  }

let cell t = function
  | Submitted -> (t.submitted, m_submitted)
  | Admitted -> (t.admitted, m_admitted)
  | Rejected -> (t.rejected, m_rejected)
  | Timed_out -> (t.timed_out, m_timed_out)
  | Done -> (t.done_, m_done)
  | Failed -> (t.failed, m_failed)
  | Coalesced -> (t.coalesced, m_coalesced)
  | Batched -> (t.batched, m_batched)
  | Degraded -> (t.degraded, m_degraded)
  | Retried -> (t.retries, m_retries)
  | Shed -> (t.shed, m_shed)
  | Quarantined -> (t.quarantined, m_quarantined)

let record t ev =
  let local, global = cell t ev in
  Atomic.incr local;
  Obs.Metrics.incr global

let observe_latency t ~queue_s ~total_s =
  Obs.Metrics.observe m_queue_wait queue_s;
  Obs.Metrics.observe m_latency total_s;
  Mutex.lock t.lat_lock;
  Float.Array.set t.lat (t.lat_seen mod latency_capacity) total_s;
  t.lat_seen <- t.lat_seen + 1;
  Mutex.unlock t.lat_lock

let set_queue_depth _t depth = Obs.Metrics.set m_queue_depth (float_of_int depth)

let snapshot t =
  {
    s_submitted = Atomic.get t.submitted;
    s_admitted = Atomic.get t.admitted;
    s_rejected = Atomic.get t.rejected;
    s_timed_out = Atomic.get t.timed_out;
    s_done = Atomic.get t.done_;
    s_failed = Atomic.get t.failed;
    s_coalesced = Atomic.get t.coalesced;
    s_batched = Atomic.get t.batched;
    s_degraded = Atomic.get t.degraded;
    s_retries = Atomic.get t.retries;
    s_shed = Atomic.get t.shed;
    s_quarantined = Atomic.get t.quarantined;
  }

let conserved s =
  s.s_submitted
  = s.s_done + s.s_rejected + s.s_timed_out + s.s_failed + s.s_shed + s.s_quarantined

let latencies t =
  Mutex.lock t.lat_lock;
  let n = min t.lat_seen latency_capacity in
  let first = t.lat_seen - n in
  let l = List.init n (fun i -> Float.Array.get t.lat ((first + i) mod latency_capacity)) in
  Mutex.unlock t.lat_lock;
  l

let percentile xs p =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let snapshot_to_json s =
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("submitted", num s.s_submitted);
      ("admitted", num s.s_admitted);
      ("rejected", num s.s_rejected);
      ("timed_out", num s.s_timed_out);
      ("done", num s.s_done);
      ("failed", num s.s_failed);
      ("coalesced", num s.s_coalesced);
      ("batched", num s.s_batched);
      ("degraded", num s.s_degraded);
      ("retries", num s.s_retries);
      ("shed", num s.s_shed);
      ("quarantined", num s.s_quarantined);
      ("conserved", Obs.Json.Bool (conserved s));
    ]

let pp_snapshot fmt s =
  Format.fprintf fmt
    "submitted %d  admitted %d  done %d  rejected %d  timed_out %d  failed %d  shed %d  \
     quarantined %d  coalesced %d  batched %d  degraded %d  retries %d%s"
    s.s_submitted s.s_admitted s.s_done s.s_rejected s.s_timed_out s.s_failed s.s_shed
    s.s_quarantined s.s_coalesced s.s_batched s.s_degraded s.s_retries
    (if conserved s then "" else "  (NOT CONSERVED)")
