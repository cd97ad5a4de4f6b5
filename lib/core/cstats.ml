type t = {
  mutable t_ss : float;
  mutable t_ts : float;
  mutable t_enum : float;
  mutable t_tune : float;
  mutable t_total : float;
  mutable n_cfgs : int;
  mutable n_early_quit : int;
  mutable n_reused : int;
  mutable n_partitions : int;
}

type phase = Ss | Ts | Enum | Tune

let create () =
  { t_ss = 0.0; t_ts = 0.0; t_enum = 0.0; t_tune = 0.0; t_total = 0.0; n_cfgs = 0;
    n_early_quit = 0; n_reused = 0; n_partitions = 0 }

let timed t phase f =
  let start = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. start in
    match phase with
    | Ss -> t.t_ss <- t.t_ss +. dt
    | Ts -> t.t_ts <- t.t_ts +. dt
    | Enum -> t.t_enum <- t.t_enum +. dt
    | Tune -> t.t_tune <- t.t_tune +. dt
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Registry handles are interned once; Obs.Metrics.reset zeroes cells in
   place so these stay valid across resets. *)
let m_compiles = Obs.Metrics.counter "compile.count"
let m_total = Obs.Metrics.histogram "compile.seconds"
let m_ss = Obs.Metrics.histogram "compile.ss_seconds"
let m_ts = Obs.Metrics.histogram "compile.ts_seconds"
let m_enum = Obs.Metrics.histogram "compile.enum_seconds"
let m_tune = Obs.Metrics.histogram "compile.tune_seconds"
let m_cfgs = Obs.Metrics.counter "tuner.costed"
let m_pruned = Obs.Metrics.counter "tuner.pruned"
let m_reused = Obs.Metrics.counter "tuner.reused"
let m_partitions = Obs.Metrics.counter "sched.partitions"

let publish t =
  Obs.Metrics.incr m_compiles;
  Obs.Metrics.observe m_total t.t_total;
  Obs.Metrics.observe m_ss t.t_ss;
  Obs.Metrics.observe m_ts t.t_ts;
  Obs.Metrics.observe m_enum t.t_enum;
  Obs.Metrics.observe m_tune t.t_tune;
  Obs.Metrics.incr ~by:t.n_cfgs m_cfgs;
  Obs.Metrics.incr ~by:t.n_early_quit m_pruned;
  Obs.Metrics.incr ~by:t.n_reused m_reused;
  Obs.Metrics.incr ~by:t.n_partitions m_partitions

let pp fmt t =
  Format.fprintf fmt
    "ss=%.3fms ts=%.3fms enum=%.3fms tune=%.3fms total=%.3fms cfgs=%d early_quit=%d reused=%d \
     partitions=%d"
    (t.t_ss *. 1e3) (t.t_ts *. 1e3) (t.t_enum *. 1e3) (t.t_tune *. 1e3) (t.t_total *. 1e3)
    t.n_cfgs t.n_early_quit t.n_reused t.n_partitions
