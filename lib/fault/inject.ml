type t = {
  plan : Plan.t;
  i_stream : int;
  mutable seq : int;
  mutable is_dead : bool;
  mutable slow : float;
  mutable nfaults : int;
}

let create plan ~stream = { plan; i_stream = stream; seq = 0; is_dead = false; slow = 1.0; nfaults = 0 }

let stream t = t.i_stream
let launches t = t.seq
let dead t = t.is_dead
let last_slowdown t = t.slow
let faults t = t.nfaults

let m_injected = Obs.Metrics.counter "fault.injected"
let m_launch = Obs.Metrics.counter "fault.launch_failures"
let m_device = Obs.Metrics.counter "fault.device_errors"
let m_death = Obs.Metrics.counter "fault.device_deaths"
let m_smem = Obs.Metrics.counter "fault.smem_evictions"
let m_spike = Obs.Metrics.counter "fault.latency_spikes"
let m_poison = Obs.Metrics.counter "fault.poison_requests"
let m_resource = Obs.Metrics.counter "fault.resource_exhausted"

let kind_cell = function
  | Plan.Launch_failure -> m_launch
  | Plan.Device_error -> m_device
  | Plan.Device_death -> m_death
  | Plan.Smem_eviction -> m_smem
  | Plan.Poison_request -> m_poison
  | Plan.Resource_exhausted -> m_resource

let record kind =
  Obs.Metrics.incr m_injected;
  Obs.Metrics.incr (kind_cell kind)

let raise_fault t kind ~kernel ~seq =
  t.nfaults <- t.nfaults + 1;
  Obs.Metrics.incr m_injected;
  Obs.Metrics.incr (kind_cell kind);
  raise (Plan.Injected { Plan.f_kind = kind; f_kernel = kernel; f_seq = seq })

let launch t ~kernel =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.slow <- 1.0;
  if t.is_dead then raise_fault t Plan.Device_death ~kernel ~seq
  else
    match Plan.decide t.plan ~stream:t.i_stream ~seq with
    | Plan.Pass -> ()
    | Plan.Slow m ->
        t.slow <- m;
        Obs.Metrics.incr m_spike
    | Plan.Fail Plan.Device_death ->
        t.is_dead <- true;
        raise_fault t Plan.Device_death ~kernel ~seq
    | Plan.Fail kind -> raise_fault t kind ~kernel ~seq
