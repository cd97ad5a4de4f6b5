type severity = Transient | Fatal | Degraded | Poisoned

type kind =
  | Launch_failure
  | Device_error
  | Device_death
  | Smem_eviction
  | Poison_request
  | Resource_exhausted

let severity_of_kind = function
  | Launch_failure | Device_error -> Transient
  | Device_death -> Fatal
  | Smem_eviction | Resource_exhausted -> Degraded
  | Poison_request -> Poisoned

let kind_to_string = function
  | Launch_failure -> "launch_failure"
  | Device_error -> "device_error"
  | Device_death -> "device_death"
  | Smem_eviction -> "smem_eviction"
  | Poison_request -> "poison_request"
  | Resource_exhausted -> "resource_exhausted"

type fault = { f_kind : kind; f_kernel : string; f_seq : int }

exception Injected of fault

let fault_to_string f =
  Printf.sprintf "injected %s at launch %d of kernel %s" (kind_to_string f.f_kind) f.f_seq
    f.f_kernel

(* Register the exception printer so a fault that escapes all handlers
   (CI logs, Printexc.to_string in the server's Failed message) still
   names the kind, kernel and launch index. *)
let () =
  Printexc.register_printer (function
    | Injected f -> Some (Printf.sprintf "Fault.Plan.Injected(%s)" (fault_to_string f))
    | _ -> None)

type rates = {
  launch_failure : float;
  device_error : float;
  device_death : float;
  smem_eviction : float;
  latency_spike : float;
  spike_mult : float;
  resource_exhausted : float;
  poison_request : float;
}

let zero_rates =
  {
    launch_failure = 0.0;
    device_error = 0.0;
    device_death = 0.0;
    smem_eviction = 0.0;
    latency_spike = 0.0;
    spike_mult = 1.0;
    resource_exhausted = 0.0;
    poison_request = 0.0;
  }

let storm ?(spike_mult = 4.0) ?(poison = 0.0) ?(resource = 0.0) ~rate () =
  (* The legacy five-way split of [rate] is unchanged so existing seeded
     storms replay bit-identically; the two new kinds ride as separate,
     additive rates that default to zero. *)
  {
    launch_failure = 0.40 *. rate;
    device_error = 0.25 *. rate;
    device_death = 0.05 *. rate;
    smem_eviction = 0.10 *. rate;
    latency_spike = 0.20 *. rate;
    spike_mult;
    resource_exhausted = resource;
    poison_request = poison;
  }

let total_rate r =
  r.launch_failure +. r.device_error +. r.device_death +. r.smem_eviction +. r.latency_spike
  +. r.resource_exhausted

type t = { p_seed : int; p_rates : rates; p_total : float }

let make ?(rates = zero_rates) ~seed () =
  let nonneg = [
    ("launch_failure", rates.launch_failure); ("device_error", rates.device_error);
    ("device_death", rates.device_death); ("smem_eviction", rates.smem_eviction);
    ("latency_spike", rates.latency_spike); ("resource_exhausted", rates.resource_exhausted);
    ("poison_request", rates.poison_request);
  ] in
  List.iter
    (fun (n, v) ->
      if v < 0.0 || Float.is_nan v then
        invalid_arg (Printf.sprintf "Fault.Plan.make: negative rate %s = %g" n v))
    nonneg;
  let total = total_rate rates in
  if total > 1.0 then
    invalid_arg (Printf.sprintf "Fault.Plan.make: rates sum to %g > 1" total);
  if rates.spike_mult < 1.0 then
    invalid_arg (Printf.sprintf "Fault.Plan.make: spike_mult %g < 1" rates.spike_mult);
  if rates.poison_request > 1.0 then
    invalid_arg
      (Printf.sprintf "Fault.Plan.make: poison_request %g > 1" rates.poison_request);
  { p_seed = seed; p_rates = rates; p_total = total }

let seed t = t.p_seed
let rates t = t.p_rates

type decision = Pass | Slow of float | Fail of kind

(* SplitMix64 finalizer: the decision is a hash of (seed, stream, seq),
   not a draw from an advancing RNG, so it does not depend on how many
   launches other streams made or in what order domains interleaved. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

let uniform t ~stream ~seq =
  let open Int64 in
  let z = mix64 (add (mul (of_int t.p_seed) golden) (of_int stream)) in
  let z = mix64 (add (mul z golden) (of_int seq)) in
  (* Top 53 bits -> [0, 1). *)
  to_float (shift_right_logical z 11) /. 9007199254740992.0

let decide t ~stream ~seq =
  if t.p_total <= 0.0 then Pass
  else begin
    let u = uniform t ~stream ~seq in
    let r = t.p_rates in
    let c1 = r.device_death in
    let c2 = c1 +. r.launch_failure in
    let c3 = c2 +. r.device_error in
    let c4 = c3 +. r.smem_eviction in
    let c5 = c4 +. r.latency_spike in
    let c6 = c5 +. r.resource_exhausted in
    if u < c1 then Fail Device_death
    else if u < c2 then Fail Launch_failure
    else if u < c3 then Fail Device_error
    else if u < c4 then Fail Smem_eviction
    else if u < c5 then Slow r.spike_mult
    else if u < c6 then Fail Resource_exhausted
    else Pass
  end

let schedule t ~stream ~n = List.init n (fun seq -> decide t ~stream ~seq)

(* Poison draws live in their own stream namespace, far above any launch
   injection stream (requests use [stream lsl 8 lor attempt], fleet devices
   [1 lsl 30 + i]), so adding a poison rate never perturbs launch draws. *)
let poison_stream_base = 1 lsl 40

let poisoned t ~request =
  if t.p_rates.poison_request <= 0.0 then false
  else uniform t ~stream:(poison_stream_base + request) ~seq:0 < t.p_rates.poison_request
