(* Multi-device node model. A collective is a space mapping between device
   memories, priced with ring formulas over a shared-link interconnect —
   the interconnect is one more memory tier, like DRAM below L2. *)

type t = {
  nd_arch : Arch.t;
  nd_devices : int;
  nd_link_bw : float;
  nd_link_latency_s : float;
  nd_links : int;
}

let make ?(link_bw = 200.0e9) ?(link_latency_s = 3.0e-6) ?links arch ~devices
    =
  if devices < 1 then invalid_arg "Node.make: devices < 1";
  let links = match links with Some l -> l | None -> devices in
  if links < 1 then invalid_arg "Node.make: links < 1";
  if link_bw <= 0.0 then invalid_arg "Node.make: link_bw <= 0";
  if link_latency_s < 0.0 then invalid_arg "Node.make: link_latency_s < 0";
  {
    nd_arch = arch;
    nd_devices = devices;
    nd_link_bw = link_bw;
    nd_link_latency_s = link_latency_s;
    nd_links = links;
  }

let nvlink arch ~devices = make arch ~devices
let single arch = make arch ~devices:1

type mapping = One_to_all | All_to_one | All_to_all

let contention t =
  Float.max 1.0 (float_of_int t.nd_devices /. float_of_int t.nd_links)

(* Ring collective times; [bytes] is the per-device payload. On one device
   every mapping is the identity and costs nothing. *)
let mapping_time t m ~bytes =
  let d = float_of_int t.nd_devices in
  if t.nd_devices <= 1 || bytes <= 0.0 then 0.0
  else
    let wire = bytes /. t.nd_link_bw *. contention t in
    let lat = t.nd_link_latency_s in
    match m with
    | All_to_all -> (2.0 *. (d -. 1.0) /. d *. wire) +. (2.0 *. (d -. 1.0) *. lat)
    | All_to_one -> ((d -. 1.0) /. d *. wire) +. ((d -. 1.0) *. lat)
    | One_to_all -> wire +. ((d -. 1.0) *. lat)

let all_reduce_time t ~bytes = mapping_time t All_to_all ~bytes

let all_gather_time t ~bytes =
  let d = float_of_int t.nd_devices in
  if t.nd_devices <= 1 || bytes <= 0.0 then 0.0
  else
    ((d -. 1.0) /. d *. (bytes /. t.nd_link_bw *. contention t))
    +. ((d -. 1.0) *. t.nd_link_latency_s)

let to_json t =
  Obs.Json.(
    Obj
      [
        ("arch", Str t.nd_arch.Arch.name);
        ("devices", Num (float_of_int t.nd_devices));
        ("link_bw", Num t.nd_link_bw);
        ("link_latency_s", Num t.nd_link_latency_s);
        ("links", Num (float_of_int t.nd_links));
      ])

let pp fmt t =
  Format.fprintf fmt "node{%s x%d, %.0f GB/s/link, %.1f us, %d links}"
    t.nd_arch.Arch.name t.nd_devices (t.nd_link_bw /. 1e9)
    (t.nd_link_latency_s *. 1e6) t.nd_links
