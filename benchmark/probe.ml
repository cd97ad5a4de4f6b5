(* Measuring from outside the libraries: wall clocks, the process's peak
   memory, deltas of the counters the program publishes in Obs.Metrics,
   self times folded out of the existing Obs.Trace spans, and the
   benchmark's own per-call samples. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- Obs.Metrics deltas ------------------------------------------- *)

type snapshot = (string, Obs.Metrics.value) Hashtbl.t

let snapshot () : snapshot =
  let h = Hashtbl.create 128 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) (Obs.Metrics.snapshot ());
  h

(* A counter's increase, or a histogram's summed observations. *)
let delta (a : snapshot) (b : snapshot) name =
  let v h =
    match Hashtbl.find_opt h name with
    | Some (Obs.Metrics.Counter c) -> float_of_int c
    | Some (Obs.Metrics.Histogram { h_sum; _ }) -> h_sum
    | Some (Obs.Metrics.Gauge g) -> g
    | None -> 0.0
  in
  v b -. v a

let gauge (s : snapshot) name =
  match Hashtbl.find_opt s name with Some (Obs.Metrics.Gauge g) -> g | _ -> 0.0

let ratio num den = if den <= 0.0 then 0.0 else num /. den

(* ---- Obs.Trace self times ----------------------------------------- *)

(* Sum over every folded node named [name] of its self time: its total
   minus the part its children cover. *)
let self_time aggs name =
  let rec go acc (a : Obs.Trace.agg) =
    let children = List.fold_left (fun s (c : Obs.Trace.agg) -> s +. c.Obs.Trace.a_total_s) 0.0 a.a_children in
    let acc = if a.Obs.Trace.a_name = name then acc +. Float.max 0.0 (a.a_total_s -. children) else acc in
    List.fold_left go acc a.a_children
  in
  List.fold_left go 0.0 aggs

(* ---- benchmark-side spans ----------------------------------------- *)

(* Durations of the benchmark's own timed calls into a layer, by name;
   cleared before a traced window, whose layer numbers read them. *)
let spans : (string, float list) Hashtbl.t = Hashtbl.create 16

let span_samples name = Option.value ~default:[] (Hashtbl.find_opt spans name)

(* Also for values that are not durations (bytes, lags) collected the same way. *)
let record name v = Hashtbl.replace spans name (v :: span_samples name)

let span name f =
  let v, dt = timed f in
  record name dt;
  v

let span_total name = List.fold_left ( +. ) 0.0 (span_samples name)

(* While tracing: folds the completed Obs.Trace spans into a "core.lower"
   self-time sample and drops them, so spans do not pile up over a traced
   window (one cold model compile makes tens of thousands). Call it only
   while no span is open. *)
let fold_trace () =
  if Obs.Trace.enabled () then begin
    record "core.lower" (self_time (Obs.Trace.aggregate (Obs.Trace.roots ())) "lower");
    Obs.Trace.reset ()
  end

(* Median duration of a span, in microseconds; 0 when never called. *)
let span_median_us name =
  match span_samples name with [] -> 0.0 | xs -> Stats.median xs *. 1e6

(* ---- scratch directories ------------------------------------------- *)

(* Under TMPDIR, which run.sh points inside the checkout. *)
let dirs = ref 0

let fresh_dir prefix =
  incr dirs;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !dirs)
  in
  Unix.mkdir d 0o755;
  d

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tree_bytes path =
  let rec go acc p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.fold_left (fun acc e -> go acc (Filename.concat p e)) acc (Sys.readdir p)
    | { Unix.st_size; _ } -> acc + st_size
  in
  go 0 path
