type span = {
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start : float;
  mutable sp_dur : float;
  mutable sp_children : span list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

(* Collector state: completed roots plus the epoch, behind one mutex. The
   mutex is only ever taken with tracing enabled, and only for a list cons
   — span bodies run outside it. *)
let lock = Mutex.create ()
let completed : span list ref = ref []
let epoch = ref (Unix.gettimeofday ())

let now () = Unix.gettimeofday () -. !epoch

let reset () =
  Mutex.lock lock;
  completed := [];
  epoch := Unix.gettimeofday ();
  Mutex.unlock lock

(* The open span the current domain is inside of, if any. *)
let cursor : span option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let attach parent sp =
  Mutex.lock lock;
  (match parent with
  | Some p -> p.sp_children <- sp :: p.sp_children
  | None -> completed := sp :: !completed);
  Mutex.unlock lock

let with_span ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let parent = Domain.DLS.get cursor in
    let sp =
      {
        sp_name = name;
        sp_attrs = (match attrs with None -> [] | Some a -> a);
        sp_start = now ();
        sp_dur = 0.0;
        sp_children = [];
      }
    in
    Domain.DLS.set cursor (Some sp);
    Fun.protect
      ~finally:(fun () ->
        (* Wall clocks can step backwards; a negative duration would fail
           the profile validation downstream, so clamp. *)
        sp.sp_dur <- Float.max 0.0 (now () -. sp.sp_start);
        Domain.DLS.set cursor parent;
        attach parent sp)
      f
  end

let roots () =
  Mutex.lock lock;
  let r = List.rev !completed in
  Mutex.unlock lock;
  r

(* ------------------------------------------------------------------ *)
(* Flame-style aggregation                                             *)
(* ------------------------------------------------------------------ *)

type agg = {
  a_name : string;
  a_count : int;
  a_total_s : float;
  a_children : agg list;
}

let rec aggregate spans =
  (* Fold same-named siblings together; recurse on the union of their
     children. Hashtbl for the grouping, then sort for determinism. *)
  let groups : (string, int ref * float ref * span list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt groups sp.sp_name with
      | Some (count, total, kids) ->
          incr count;
          total := !total +. sp.sp_dur;
          kids := sp.sp_children @ !kids
      | None -> Hashtbl.add groups sp.sp_name (ref 1, ref sp.sp_dur, ref sp.sp_children))
    spans;
  Hashtbl.fold
    (fun name (count, total, kids) acc ->
      { a_name = name; a_count = !count; a_total_s = !total; a_children = aggregate !kids }
      :: acc)
    groups []
  |> List.sort (fun a b -> compare a.a_name b.a_name)

let agg_paths aggs =
  let out = ref [] in
  let rec go prefix a =
    let path = if prefix = "" then a.a_name else prefix ^ "/" ^ a.a_name in
    out := path :: !out;
    List.iter (go path) a.a_children
  in
  List.iter (go "") aggs;
  List.sort compare !out

let rec agg_to_json aggs =
  Json.Arr
    (List.map
       (fun a ->
         Json.Obj
           [
             ("name", Json.Str a.a_name);
             ("count", Json.Num (float_of_int a.a_count));
             ("total_s", Json.Num a.a_total_s);
             ("children", agg_to_json a.a_children);
           ])
       aggs)

let pp_agg fmt aggs =
  let rec go indent a =
    Format.fprintf fmt "%s%-*s %6d x %10.3f ms@." indent
      (max 1 (32 - String.length indent))
      a.a_name a.a_count (a.a_total_s *. 1e3);
    List.iter (go (indent ^ "  ")) a.a_children
  in
  List.iter (go "") aggs
