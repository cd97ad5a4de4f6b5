module J = Obs.Json

type t = { dir : string; lock : Mutex.t }

let m_records = Obs.Metrics.counter "telemetry.records"

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let open_ dir =
  ensure_dir dir;
  { dir; lock = Mutex.create () }

(* Table names and column names become file names: keep the metric
   alphabet ([a-z0-9._] plus whatever labels carry) and nothing that can
   escape the directory. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    name

let kind_dir t kind = Filename.concat t.dir (sanitize kind)
let cols_dir t kind = Filename.concat (kind_dir t kind) "cols"
let index_path t kind = Filename.concat (kind_dir t kind) "index.jsonl"

(* Self-healing append: a killed writer can leave a torn tail with no
   trailing newline. Starting this record on a fresh line keeps the torn
   bytes an ignorable fragment instead of letting them swallow the next
   complete line appended after them. *)
let append path line =
  let needs_nl =
    Sys.file_exists path
    &&
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        len > 0
        &&
        (seek_in ic (len - 1);
         input_char ic <> '\n'))
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      if needs_nl then output_char oc '\n';
      output_string oc line;
      output_char oc '\n')

(* Complete lines only: a torn tail from a killed writer parses as
   garbage and is skipped, never fatal. *)
let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let text = really_input_string ic (in_channel_length ic) in
        let lines = String.split_on_char '\n' text in
        (* Drop the segment after the last newline unless it is empty: it
           is an in-flight (torn) write. *)
        match List.rev lines with
        | last :: rest when last <> "" -> List.rev rest
        | _ -> List.filter (fun l -> l <> "") lines)
  end
  |> List.filter (fun l -> l <> "")

type row = { r_seq : int; r_label : string }

let parse_index_line line =
  match J.parse line with
  | Error _ -> None
  | Ok j -> (
      match (J.member "seq" j, J.member "label" j) with
      | Some (J.Num s), Some (J.Str label) when Float.is_integer s ->
          Some { r_seq = int_of_float s; r_label = label }
      | _ -> None)

let index_rows t kind = List.filter_map parse_index_line (read_lines (index_path t kind))

let record t ~kind ?(label = "") cols =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      ensure_dir (kind_dir t kind);
      ensure_dir (cols_dir t kind);
      let seq =
        1 + List.fold_left (fun acc r -> max acc r.r_seq) 0 (index_rows t kind)
      in
      List.iter
        (fun (name, value) ->
          append
            (Filename.concat (cols_dir t kind) (sanitize name ^ ".col"))
            (Printf.sprintf "%d %.17g" seq value))
        cols;
      (* The run exists once this line lands — column appends above are
         invisible (sparse orphans) until then. *)
      append (index_path t kind)
        (J.to_string
           (J.Obj
              [
                ("seq", J.Num (float_of_int seq));
                ("ts", J.Num (Unix.gettimeofday ()));
                ("label", J.Str label);
              ]));
      Obs.Metrics.incr m_records;
      seq)

let metrics_columns () =
  List.concat_map
    (fun (name, v) ->
      match (v : Obs.Metrics.value) with
      | Obs.Metrics.Counter n -> [ (name, float_of_int n) ]
      | Obs.Metrics.Gauge x -> [ (name, x) ]
      | Obs.Metrics.Histogram { h_count; h_sum; h_min; h_max } ->
          [
            (name ^ ".count", float_of_int h_count);
            (name ^ ".sum", h_sum);
            (name ^ ".min", (if h_count = 0 then 0.0 else h_min));
            (name ^ ".max", (if h_count = 0 then 0.0 else h_max));
          ])
    (Obs.Metrics.snapshot ())

type agg = {
  a_count : int;
  a_sum : float;
  a_mean : float;
  a_min : float;
  a_max : float;
  a_last : float;
}

let kinds t =
  if not (Sys.file_exists t.dir) then []
  else
    Sys.readdir t.dir |> Array.to_list
    |> List.filter (fun k -> Sys.is_directory (Filename.concat t.dir k))
    |> List.sort compare

let columns t ~kind =
  let dir = cols_dir t kind in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".col" f)
    |> List.sort compare

let column_values t ~kind name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> ()
      | Some i -> (
          let seq = int_of_string_opt (String.sub line 0 i) in
          let v = float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) in
          match (seq, v) with
          | Some seq, Some v -> Hashtbl.replace tbl seq v  (* latest write for a seq wins *)
          | _ -> ()))
    (read_lines (Filename.concat (cols_dir t kind) (sanitize name ^ ".col")));
  tbl

let aggregate values =
  match values with
  | [] -> None
  | _ ->
      let count = List.length values in
      let sum = List.fold_left ( +. ) 0.0 values in
      Some
        {
          a_count = count;
          a_sum = sum;
          a_mean = sum /. float_of_int count;
          a_min = List.fold_left Float.min infinity values;
          a_max = List.fold_left Float.max neg_infinity values;
          a_last = List.nth values (count - 1);
        }

let query t ~kind ?label ?last cols =
  let rows = index_rows t kind in
  let rows =
    match label with None -> rows | Some l -> List.filter (fun r -> r.r_label = l) rows
  in
  let rows = List.sort (fun a b -> compare a.r_seq b.r_seq) rows in
  let rows =
    match last with
    | None -> rows
    | Some n ->
        let len = List.length rows in
        List.filteri (fun i _ -> i >= len - n) rows
  in
  let per_col =
    List.map
      (fun name ->
        let tbl = column_values t ~kind name in
        let values = List.filter_map (fun r -> Hashtbl.find_opt tbl r.r_seq) rows in
        (name, aggregate values))
      cols
  in
  (List.length rows, per_col)

let agg_to_json = function
  | None -> J.Null
  | Some a ->
      J.Obj
        [
          ("count", J.Num (float_of_int a.a_count));
          ("sum", J.Num a.a_sum);
          ("mean", J.Num a.a_mean);
          ("min", J.Num a.a_min);
          ("max", J.Num a.a_max);
          ("last", J.Num a.a_last);
        ]
