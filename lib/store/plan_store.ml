module J = Obs.Json

type key = {
  sk_backend : string;
  sk_arch : string;
  sk_name : string;
  sk_graph : string;
  sk_devices : int;
  sk_class : string;  (* shape-class id, "-" = exact/unclassed *)
}

type issue = { i_file : string; i_reason : string }

type load_report = {
  lr_loaded : int;
  lr_quarantined : issue list;
  lr_rejected : issue list;
}

type t = {
  dir : string;
  code : string;
  lock : Mutex.t;
  mutable loaded : (key * bool * Gpu.Plan.t) list;
  mutable rep : load_report;
}

let magic = "spacefusion.plan"
let format_version = 1
(* store-v2: keys (and filenames) carry the shape class. v1 entries are
   rejected as stale — their unclassed plans are indistinguishable from a
   class representative's, and silently serving one past its guard is
   exactly the bug the class id exists to prevent. *)
let current_code_version = "store-v2"

let m_loaded = Obs.Metrics.counter "store.loaded"
let m_quarantined = Obs.Metrics.counter "store.quarantined"
let m_rejected = Obs.Metrics.counter "store.rejected"
let m_writes = Obs.Metrics.counter "store.writes"

let filename_of_key k =
  let id =
    Digest.string
      (String.concat "\x00"
         [ k.sk_backend; k.sk_arch; k.sk_name; k.sk_graph; string_of_int k.sk_devices;
           k.sk_class ])
  in
  Digest.to_hex id ^ ".plan"

(* ------------------------------------------------------------------ *)
(* Entry format                                                        *)
(* ------------------------------------------------------------------ *)

(* One JSON document per file. [payload] comes last so the fixed-shape
   header is cheap to reject and a truncation almost always lands in the
   (checksummed) payload. *)
let entry_to_string ~code key ~verified plan =
  let payload = Codec.plan_to_json plan in
  let payload_md5 = Digest.to_hex (Digest.string (J.to_string payload)) in
  J.to_string
    (J.Obj
       [
         ("magic", J.Str magic);
         ("format", J.Num (float_of_int format_version));
         ("code", J.Str code);
         ("backend", J.Str key.sk_backend);
         ("arch", J.Str key.sk_arch);
         ("name", J.Str key.sk_name);
         ("graph", J.Str key.sk_graph);
         ("devices", J.Num (float_of_int key.sk_devices));
         ("class", J.Str key.sk_class);
         ("verified", J.Bool verified);
         ("payload_md5", J.Str payload_md5);
         ("payload", payload);
       ])

(* Why an entry cannot be served. [`Corrupt] means the bytes are not what
   a writer produced (quarantine); [`Stale] means a different writer
   version produced them (reject, leave in place). *)
type parse_result =
  | Entry of key * bool * Gpu.Plan.t
  | Corrupt of string
  | Stale of string

let parse_entry ~code text =
  match J.parse text with
  | Error msg -> Corrupt msg
  | Ok j -> (
      let str name = match J.member name j with Some (J.Str s) -> Some s | _ -> None in
      match str "magic" with
      | Some m when m = magic -> (
          let format =
            match J.member "format" j with
            | Some (J.Num x) when Float.is_integer x -> Some (int_of_float x)
            | _ -> None
          in
          match (format, str "code") with
          | None, _ | _, None -> Corrupt "malformed header"
          | Some f, _ when f <> format_version ->
              Stale (Printf.sprintf "format version %d (want %d)" f format_version)
          | _, Some c when c <> code ->
              Stale (Printf.sprintf "code version %S (want %S)" c code)
          | Some _, Some _ -> (
              match (str "backend", str "arch", str "name", str "graph") with
              | Some backend, Some arch, Some name, Some graph -> (
                  let verified =
                    match J.member "verified" j with Some (J.Bool b) -> b | _ -> false
                  in
                  (* Entries from before multi-device support have no
                     [devices] header: they are one-device plans. *)
                  let devices =
                    match J.member "devices" j with
                    | Some (J.Num x) when Float.is_integer x && x >= 1.0 -> int_of_float x
                    | _ -> 1
                  in
                  let cls = match str "class" with Some c -> c | None -> "-" in
                  match (str "payload_md5", J.member "payload" j) with
                  | Some md5, Some payload ->
                      if Digest.to_hex (Digest.string (J.to_string payload)) <> md5 then
                        Corrupt "payload checksum mismatch"
                      else (
                        match Codec.plan_of_json payload with
                        | Error msg -> Corrupt ("undecodable plan: " ^ msg)
                        | Ok plan ->
                            Entry
                              ( { sk_backend = backend; sk_arch = arch; sk_name = name;
                                  sk_graph = graph; sk_devices = devices; sk_class = cls },
                                verified, plan ))
                  | _ -> Corrupt "missing payload or checksum")
              | _ -> Corrupt "malformed stamp"))
      | Some _ | None -> Corrupt "not a plan entry")

(* ------------------------------------------------------------------ *)
(* Filesystem plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmp_prefix = ".tmp-"

let write_atomic dir base text =
  let tmp =
    Filename.concat dir
      (Printf.sprintf "%s%s.%d.%d" tmp_prefix base (Unix.getpid ()) (Random.bits ()))
  in
  let oc = open_out_bin tmp in
  (match output_string oc text with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Unix.rename tmp (Filename.concat dir base)

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let quarantine_dir t = Filename.concat t.dir "quarantine"

let quarantine t file reason =
  ensure_dir (quarantine_dir t);
  let dst = Filename.concat (quarantine_dir t) file in
  (try Sys.remove dst with Sys_error _ -> ());
  Unix.rename (Filename.concat t.dir file) dst;
  (* The named report: a sidecar next to the quarantined bytes, so an
     operator can see why without replaying the load. *)
  write_atomic (quarantine_dir t) (file ^ ".reason") (reason ^ "\n")

(* ------------------------------------------------------------------ *)
(* Open / load                                                         *)
(* ------------------------------------------------------------------ *)

let is_entry_file f = Filename.check_suffix f ".plan"

let scan t =
  let files = Array.to_list (Sys.readdir t.dir) in
  (* A temp file is a killed writer's garbage by definition: its entry
     either never made it (safe to forget) or was already renamed. *)
  List.iter
    (fun f ->
      if String.length f >= String.length tmp_prefix
         && String.sub f 0 (String.length tmp_prefix) = tmp_prefix
      then try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    files;
  let loaded = ref [] and quarantined = ref [] and rejected = ref [] in
  List.iter
    (fun f ->
      if is_entry_file f then
        let parsed =
          match read_file (Filename.concat t.dir f) with
          | text -> parse_entry ~code:t.code text
          | exception Sys_error msg -> Corrupt ("unreadable: " ^ msg)
        in
        match parsed with
        | Entry (k, verified, plan) -> loaded := (k, verified, plan) :: !loaded
        | Stale reason -> rejected := { i_file = f; i_reason = reason } :: !rejected
        | Corrupt reason ->
            quarantine t f reason;
            quarantined := { i_file = f; i_reason = reason } :: !quarantined)
    (List.sort compare files);
  t.loaded <- List.rev !loaded;
  t.rep <-
    {
      lr_loaded = List.length !loaded;
      lr_quarantined = List.rev !quarantined;
      lr_rejected = List.rev !rejected;
    };
  Obs.Metrics.incr ~by:t.rep.lr_loaded m_loaded;
  Obs.Metrics.incr ~by:(List.length t.rep.lr_quarantined) m_quarantined;
  Obs.Metrics.incr ~by:(List.length t.rep.lr_rejected) m_rejected

let open_ ?(code_version = current_code_version) dir =
  ensure_dir dir;
  let t =
    {
      dir;
      code = code_version;
      lock = Mutex.create ();
      loaded = [];
      rep = { lr_loaded = 0; lr_quarantined = []; lr_rejected = [] };
    }
  in
  scan t;
  t

let entries t = t.loaded
let report t = t.rep

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let put t key ~verified plan =
  locked t (fun () ->
      write_atomic t.dir (filename_of_key key) (entry_to_string ~code:t.code key ~verified plan);
      Obs.Metrics.incr m_writes)

let mem t key = Sys.file_exists (Filename.concat t.dir (filename_of_key key))

let length t =
  Array.fold_left (fun acc f -> if is_entry_file f then acc + 1 else acc) 0 (Sys.readdir t.dir)

let report_to_json r =
  let issues tag xs =
    List.map
      (fun i -> J.Obj [ ("file", J.Str i.i_file); ("kind", J.Str tag); ("reason", J.Str i.i_reason) ])
      xs
  in
  J.Obj
    [
      ("loaded", J.Num (float_of_int r.lr_loaded));
      ("quarantined", J.Num (float_of_int (List.length r.lr_quarantined)));
      ("rejected", J.Num (float_of_int (List.length r.lr_rejected)));
      ("issues", J.Arr (issues "quarantined" r.lr_quarantined @ issues "rejected" r.lr_rejected));
    ]
