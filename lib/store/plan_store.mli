(** Versioned, crash-safe on-disk plan store.

    A production fleet needs zero-compile cold starts: plans — and the
    hard-won [verified] stamps that license the warm analytic fast path —
    must survive process exit. This store keeps one file per plan under a
    directory, keyed by the same content digests {!Runtime.Plan_cache}
    uses, stamped with (backend, architecture, plan name, graph digest)
    plus a format and code version.

    {b Whole-entry writes.} An entry is never edited in place: {!put}
    writes the plan and its [verified] stamp together. The plan cache
    calls it once per entry it settles, from the domain that holds the
    key's claim, so two writes of one key never race.

    {b Durability.} Every write goes to a temp file in the same directory
    followed by an atomic [rename]: a reader (or a crash) never observes a
    half-written entry under its final name.

    {b Corruption safety.} [open_] scans the directory eagerly. A
    truncated, tampered or undecodable entry is {e quarantined} — moved to
    [quarantine/] next to a [.reason] file naming why — and reported in
    the {!load_report}; it is never a crash. An entry written by a
    different format or code version is {e rejected} (skipped, left in
    place, reported) so a rollback can still read it. Stale temp files
    from a killed writer are removed. *)

type key = {
  sk_backend : string;
  sk_arch : string;
  sk_name : string;
  sk_graph : string;  (** hex MD5 of the canonical DSL text *)
  sk_devices : int;
      (** device count the plan was compiled/costed for; entries written
          before multi-device support carried no [devices] header and
          decode as 1 *)
  sk_class : string;  (** shape-class id; ["-"] = exact/unclassed *)
}

type issue = { i_file : string; i_reason : string }

type load_report = {
  lr_loaded : int;
  lr_quarantined : issue list;
  lr_rejected : issue list;
}

type t

val current_code_version : string
(** Bump when {!Codec}'s payload format (or plan semantics) change; entries
    stamped with another code version are rejected on load. *)

val open_ : ?code_version:string -> string -> t
(** Create the directory if needed and scan it: every valid entry becomes
    available through {!entries}, everything else is quarantined or
    rejected per the module contract. Never raises on bad entry {e
    contents}; filesystem-level failures (permissions, not a directory)
    do raise. *)

val entries : t -> (key * bool * Gpu.Plan.t) list
(** The entries loaded by [open_], with their [verified] stamps. *)

val report : t -> load_report
(** What [open_] found: loaded/quarantined/rejected. *)

val put : t -> key -> verified:bool -> Gpu.Plan.t -> unit
(** Write (or overwrite) the entry for [key] atomically. *)

val mem : t -> key -> bool
(** Whether an entry file for this key exists right now. *)

val length : t -> int
(** Entry files currently on disk (excluding quarantine). *)

val filename_of_key : key -> string
(** Basename of the entry file a key maps to (content-addressed). *)

val report_to_json : load_report -> Obs.Json.t
(** [{"loaded":n,"quarantined":n,"rejected":n,"issues":[...]}] — the shape
    the warm/serve CLIs print and scripts/ci.sh greps. *)
