(** Capturing and validating a whole profile: the flame-style span tree
    plus the flat metrics snapshot, as one JSON document or one human
    report. This is the payload of [spacefusion profile]. *)

type t = {
  rp_spans : Trace.agg list;
  rp_metrics : (string * Metrics.value) list;
}

val capture : unit -> t
(** Aggregate the completed trace roots and snapshot the metrics registry. *)

val to_json : ?extra:(string * Json.t) list -> t -> Json.t
(** [{"spans": [...], "metrics": {...}}], with [extra] fields prepended
    (model name, arch, the run's unified result, ...). *)

val pp : Format.formatter -> t -> unit

val validate :
  ?required_spans:string list ->
  ?required_metrics:string list ->
  Json.t ->
  (unit, string) result
(** Structural check of an emitted profile document (CI's smoke gate and
    the round-trip test): a ["spans"] array of well-formed span nodes with
    [count >= 1] and [total_s >= 0] at every depth, a ["metrics"] object
    containing every name in [required_metrics], and every name in
    [required_spans] present somewhere in the span tree. *)
