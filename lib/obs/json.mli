(** Minimal JSON values for the observability exports.

    The repo deliberately carries no JSON dependency; every machine-readable
    surface (fuzz reports, the bench gates, profiles) prints JSON by hand.
    This module centralizes that for the observability subsystem and — so
    the emitted reports can be validated in-process (tests, the profile
    [--check] smoke in CI) — also provides the inverse: a small
    recursive-descent parser over the same value type. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Integral numbers print without a fractional part;
    everything else uses round-trippable ["%.17g"]. Object field order is
    preserved, so [to_string] after {!parse} reproduces the input of a
    previous [to_string] byte for byte. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control characters). *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed). Errors carry
    a byte offset. [\uXXXX] escapes decode to ASCII raw bytes below 0x80
    and to the code point's UTF-8 bytes above (surrogate pairs combine);
    an unpaired surrogate or malformed hex is a parse error. Decoding is
    byte-stable under {!to_string}, which matters now that the plan store
    and telemetry round-trip JSON from disk. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)
