(** Minimal JSON values: emit and parse.

    The observability layer exports metrics snapshots and Perfetto
    timelines as JSON; the [@report] smoke test re-parses what it wrote
    to certify the export is well formed.  This module is deliberately
    tiny (no external dependency): integers stay integers, objects keep
    insertion order, and parsing accepts exactly the JSON grammar (with
    [\uXXXX] escapes decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Non-finite floats render as [null] (JSON has no
    NaN/infinity). *)

val parse : string -> (t, string) result
(** Parse one JSON document (leading/trailing whitespace allowed).
    Numbers without [.], [e] or [E] parse as [Int]. *)

val member : string -> t -> t option
(** [member k (Obj _)] — first binding of [k], [None] otherwise. *)
