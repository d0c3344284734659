(** Flight recorder over the typed event stream.

    Keeps the last [per_node] events of every node in bounded rings and,
    when tripped, dumps the merged slice plus a metrics snapshot as a
    text artifact: ['#']-prefixed header lines ([reason], [at], one-line
    metrics JSON) followed by plain {!Bmx_util.Trace_event.to_line}
    event lines, so the slice replays directly through
    [bmxctl check --trace] / [certify --trace] (which skip ['#'] lines).

    Trips automatically on the §5 alarm (a [Gc]-actor token acquire —
    [gc_token_acquires] going nonzero) and on a truncating RVM recovery
    ([dropped] or [lost] nonzero); trip it externally (lint finding,
    audit loss, partition post-mortem) with {!trip}.  At most
    [max_dumps] artifacts are kept — later trips are dropped, keeping a
    trip storm bounded. *)

open Bmx_util

type t

type dump = {
  reason : string;  (** e.g. ["gc-token-acquire:n2:o17"] or a lint rule name *)
  at : int;  (** virtual µstep of the trip *)
  text : string;  (** the full artifact, ready to write to a file *)
}

val create : ?per_node:int -> ?max_dumps:int -> ?metrics:Metrics.t -> unit -> t
(** Defaults: 256 events per node, 4 dumps.  When [metrics] is given
    each dump embeds a full registry snapshot header. *)

val attach : t -> Trace_event.log -> unit
(** Tap a live event log. *)

val record : t -> int -> Trace_event.t -> unit
(** Feed one timed event by hand (what the tap calls); runs the
    automatic triggers. *)

val trip : t -> ?at:int -> string -> unit
(** Force a dump with the given reason (defaults [at] to the last
    recorded timestamp).  No-op once [max_dumps] is reached. *)

val dumps : t -> dump list
(** Oldest first. *)
