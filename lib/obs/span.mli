(** Causal spans derived from the structured event trace, and the one
    begin/end pairing every latency consumer drives.

    A span is an interval on one node's virtual-time line, assembled by
    pairing begin/end events out of {!Bmx_util.Trace_event}:

    - [acquire.read] / [acquire.write] — token acquisition end-to-end,
      [Acquire_start] → [Acquire_done] keyed by (actor, node, uid, tok);
      app acquires land on the [Dsm] track, GC-actor acquires (which the
      paper forbids, §5) on the [Gc] track.
    - [gc.bgc] / [gc.ggc] — a collection cycle, [Gc_begin] → [Gc_end]
      keyed by node.
    - [msg.<kind>] — a background message flight on the sender's line,
      [Msg_sent] → [Msg_delivered] keyed by (src, dst, kind, seq).  For
      reliable kinds this covers the whole retransmit epoch (delivery
      carries the original seq); the [attempts] arg counts transmissions.
      Scion-cleaner traffic ([scion_message], [stub_table]) lands on the
      [Cleaner] track, everything else on [Net].
    - [down] — [Crash] → [Restart], on [Net].
    - [partition] / [suspect] — [Link_cut] → [Link_heal] and
      [Suspect on] → [Suspect off] keyed by (src, dst), on [Net].

    Retransmissions, suppressions and buffering become instants
    ([dur = None]).  A begin event with no matching end (message lost to
    a crash, trace truncated) yields an instant with ["unfinished"] set
    in its args.  An end event with no open begin (a duplicated
    delivery — stub tables travel unreliably, §6.1 — or a trace that
    starts mid-interval) yields an instant at its own time with
    ["unmatched"] set: it has no duration, so no consumer takes a
    latency sample from it.  Durations are in virtual µsteps
    ({!Bmx_util.Trace_event.quantum} per [Net.now] tick). *)

open Bmx_util

type track = Dsm | Gc | Net | Cleaner

val track_name : track -> string
val all_tracks : track list

(** {1 Latency families} — what a finished interval is a sample of. *)

type family =
  | Token_acquire_read
  | Token_acquire_write
  | Token_acquire_gc  (** any GC-actor acquire; §5 says there are none *)
  | Gc_pause  (** a collection cycle, BGC or GGC *)
  | Msg of string  (** a message flight, by kind *)

val family_name : family -> string
(** ["token_acquire.read"], ..., ["gc.pause"], ["msg.<kind>"]: the
    [latency.<name>] histograms of {!Report} and {!Timeseries}. *)

val family : Trace_event.t -> family option
(** The family of the interval an end event closes; [None] for every
    other event and for ends without a latency ([Restart], [Link_heal],
    [Suspect off]). *)

(** {1 Pairing} *)

type 'a pairing
(** The open intervals, each holding what its begin event stored. *)

val pairing : (int -> Trace_event.t -> 'a) -> 'a pairing
(** [pairing opened]: a begin event [ev] at [ts] stores [opened ts ev].
    A begin replaces an open interval with the same key. *)

type 'a step =
  | Began  (** the event opened an interval *)
  | Ended of 'a  (** it closed the interval whose begin stored this *)
  | Unmatched  (** an end event with no open begin: nothing closed *)
  | Retransmitted of 'a  (** a retransmission of an open message flight *)
  | Unpaired  (** any other event *)

val step : 'a pairing -> int -> Trace_event.t -> 'a step
(** Feed one timed event.  A begin allocates its key and a table
    bucket, an end or a retransmission its key and the result block,
    any other event nothing, and no step builds a string: the live
    series runs it per event. *)

(** {1 Spans} *)

type t = {
  name : string;
  node : Ids.Node.t;  (** whose timeline the span sits on *)
  track : track;
  ts : int;  (** start, virtual µsteps *)
  dur : int option;  (** [None] = instant *)
  family : family option;  (** set on finished intervals with a latency *)
  args : (string * Json.t) list;
}

val of_iter : ((int -> Trace_event.t -> unit) -> unit) -> t list
(** [of_iter iter] pairs the events [iter] calls its argument on, as
    [f ts event] oldest first ([Trace_event.iter log] streams a log);
    output sorted by [ts]. *)
