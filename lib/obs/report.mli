(** End-of-run observability report.

    Combines a metrics registry snapshot with latency histograms derived
    from the span layer: every finished span with a {!Span.family} feeds
    its [latency.<family>] histogram ([latency.token_acquire.read],
    [latency.token_acquire.write], [latency.token_acquire.gc],
    [latency.gc.pause], [latency.msg.<kind>]), in virtual µsteps.

    The paper's non-interference claim (§5) is surfaced as the
    [gc.token_acquires] counter — the number of token acquisitions
    performed by the GC actor.  It must read 0; {!ok} says whether it
    does. *)

open Bmx_util

type t

val of_iter :
  metrics:Metrics.t -> ((int -> Trace_event.t -> unit) -> unit) -> t
(** Derives spans from the timed trace ({!Span.of_iter}; pass
    [Trace_event.iter log]), folds their durations into latency
    histograms {e inside [metrics]}, then snapshots it.  The
    [gc.token_acquires] counter is created (at zero) if no GC-actor
    acquire was ever recorded, so it appears in every report. *)

val of_events : metrics:Metrics.t -> (int * Trace_event.t) list -> t
(** {!of_iter} over a [(ts, event)] list, oldest first. *)

val spans : t -> Span.t list
val snapshot : t -> Metrics.snapshot

val gc_token_acquires : t -> int
val ok : t -> bool
(** [gc_token_acquires t = 0]. *)

val with_certified : t -> bool -> t
(** Attach the happens-before certifier's verdict ([Bmx_check.Races],
    computed by the caller — the observability layer does not depend on
    the checker).  Renders next to [gc.token_acquires] in {!to_text}. *)

val certified : t -> bool option
(** [None] when no certificate was attached. *)

val latency : t -> string -> Metrics.summary option
(** [latency t "token_acquire.read"] — the [latency.*] histogram. *)

val to_text : t -> string
(** Metrics table, latency percentile table, non-interference verdict. *)
