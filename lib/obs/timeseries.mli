(** Virtual-time metric series over ring-buffered windows.

    Slices a run into fixed-width windows of virtual µsteps
    ({!Bmx_util.Trace_event} timestamps, {!Bmx_util.Trace_event.quantum}
    µsteps per [Net.now] tick) and keeps a bounded ring of them:
    counters and gauges sampled from a {!Metrics} registry at each
    window close, plus windowed reservoir histograms so p50/p99/p999
    are queryable over any interval.  The [latency.*] histograms come
    live from the typed event stream through {!Span}'s pairing, one per
    {!Span.family} — the same intervals {!Report} folds over the whole
    run.  The sampling path reads cached cell
    references — no snapshot lists — and charges
    [Perfcount.s_obs_sample_work] per column per close, keeping the
    observer effect allocation-bounded and heap-size-independent.

    Deterministic: reservoir evictions draw from a per-series
    deterministic {!Bmx_util.Rng}, so identical seeds yield identical
    series (and identical {!to_jsonl} output). *)

open Bmx_util

type t

type key = string * Ids.Node.t option

val create :
  ?window:int ->
  ?slots:int ->
  ?reservoir:int ->
  ?metrics:Metrics.t ->
  ?seed:int ->
  unit ->
  t
(** [window] is the width in virtual µsteps (default
    {!Bmx_util.Trace_event.quantum}, i.e. one [Net.now] tick); [slots]
    the ring capacity (default 512 windows — older windows are
    recycled); [reservoir] the per-window per-histogram sample cap
    (default 128). *)

val window : t -> int
val closed_windows : t -> int
(** Total windows closed so far (not capped by the ring). *)

(** {1 Feeding} *)

val attach : t -> Trace_event.log -> unit
(** Wire the series to a live run: taps the event log and, when a
    [metrics] registry was given, installs its sample observer.  Every
    event advances the clock; an end event that closes an interval
    samples its family's latency, and an end with no open begin samples
    nothing. *)

val note : t -> int -> unit
(** Advance virtual time without an event (e.g. from a [Net] tick hook);
    closes any windows the new timestamp has passed. *)

val observe : t -> int -> key -> float -> unit
(** Add a raw histogram sample at the given virtual time. *)

val freeze : t -> unit
(** Close the in-progress window and stop accepting input (also detaches
    the metrics observer).  Call before end-of-run reporting so exit-time
    bulk observes don't pollute the last window. *)

val on_window : t -> (t -> unit) -> unit
(** Callback run after every window close — the live dashboard hook. *)

(** {1 Queries} — intervals are half-open [\[since, until)] in µsteps. *)

val span : t -> (int * int) option
(** Virtual-time range still covered by the ring. *)

val counter_sum :
  t -> ?node:Ids.Node.t -> since:int -> until:int -> string -> int

val gauge_last :
  t -> ?node:Ids.Node.t -> since:int -> until:int -> string -> int option
(** Level at the close of the last window overlapping the interval. *)

val percentile :
  t -> ?node:Ids.Node.t -> since:int -> until:int -> string -> float -> float
(** Merge the reservoirs of every overlapping window and estimate with
    [Stats.Summary.nearest_rank], the rule behind
    [Stats.Summary.percentile] — exact whenever no window evicted. *)

val sample_count :
  t -> ?node:Ids.Node.t -> since:int -> until:int -> string -> int
(** Samples {e offered} (not merely retained) over the interval. *)

(** {1 Export} *)

val to_jsonl : t -> string
(** One JSON object per window (oldest first):
    [{"t0","t1","counters":[{"name","node"?,"v"}...],"gauges":[...],
    "histos":[{"name","node"?,"n","samples":[...]}]}].
    [bmxctl report --selfcheck] parses it back with {!Json.parse}. *)

val perfetto_counters : t -> Json.t list
(** Perfetto counter-track ("C") events, one per numeric column per
    window.  Merge into a trace via {!Perfetto.to_string}'s [?extra]. *)
