(** Typed metrics registry with per-node labels.

    Supersedes the stringly [Stats.incr] registry for new code: every
    metric has a kind (counter, gauge, or virtual-time histogram) and an
    optional node label, so reports can aggregate per node or cluster
    wide without parsing names.  Time-valued histograms are in
    virtual-clock units (the µstep timestamps of {!Bmx_util.Trace_event},
    {!Bmx_util.Trace_event.quantum} µsteps per [Net.now] tick).

    Gauges come in two flavours: [set_gauge] stores the value pushed by
    the instrumented site, while [gauge_fn] registers a callback sampled
    lazily at {!snapshot} time — the right choice for occupancy numbers
    (heap objects, unacked messages) where polling beats hot-path
    updates. *)

open Bmx_util

type t

val create : unit -> t

(** {1 Recording} *)

val incr : t -> ?node:Ids.Node.t -> ?by:int -> string -> unit
(** Bump a counter (created at zero on first use). *)

val counter_cell : t -> ?node:Ids.Node.t -> string -> int ref
(** The counter's cell, registered at zero if absent, exactly as
    {!incr} registers it.  Adding to the returned ref is {!incr} without
    the lookup: a hot path fetches the cell the first time it would
    have called {!incr} — so registration order, and with it the
    sampler's columns, stay the same — and bumps the cached ref after
    that.  The cell lives as long as the registry.
    @raise Invalid_argument if the name is registered as another kind. *)

val set_gauge : t -> ?node:Ids.Node.t -> string -> int -> unit

val gauge_fn : t -> ?node:Ids.Node.t -> string -> (unit -> int) -> unit
(** Register a callback gauge, sampled at snapshot time.  Re-registering
    the same name/node replaces the callback. *)

val observe : t -> ?node:Ids.Node.t -> string -> float -> unit
(** Add a sample to a histogram (created on first use, with a seed
    derived from the name and node so runs are deterministic). *)

(** {1 Continuous sampling}

    The periodic sampler ({!Timeseries}) must not rebuild association
    lists per window, so instead of {!snapshot} it caches direct cell
    references obtained from {!sources} and refreshes the cache only
    when {!generation} moves (a new cell was registered).  Raw histogram
    samples reach it live through {!set_observer}. *)

val generation : t -> int
(** Bumped each time a new cell (any kind) is registered. *)

type source =
  | S_counter of int ref
  | S_gauge of int ref
  | S_gauge_fn of (unit -> int) ref

val sources : t -> ((string * Ids.Node.t option) * source) list
(** Direct references to every counter/gauge cell, unsorted; histograms
    are excluded (their raw samples flow through the observer).  Reading
    through the returned refs allocates nothing. *)

val set_observer :
  t -> (string -> Ids.Node.t option -> float -> unit) option -> unit
(** Install (or clear) the live histogram-sample observer, called as
    [f name node sample] on every {!observe}.  At most one observer. *)

(** {1 Snapshots} *)

type summary = {
  s_count : int;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of summary

type snapshot = ((string * Ids.Node.t option) * value) list
(** Sorted by name, then unlabelled before labelled, then node id. *)

val snapshot : t -> snapshot
(** Callback gauges are sampled now; a callback that raises yields a
    gauge of 0 rather than poisoning the snapshot. *)

val get : snapshot -> ?node:Ids.Node.t -> string -> value option

val counter_total : snapshot -> string -> int
(** Sum of a counter over every label (0 if absent). *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter deltas ([after - before]); gauges and histograms are taken
    from [after] as-is (they are levels, not flows). *)

(** {1 Export} *)

val to_text : snapshot -> string
(** Human-readable table, one metric per line. *)

val to_json : snapshot -> Json.t
(** A JSON array of [{name, node?, kind, ...}] objects. *)
