(** Hot-path work counters (the counter-instrumented build).

    Each subsystem bumps a field of {!counters} for every unit of work
    whose growth with heap size would make a per-op path superlinear:
    graph nodes visited by the driver's legality memo, objects touched by
    a collection, cells visited by whole-store iteration, work done while
    sampling gauges.  Increments are plain int stores — no allocation —
    so the counters stay on everywhere and the empirical-complexity tests
    (test_perf_model.ml) can assert per-op budgets.

    See HACKING.md "Performance" for the profiling recipe. *)

type t = {
  mutable memo_invalidations : int;
  mutable memo_resyncs : int;
  mutable reach_nodes_touched : int;
  mutable gc_objects_touched : int;
  mutable gc_table_entries : int;
  mutable store_cells_touched : int;
  mutable flat_words_copied : int;
  mutable obs_sample_work : int;
  mutable gc_ns_trace : int;
  mutable gc_ns_flip : int;
  mutable gc_ns_copy : int;
  mutable gc_ns_scan : int;
  mutable gc_ns_reconcile : int;
      (** [gc_ns_*]: wall-clock nanoseconds spent in each collector phase
          (trace / flip / copy / scan / cleaner-reconcile) — the
          metrics-backed replacement for the old BMX_GC_PHASE_TIMING
          stderr hack.  [gc_ns_reconcile] holds collection-time table
          emission (self hand-offs included) plus delivery-time cleaner
          receives, so the five phase counters never overlap. *)
  mutable gc_ns_recv_delta : int;
  mutable gc_ns_recv_full : int;
  mutable gc_ns_recv_self : int;
      (** [gc_ns_recv_*]: scion-cleaner receive time split by path —
          deltas (empty ones included), full tables and resyncs, and a
          node's hand-off of its own tables.  A breakdown of time already
          inside [gc_ns_reconcile], not extra phases. *)
}

val counters : t
(** The global instance.  Bump fields directly:
    [Perfcount.(counters.reach_nodes_touched <- counters.reach_nodes_touched + 1)]. *)

type snapshot = {
  s_memo_invalidations : int;
  s_memo_resyncs : int;
  s_reach_nodes_touched : int;
  s_gc_objects_touched : int;
  s_gc_table_entries : int;
  s_store_cells_touched : int;
  s_flat_words_copied : int;
  s_obs_sample_work : int;
  s_gc_ns_trace : int;
  s_gc_ns_flip : int;
  s_gc_ns_copy : int;
  s_gc_ns_scan : int;
  s_gc_ns_reconcile : int;
  s_gc_ns_recv_delta : int;
  s_gc_ns_recv_full : int;
  s_gc_ns_recv_self : int;
}

val snapshot : unit -> snapshot
val diff : before:snapshot -> after:snapshot -> snapshot
