(** Hot-path work counters (the counter-instrumented build).

    Each subsystem bumps a field of {!counters} for every unit of work
    whose growth with heap size would make a per-op path superlinear:
    graph nodes visited by the driver's legality memo, objects touched by
    a collection, cells visited by whole-store iteration, work done while
    sampling gauges.  Increments are plain int stores — no allocation —
    so the counters stay on everywhere and the empirical-complexity tests
    (test_perf_model.ml) can assert per-op budgets.

    See HACKING.md "Performance" for the profiling recipe. *)

type snapshot = {
  mutable s_memo_invalidations : int;
      (** driver legality memo: removal epochs (root drops, edge
          overwrites) *)
  mutable s_memo_resyncs : int;  (** full mirror re-extractions *)
  mutable s_reach_nodes_touched : int;
      (** graph nodes visited by queries and rebuilds *)
  mutable s_gc_objects_touched : int;
      (** objects marked, copied or field-scanned by a collection *)
  mutable s_gc_table_entries : int;  (** stub/scion/exiting entries visited *)
  mutable s_gc_edges_inserted : int;
      (** edges put into a cleaner edge set: every edge a stub table's
          journal fold adds to its kept set (the first fold builds it),
          and every addition a receiver's delta makes to its own
          mirror *)
  mutable s_store_cells_touched : int;
      (** cells visited by whole-table store iteration *)
  mutable s_flat_words_copied : int;  (** raw words blitted by GC copies *)
  mutable s_obs_sample_work : int;
      (** cells/segments visited while sampling gauges *)
  mutable s_gc_ns_trace : int;
  mutable s_gc_ns_flip : int;
  mutable s_gc_ns_copy : int;
  mutable s_gc_ns_scan : int;
  mutable s_gc_ns_reconcile : int;
      (** [s_gc_ns_*]: processor-time nanoseconds spent in each
          collector phase (trace / flip / copy / scan /
          cleaner-reconcile), each the difference of two [Sys.time]
          reads (the process's CPU time, not wall clock) around the phase
          body.  These counters are the only record of phase time: no
          event or metrics histogram repeats them.
          [s_gc_ns_reconcile] holds collection-time table emission (with
          the sweep of the node's own scions) plus delivery-time cleaner
          receives, so the five phase counters never overlap. *)
  mutable s_gc_ns_recv_delta : int;
  mutable s_gc_ns_recv_full : int;
      (** [s_gc_ns_recv_*]: scion-cleaner receive processor time, read
          by [Sys.time] like the phase counters, split by path — deltas
          (empty ones included), and full tables and resyncs.  A
          breakdown of the delivery-time part of [s_gc_ns_reconcile],
          not extra phases. *)
  mutable s_dsm_updates : int;
      (** location updates a token grant or demand fetch ships (§4.4),
          counted after coalescing *)
  mutable s_dsm_fields_forwarded : int;
      (** fields a grant install rewrites through local forwarders *)
  mutable s_dsm_copyset_visits : int;
      (** copyset members a write acquire's partition pre-flight and
          invalidation walk visit *)
}

val counters : snapshot
(** The global instance.  Bump fields directly:
    [Perfcount.(counters.s_reach_nodes_touched <- counters.s_reach_nodes_touched + 1)]. *)

val snapshot : unit -> snapshot
(** A copy of {!counters}. *)

val diff : before:snapshot -> after:snapshot -> snapshot
