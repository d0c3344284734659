(* Hot-path work counters (the "counter-instrumented build").

   Wall-clock profiles say *that* a configuration is slow; these counters
   say *why*: each subsystem bumps a named counter for every unit of work
   whose growth with heap size would make a per-op path superlinear.  The
   counters are plain mutable ints on a global record — one add and one
   store per bump, no allocation, no branching on an "enabled" flag — so
   they stay on in production builds and the complexity tests
   (test_perf_model.ml) can assert per-op work budgets mechanically.

   The profiling recipe lives in HACKING.md ("Performance"): snapshot,
   run a workload slice, diff, divide by ops, compare two heap sizes.
   Any counter whose per-op value grows with the heap is the superlinear
   path to kill. *)

type t = {
  (* driver legality memo (lib/workload/driver.ml + reach.ml) *)
  mutable memo_invalidations : int;  (* removal epochs: root drops, edge overwrites *)
  mutable memo_resyncs : int;  (* full mirror re-extractions from the cluster *)
  mutable reach_nodes_touched : int;  (* graph nodes visited by queries/rebuilds *)
  (* collector (lib/core/collect.ml) *)
  mutable gc_objects_touched : int;  (* objects marked, copied or field-scanned *)
  mutable gc_table_entries : int;  (* stub/scion/exiting entries visited *)
  (* memory (lib/memory/store.ml, flatheap.ml) *)
  mutable store_cells_touched : int;  (* cells visited by whole-table iteration *)
  mutable flat_words_copied : int;  (* raw words blitted by GC copies *)
  (* observability (lib/core/gc_state.ml, lib/obs/timeseries.ml) *)
  mutable obs_sample_work : int;  (* cells/segments visited while sampling gauges *)
  (* collector phase timers (lib/core/collect.ml, scion_cleaner.ml).
     Nanoseconds of wall clock per phase; a timer is two Sys.time reads
     around the phase body, so the fields stay plain mutable ints. *)
  mutable gc_ns_trace : int;  (* root enumeration + reachability trace *)
  mutable gc_ns_flip : int;  (* space flip / forwarding setup *)
  mutable gc_ns_copy : int;  (* live-object evacuation *)
  mutable gc_ns_scan : int;  (* reference update + reclamation scan *)
  mutable gc_ns_reconcile : int;  (* stub/scion table emission + cleaner merge *)
  (* Scion-cleaner receive time by path (lib/core/scion_cleaner.ml): a
     breakdown, not further phases — delivery-time receives are also in
     [gc_ns_reconcile], self hand-offs run inside a collection's
     cleaner-reconcile phase. *)
  mutable gc_ns_recv_delta : int;  (* deltas, empty ones included *)
  mutable gc_ns_recv_full : int;  (* full tables and resyncs *)
  mutable gc_ns_recv_self : int;  (* a node's hand-off of its own tables *)
}

let counters = {
  memo_invalidations = 0;
  memo_resyncs = 0;
  reach_nodes_touched = 0;
  gc_objects_touched = 0;
  gc_table_entries = 0;
  store_cells_touched = 0;
  flat_words_copied = 0;
  obs_sample_work = 0;
  gc_ns_trace = 0;
  gc_ns_flip = 0;
  gc_ns_copy = 0;
  gc_ns_scan = 0;
  gc_ns_reconcile = 0;
  gc_ns_recv_delta = 0;
  gc_ns_recv_full = 0;
  gc_ns_recv_self = 0;
}

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

let snapshot () = {
  s_memo_invalidations = counters.memo_invalidations;
  s_memo_resyncs = counters.memo_resyncs;
  s_reach_nodes_touched = counters.reach_nodes_touched;
  s_gc_objects_touched = counters.gc_objects_touched;
  s_gc_table_entries = counters.gc_table_entries;
  s_store_cells_touched = counters.store_cells_touched;
  s_flat_words_copied = counters.flat_words_copied;
  s_obs_sample_work = counters.obs_sample_work;
  s_gc_ns_trace = counters.gc_ns_trace;
  s_gc_ns_flip = counters.gc_ns_flip;
  s_gc_ns_copy = counters.gc_ns_copy;
  s_gc_ns_scan = counters.gc_ns_scan;
  s_gc_ns_reconcile = counters.gc_ns_reconcile;
  s_gc_ns_recv_delta = counters.gc_ns_recv_delta;
  s_gc_ns_recv_full = counters.gc_ns_recv_full;
  s_gc_ns_recv_self = counters.gc_ns_recv_self;
}

let diff ~before ~after = {
  s_memo_invalidations = after.s_memo_invalidations - before.s_memo_invalidations;
  s_memo_resyncs = after.s_memo_resyncs - before.s_memo_resyncs;
  s_reach_nodes_touched = after.s_reach_nodes_touched - before.s_reach_nodes_touched;
  s_gc_objects_touched = after.s_gc_objects_touched - before.s_gc_objects_touched;
  s_gc_table_entries = after.s_gc_table_entries - before.s_gc_table_entries;
  s_store_cells_touched = after.s_store_cells_touched - before.s_store_cells_touched;
  s_flat_words_copied = after.s_flat_words_copied - before.s_flat_words_copied;
  s_obs_sample_work = after.s_obs_sample_work - before.s_obs_sample_work;
  s_gc_ns_trace = after.s_gc_ns_trace - before.s_gc_ns_trace;
  s_gc_ns_flip = after.s_gc_ns_flip - before.s_gc_ns_flip;
  s_gc_ns_copy = after.s_gc_ns_copy - before.s_gc_ns_copy;
  s_gc_ns_scan = after.s_gc_ns_scan - before.s_gc_ns_scan;
  s_gc_ns_reconcile = after.s_gc_ns_reconcile - before.s_gc_ns_reconcile;
  s_gc_ns_recv_delta = after.s_gc_ns_recv_delta - before.s_gc_ns_recv_delta;
  s_gc_ns_recv_full = after.s_gc_ns_recv_full - before.s_gc_ns_recv_full;
  s_gc_ns_recv_self = after.s_gc_ns_recv_self - before.s_gc_ns_recv_self;
}
