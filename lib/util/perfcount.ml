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

type snapshot = {
  mutable s_memo_invalidations : int;
  mutable s_memo_resyncs : int;
  mutable s_reach_nodes_touched : int;
  mutable s_gc_objects_touched : int;
  mutable s_gc_table_entries : int;
  mutable s_gc_edges_inserted : int;
  mutable s_store_cells_touched : int;
  mutable s_flat_words_copied : int;
  mutable s_obs_sample_work : int;
  mutable s_gc_ns_trace : int;
  mutable s_gc_ns_flip : int;
  mutable s_gc_ns_copy : int;
  mutable s_gc_ns_scan : int;
  mutable s_gc_ns_reconcile : int;
  mutable s_gc_ns_recv_delta : int;
  mutable s_gc_ns_recv_full : int;
  mutable s_dsm_updates : int;
  mutable s_dsm_fields_forwarded : int;
  mutable s_dsm_copyset_visits : int;
}

let counters = {
  s_memo_invalidations = 0;
  s_memo_resyncs = 0;
  s_reach_nodes_touched = 0;
  s_gc_objects_touched = 0;
  s_gc_table_entries = 0;
  s_gc_edges_inserted = 0;
  s_store_cells_touched = 0;
  s_flat_words_copied = 0;
  s_obs_sample_work = 0;
  s_gc_ns_trace = 0;
  s_gc_ns_flip = 0;
  s_gc_ns_copy = 0;
  s_gc_ns_scan = 0;
  s_gc_ns_reconcile = 0;
  s_gc_ns_recv_delta = 0;
  s_gc_ns_recv_full = 0;
  s_dsm_updates = 0;
  s_dsm_fields_forwarded = 0;
  s_dsm_copyset_visits = 0;
}

(* A functional update with one field copies the whole record. *)
let snapshot () = { counters with s_memo_invalidations = counters.s_memo_invalidations }

let diff ~before ~after = {
  s_memo_invalidations = after.s_memo_invalidations - before.s_memo_invalidations;
  s_memo_resyncs = after.s_memo_resyncs - before.s_memo_resyncs;
  s_reach_nodes_touched = after.s_reach_nodes_touched - before.s_reach_nodes_touched;
  s_gc_objects_touched = after.s_gc_objects_touched - before.s_gc_objects_touched;
  s_gc_table_entries = after.s_gc_table_entries - before.s_gc_table_entries;
  s_gc_edges_inserted = after.s_gc_edges_inserted - before.s_gc_edges_inserted;
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
  s_dsm_updates = after.s_dsm_updates - before.s_dsm_updates;
  s_dsm_fields_forwarded = after.s_dsm_fields_forwarded - before.s_dsm_fields_forwarded;
  s_dsm_copyset_visits = after.s_dsm_copyset_visits - before.s_dsm_copyset_visits;
}
