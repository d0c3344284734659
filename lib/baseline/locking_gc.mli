(** Baseline: a strongly consistent copying collector.

    This is the comparator the paper argues against (§9: Le Sergent's
    extension of a multiprocessor collector to DSM, where objects are kept
    strongly consistent and the collector locks objects while scanning and
    copying).  It reuses the same tracing engine as the BGC but first
    {b acquires the write token for every local object of the bunch},
    making all replicas single-copy before collecting:

    - every acquire is DSM traffic attributed to the collector
      ([dsm.gc.*] counters);
    - every write acquire invalidates all outstanding read copies —
      exactly the working-set disruption §4.2 warns about;
    - the collection stops being independent per replica: the cost at the
      collecting node grows with the replication degree (experiment E8).

    After the token sweep every live object is locally owned, so the
    ordinary engine copies all of them. *)

val run :
  Bmx_gc.Gc_state.t ->
  node:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  Bmx_gc.Collect.report
(** Collect the bunch at [node] the strongly-consistent way.  Raises like
    {!Bmx_dsm.Protocol.acquire} if some token is held. *)
