(** The bunch garbage collector (§4).

    A BGC collects one local replica of one bunch, independently of any
    other bunch and of the other replicas of the same bunch.  Based on the
    concurrent compacting collector of O'Toole et al. (§4.1): small flip,
    no virtual-memory tricks, non-destructive copying. *)

val run :
  ?economical:bool -> Gc_state.t -> node:Bmx_util.Ids.Node.t
  -> bunch:Bmx_util.Ids.Bunch.t -> Collect.report
(** Collect the replica of [bunch] cached at [node].  Acquires no token
    and sends no synchronous message; the reconstructed reachability
    tables go out as background messages (deliver them with
    {!Bmx_netsim.Net.drain}).

    With [~economical:true] (default false), two costs are elided.  A
    pair whose {!Gc_state.dirty_epoch} is unchanged since its previous
    collection is skipped outright (counted under [gc.bgc.skipped_clean],
    an all-zero report).  And a collection evacuates only when it pays:
    when its trace found local garbage and the live bytes in the node's
    own allocation segments of the bunch are under 3/4 of the bytes
    allocated in them.  Otherwise the dead cells are swept in place,
    with no flip, forwarder or location update (counted under
    [gc.bgc.swept_in_place] when something was swept).  Holes from
    earlier sweeps stay allocated until an evacuation, so the pair's
    footprint stays within 4/3 of its live bytes plus one segment once
    {!Reclaim.run} has returned the from-space.  Liveness is
    unaffected: any mutation, received deletion or crash bumps the
    epoch and the next collection runs in full. *)
