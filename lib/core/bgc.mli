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

    With [~economical:true] (default false), two provably-redundant
    costs are elided: a pair whose {!Gc_state.dirty_epoch} is unchanged
    since its previous collection is skipped outright (counted under
    [gc.bgc.skipped_clean], an all-zero report), and a collection whose
    trace finds nothing dead does not evacuate — relocating survivors
    with no from-space to reclaim only manufactures forwarder and
    location-update churn.  Liveness is unaffected: any mutation,
    received deletion or crash bumps the epoch and the next collection
    runs in full. *)
