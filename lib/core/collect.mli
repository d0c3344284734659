(** The copying-collection engine shared by the BGC and the GGC (§4, §7).

    One invocation collects, at a single node, the local replicas of a set
    of bunches — a singleton for a bunch garbage collection, the
    locality-based group for a group collection ("the algorithm used by
    the GGC is identical to the one used by the BGC, only that it operates
    on a group of bunches", §7).

    The collection is strictly local and acquires no token:

    - roots are the local mutator stacks, the inter- and intra-bunch
      scions, and the entering ownerPtrs (§4.1);
    - locally-owned live objects are copied to a fresh to-space segment,
      leaving a forwarding header in from-space; non-owned live objects —
      possibly inconsistent copies — are merely scanned, which is safe
      because scanning a stale version only makes reachability more
      conservative (§4.2);
    - pointer fields of live local copies are rewritten through local
      forwarder chains without any token (§4.4);
    - the stub tables and exiting-ownerPtr lists are reconstructed (§4.3)
      and broadcast to the scion cleaners concerned (§6);
    - in group mode, inter-bunch scions whose stub lives inside the group
      at this node are {e not} roots, which is what lets intra-group
      cycles of garbage die (§7). *)

type report = {
  r_node : Bmx_util.Ids.Node.t;
  r_bunches : Bmx_util.Ids.Bunch.t list;
  r_roots : int;
      (** root entries fed to the trace (§4.1): mutator roots and entering
          ownerPtrs whose local copy lies in the collected bunches, plus
          every scion of those bunches that is a root (a uid protected by
          several scions counts once per scion) *)
  r_live : int;
  r_copied : int;  (** locally-owned objects evacuated *)
  r_scanned_in_place : int;
      (** live objects left where they are: the non-owned ones, and every
          live object of a collection that does not evacuate *)
  r_reclaimed : int;  (** dead local replicas removed *)
  r_ref_updates : int;  (** pointer fields rewritten through forwarders *)
  r_new_inter_stubs : int;
  r_new_intra_stubs : int;
  r_exiting : int;
  r_tables_sent : int;
      (** reachability tables handed to the network for scion cleaners
          (payloads, not wire messages) *)
}

val run :
  ?economical:bool ->
  Gc_state.t ->
  node:Bmx_util.Ids.Node.t ->
  bunches:Bmx_util.Ids.Bunch.t list ->
  group_mode:bool ->
  ?copy:bool ->
  unit ->
  report
(** Collect the local replicas of [bunches] at [node].  Never calls
    {!Bmx_dsm.Protocol.acquire} — the property experiments E5/E8 verify.

    [economical] (default [false]) evacuates only when it pays, as
    described at {!Bgc.run}; otherwise the collection sweeps its dead
    cells in place.

    [copy] (default [true]) selects the paper's copying collection; with
    [copy:false] live objects stay put (mark-and-sweep-style, the §9
    comparator and the §1 fragmentation ablation): dead objects are
    reclaimed and tables regenerated, but spaces are never evacuated, so
    segments can never be returned to the registry. *)
