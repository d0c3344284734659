(** From-space reuse (§4.5).

    After a local BGC, a from-space segment may still hold forwarding
    headers and live non-owned objects, so it cannot be recycled
    immediately.  To reuse or free it, the node (a) informs every node
    affected by the address changes recorded in the segment's forwarders,
    and (b) asks the owners of the remaining live objects to copy them out
    — then drops the segment wholesale.  Both the address-change messages
    and the copy requests are request/reply exchanges: §4.5 is explicit
    that the segment is reused only "once the local node receives the
    replies".  These are the collector's only synchronous round-trips,
    and they happen off the application's critical path.  All the
    bunch's from-space segments go together, in three walks of the store
    whatever their number. *)

type report = {
  q_segments_freed : int;
  q_bytes_freed : int;
  q_forwarders_dropped : int;
  q_copy_requests : int;  (** live non-owned objects evacuated by owners *)
  q_updates_broadcast : int;
      (** address-change exchanges acknowledged, one per replica holder *)
}

val run :
  Gc_state.t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> report
(** Free every from-space segment of the bunch's local replica.  Live
    copies land outside all of them.  @raise Failure, changing nothing,
    while a replica holder or owner is up but cut off. *)

val address_changes :
  Gc_state.t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t ->
  Bmx_dsm.Protocol.location_update list
(** The address changes the forwarders in those segments record, which
    {!run} sends every replica holder. *)
