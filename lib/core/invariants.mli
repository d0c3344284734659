(** GC-side enforcement of the §5 acquire-time invariants.

    Invariants 1 and 2 (valid addresses piggybacked on grants; forwarding
    of new-location information along copy-sets) are implemented inside
    {!Bmx_dsm.Protocol} because they only involve forwarding state the
    collector leaves in the stores.  Invariant 3 — "the acquisition of a
    write token completes only after all necessary intra-bunch SSPs have
    been created" — needs the collector's stub tables, so it is installed
    into the DSM as a hook by {!install}. *)

val install : Gc_state.t -> unit
(** Register the invariant-3 hook with the state's protocol. *)
