(** Per-node garbage-collection state: stub and scion tables, mutator
    roots, and the FIFO bookkeeping of the scion cleaner (§3, §6.1).

    Tables are held per node per bunch — every cached copy of a bunch
    carries its own stub table and scion table (§3), which is what makes a
    replica collectable in isolation. *)

type node_state

type t

val create : proto:Bmx_dsm.Protocol.t -> t
val proto : t -> Bmx_dsm.Protocol.t
val stats : t -> Bmx_util.Stats.registry

val set_metrics : t -> Bmx_obs.Metrics.t -> unit
(** Attach a metrics registry for the occupancy gauges below. *)

val metrics : t -> Bmx_obs.Metrics.t option

val sample_node_gauges : t -> node:Bmx_util.Ids.Node.t -> unit(** Refresh the per-node occupancy gauges after a collection:
    [gc.heap.objects], [gc.heap.segments], [gc.stubs.inter/intra] and
    [gc.scion_table.inter/intra].  No-op without {!set_metrics}. *)

val sample_ssp_gauges : t -> node:Bmx_util.Ids.Node.t -> unit
(** Refresh just the stub/scion-table gauges (the cleaner calls this
    after pruning tables outside any collection). *)

val dirty_epoch : t -> node:Bmx_util.Ids.Node.t -> int
(** Composite mutation epoch of everything a local collection at [node]
    reads: store content, directory records/ownership/entering entries,
    GC roots and scion tables.  Monotone within a node's lifetime;
    deliberately NOT advanced by the bookkeeping a collection writes
    about itself (stub tables, exiting journals, broadcast bases), so a
    collection leaves the epoch where its own copies/reclaims put it. *)

val bgc_clean : t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> bool
(** Whether the epoch is unchanged since the end of the last recorded
    collection of [bunch] at [node] — in which case collecting again
    would recompute the identical live set, reclaim nothing, and
    rebroadcast identical tables. *)

val note_bgc_epoch :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> unit
(** Record the current epoch as the post-collection state of
    [bunch]@[node]; pairs with {!bgc_clean}. *)


val node_state : t -> Bmx_util.Ids.Node.t -> node_state
(** Created lazily per node. *)

val crash_node : t -> node:Bmx_util.Ids.Node.t -> unit
(** Drop the node's whole GC state (roots, SSP tables, cleaner
    freshness clocks, broadcast bookkeeping) — it died with the node's
    volatile memory.  The state regenerates lazily, empty. *)

(** {1 Mutator roots}

    The local root includes the mutator stacks (Figure 1). *)

val add_root : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit
val remove_root : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit
(** Removes one occurrence. *)

val roots : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t list
val set_roots : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t list -> unit

(** {1 Stub tables}

    A node's stub tables are filed by bunch: inter-bunch stubs under
    their source bunch, intra-bunch stubs under theirs.  Every query
    about one table, every table message and every receiver's mirror of
    it belongs to one (node, bunch) stream, so they key stubs by their
    {e edge} ({!Ssp.inter_edge}, {!Ssp.intra_edge}) and the stream
    supplies the rest of the match key ({!Ssp.inter_key_of_edge}).  That
    is exact only because an inter-bunch table holds nothing but stubs
    created at its node, which {!add_inter_stub} enforces. *)

val inter_stubs :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.inter_stub list

val intra_stubs :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.intra_stub list

val inter_stub_keys :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.inter_edge list
(** The table's distinct edges ({!Ssp.inter_stub_edge}), each once
    however many stubs share it, in no particular order — what a full
    reachability table ships.  One fold over the key counts. *)

val intra_stub_keys :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.intra_edge list

val inter_stub_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int
(** Stub records in the table, O(1). *)

val intra_stub_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int

val inter_key_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int
(** Distinct edges in the table (the length of {!inter_stub_keys}),
    O(1). *)

val intra_key_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int

val add_inter_stub : t -> node:Bmx_util.Ids.Node.t -> Ssp.inter_stub -> unit
(** Idempotent (duplicate stubs are suppressed).  Raises
    [Invalid_argument] unless the stub's [is_created_at] is [node]: no
    table message names a stub's holder, so receivers take it to be the
    sender. *)

val add_intra_stub : t -> node:Bmx_util.Ids.Node.t -> Ssp.intra_stub -> unit

val retain_stubs :
  t ->
  node:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  inter:(Ssp.inter_stub -> bool) ->
  intra:(Ssp.intra_stub -> bool) ->
  unit
(** Install the tables a BGC reconstructed (§4.3): keep exactly the
    stubs of [bunch] that satisfy the predicates, in their view order.
    Only the write barrier adds stubs, so the regenerated table is
    always a subset of the current one; the failures are dropped in
    place, and a key is journalled when its last stub goes.  Creates
    both (possibly empty) tables if absent. *)

(** {1 Scion tables} *)

val inter_scions :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.inter_scion list
(** Scions protecting objects of [bunch] at [node]. *)

val intra_scions :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.intra_scion list

val add_inter_scion : t -> node:Bmx_util.Ids.Node.t -> Ssp.inter_scion -> unit
(** Idempotent. *)

val add_intra_scion : t -> node:Bmx_util.Ids.Node.t -> Ssp.intra_scion -> unit

val remove_inter_scions_from :
  t -> node:Bmx_util.Ids.Node.t -> src:Bmx_util.Ids.Node.t
  -> (Ssp.inter_scion -> bool) -> int
(** Remove, across every target bunch at [node], the inter-bunch scions
    whose stub lives at [src] and that satisfy the predicate; returns how
    many.  Visits only [src]'s scions (by-node index), never whole
    tables. *)

val remove_intra_scions_from :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> src:Bmx_util.Ids.Node.t -> (Ssp.intra_scion -> bool) -> int
(** Same for the intra-bunch scions of [bunch] whose owner side is
    [src]. *)

(** {1 Indexed queries}

    O(1)-ish views over the secondary indexes; all return the same
    records the list accessors above would surface, without walking the
    full table. *)

val inter_stubs_with_src :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> uid:Bmx_util.Ids.Uid.t -> Ssp.inter_stub list
(** Inter-bunch stubs of [bunch] whose {e source} object is [uid] (the
    §5 invariant-3 write-transfer hook queries by source, not target). *)

val intra_stubs_for_uid :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> uid:Bmx_util.Ids.Uid.t -> Ssp.intra_stub list

val has_inter_scion :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> Ssp.inter_key -> bool
(** Does [node] hold a scion for [bunch] with this match key?  One hash
    lookup; allocates nothing. *)

(** {1 Broadcast destinations} *)

val last_broadcast_dests :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> Bmx_util.Ids.Node.t list
(** Where the previous reachability broadcast for the bunch went.  A
    resend after a loss must still reach peers whose scions the replaced
    tables no longer mention (§6.1's retransmission tolerance). *)

val record_broadcast_dests :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> Bmx_util.Ids.Node.t list -> unit

(** {1 Delta reachability tables (§6.1, PR 4)}

    The cleaner ships table {e diffs} instead of full tables whenever a
    destination is known to sit on the previous round's basis.  The
    sender side journals every edge whose table presence flipped since
    the last {!rebase_stub_journal}; {!stub_delta} materialises the
    diff (covering {e every} touched key, so it is correct against any
    mirror state reached between the journal base and now).  The journal
    is rebased after every broadcast round; bases chain per message —
    each message's transport seq is the basis the next delta on that
    stream names, and a mismatch (loss, restart) makes the receiver pull
    a resync over the unreliable [Stub_table] channel.  The receiver
    side keeps per-(sender, bunch) mirrors keyed by basis id, holding
    the same edges.

    The exiting-ownerPtr list (§4.3) is journalled per owner: an entry
    (uid, owner) says "I hold a live replica of uid and believe [owner]
    owns it", and only that owner reads it, so each destination is sent
    the uids of its own slot and nothing else. *)

type stub_delta = {
  sd_add_inter : Ssp.inter_edge list;
  sd_del_inter : Ssp.inter_edge list;
  sd_add_intra : Ssp.intra_edge list;
  sd_del_intra : Ssp.intra_edge list;
  sd_exiting_flips : int;
      (** exiting entries touched since the journal base, over every
          owner (what the full-vs-delta rule weighs) *)
}

val note_exiting :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> (Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t) list -> unit
(** Reflect the exiting-ownerPtr list the BGC just produced in the
    per-owner journal, in place: entries whose presence flips get marked
    touched, exactly like stub-table edges.  Call before {!stub_delta}. *)

val exiting_owners :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> Bmx_util.Ids.Node.t list
(** The owners the journalled list names, in no particular order.  Read
    before {!note_exiting}, these are the owners of the previous list. *)

val exiting_to :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> owner:Bmx_util.Ids.Node.t -> Bmx_util.Ids.Uid.t list
(** The journalled entries addressed to [owner], as bare uids: what a
    full or a resync pull carries to [owner].  One slot lookup. *)

val exiting_count_to :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> owner:Bmx_util.Ids.Node.t -> int
(** The length of {!exiting_to}, O(1). *)

val exiting_delta_to :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> owner:Bmx_util.Ids.Node.t -> Bmx_util.Ids.Uid.t list * Bmx_util.Ids.Uid.t list
(** [owner]'s entries touched since the journal base that are still
    present (adds) or now absent (dels): the exiting part of [owner]'s
    delta.  One slot lookup. *)

val current_exiting :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> (Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t) list
(** The whole journalled list, every owner's entries (introspection). *)

val stub_delta :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> stub_delta
(** Edges touched since the journal base that are still present (adds)
    or now absent (dels), and how many exiting entries flipped.  Does
    not clear the journal.  Working at edge granularity means a BGC
    rebuild that relocates targets but keeps the same edges contributes
    nothing. *)

val rebase_stub_journal :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> unit
(** Close the current broadcast round: clear the journal and advance
    {!broadcast_round}.  Call after every round's sends — the next
    round's deltas cover exactly one round of churn. *)

val broadcast_round :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int
(** How many broadcast rounds this bunch has completed at [node].
    Resets only when the node crashes (state dies with it). *)

val dest_basis :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> dest:Bmx_util.Ids.Node.t -> (int * int) option
(** The [(round, seq)] of the last table message sent to [dest] for
    [bunch] — [None] until a first send.  [dest] is eligible for a
    delta only if [round] is the round just before the current one
    (otherwise it missed a round and the journal no longer covers the
    gap). *)

val record_dest_basis :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> dest:Bmx_util.Ids.Node.t -> round:int -> basis:int -> unit

val mirror_reset :
  t ->
  node:Bmx_util.Ids.Node.t ->
  sender:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  basis:int ->
  inter:Ssp.inter_edge list ->
  intra:Ssp.intra_edge list ->
  exiting:Bmx_util.Ids.Uid.t list ->
  unit
(** Install a full table received from [sender] as the new mirror, with
    the sender's exiting entries addressed to [node].  The shipped edges
    go in as they are, so every mirror of one broadcast shares the
    sender's edge pairs. *)

val mirror_apply :
  t ->
  node:Bmx_util.Ids.Node.t ->
  sender:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  basis:int ->
  seq:int ->
  add_inter:Ssp.inter_edge list ->
  del_inter:Ssp.inter_edge list ->
  add_intra:Ssp.intra_edge list ->
  del_intra:Ssp.intra_edge list ->
  add_exiting:Bmx_util.Ids.Uid.t list ->
  del_exiting:Bmx_util.Ids.Uid.t list ->
  bool
(** Apply a delta and advance the mirror basis to [seq] (the transport
    seq that delivered it — the basis the sender's next delta names);
    [false] (and no change) if there is no mirror or its basis differs
    from [basis] — the caller must resync. *)

type mirror
(** [node]'s reassembly of one (sender, bunch) stream: the edge sets of
    the sender's stub tables and the uids of the sender's exiting
    entries addressed to [node].  An edge with the stream's sender and
    bunch is the global match key ({!Ssp.inter_key_of_edge},
    {!Ssp.intra_key_of_edge}). *)

val mirror :
  t -> node:Bmx_util.Ids.Node.t -> sender:Bmx_util.Ids.Node.t
  -> bunch:Bmx_util.Ids.Bunch.t -> mirror option

val mirror_has_inter : mirror -> Ssp.inter_edge -> bool
(** Does the mirrored table hold a stub with this edge (the cleaner's
    §6.1 deletion test for an inter-bunch scion of the mirror's stream,
    O(1))? *)

val mirror_has_intra : mirror -> Ssp.intra_edge -> bool

val mirror_has_exiting : mirror -> Bmx_util.Ids.Uid.t -> bool
(** Does the sender's exiting list name this object, with the mirror's
    node as its owner? *)

val mirror_iter_inter : mirror -> (Ssp.inter_edge -> unit) -> unit
val mirror_iter_intra : mirror -> (Ssp.intra_edge -> unit) -> unit
val mirror_iter_exiting : mirror -> (Bmx_util.Ids.Uid.t -> unit) -> unit
(** In no particular order; [f] must not change the mirror. *)

val mirror_claims_target :
  t -> node:Bmx_util.Ids.Node.t -> sender:Bmx_util.Ids.Node.t
  -> Bmx_util.Ids.Uid.t -> bool
(** Does {e any} table mirrored from [sender] (whatever its source
    bunch) still hold an inter-bunch stub targeting [uid]?  The entering
    reconciliation uses this as a keep-alive: after the scion side of an
    SSP dies with a crash, the recovered owner's only protection is a
    checkpoint-restored entering entry, and that entry must not be
    retired while the claimant's stub survives.  One lookup in a
    per-(sender, target) count of mirrored edges that {!mirror_reset}
    and {!mirror_apply} maintain; a crash wipes it with the mirrors. *)

(** {1 Scion-cleaner FIFO state (§6.1)} *)

val last_table_seq :
  t -> node:Bmx_util.Ids.Node.t -> sender:Bmx_util.Ids.Node.t
  -> bunch:Bmx_util.Ids.Bunch.t -> int option

val record_table_seq :
  t -> node:Bmx_util.Ids.Node.t -> sender:Bmx_util.Ids.Node.t
  -> bunch:Bmx_util.Ids.Bunch.t -> seq:int -> unit

(** {1 Introspection} *)

val bunches_with_tables : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Ids.Bunch.t list
val pp_node : t -> Format.formatter -> Bmx_util.Ids.Node.t -> unit
