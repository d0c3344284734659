(** Per-node garbage-collection state: stub and scion tables, mutator
    roots, and both sides of the scion cleaner's table streams (§3, §6.1).

    Tables are held per node per bunch — every cached copy of a bunch
    carries its own stub table and scion table (§3), which is what makes a
    replica collectable in isolation. *)

type t

val create : proto:Bmx_dsm.Protocol.t -> t
val proto : t -> Bmx_dsm.Protocol.t
val stats : t -> Bmx_util.Stats.registry

val set_metrics : t -> Bmx_obs.Metrics.t -> unit
(** Attach a metrics registry for the occupancy gauges below. *)

val sample_node_gauges : t -> node:Bmx_util.Ids.Node.t -> unit
(** Refresh the per-node occupancy gauges after a collection:
    [gc.heap.objects], [gc.heap.segments], [gc.stubs.inter/intra] and
    [gc.scion_table.inter/intra].  No-op without {!set_metrics}. *)

val sample_ssp_gauges : t -> node:Bmx_util.Ids.Node.t -> unit
(** Refresh just the stub/scion-table gauges (the cleaner calls this
    after pruning tables outside any collection). *)

val bgc_clean : t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> bool
(** Whether [node]'s dirtiness epoch is unchanged since the end of the
    last recorded collection of [bunch] there — in which case collecting
    again would recompute the identical live set, reclaim nothing, and
    rebroadcast identical tables.  The epoch composes everything a local
    collection reads: store content, directory records/ownership/entering
    entries, GC roots and scion tables.  It is monotone within a node's
    lifetime and deliberately NOT advanced by the bookkeeping a
    collection writes about itself (stub tables, exiting journals,
    broadcast records), so a collection leaves the epoch where its own
    copies/reclaims put it. *)

val note_bgc_epoch :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> unit
(** Record the current epoch as the post-collection state of
    [bunch]@[node]; pairs with {!bgc_clean}. *)

val crash_node : t -> node:Bmx_util.Ids.Node.t -> unit
(** Drop the node's whole GC state (roots, SSP tables, both sides of
    every cleaner stream) — it died with the node's volatile memory.
    The state regenerates lazily, empty; other nodes' mirrors keep the
    edge sets they shared with it. *)

(** {1 Mutator roots}

    The local root includes the mutator stacks (Figure 1). *)

val add_root : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit

val remove_root : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> bool
(** Removes the newest occurrence of the address, and says whether
    there was one.  O(1): the list sheds it at the next {!roots}. *)

val roots : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t list
(** The roots, a multiset, newest first. *)

val set_roots : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t list -> unit

val forward_roots : t -> node:Bmx_util.Ids.Node.t -> unit
(** Rewrite each root to the {!Bmx_memory.Store.current_addr} of its
    target at the node (§4.4, no token): the collector's reference
    update and from-space reuse both run it. *)

(** {1 SSP tables}

    Each stub or scion table is the set of its entries and one index:
    stub tables file their entries by uid (an inter-bunch stub's source
    object, an intra-bunch stub's object), scion tables by the stub
    side's node.  Adds are idempotent, and a table keeps no order: the
    list accessors return the entries in no particular order, and the
    collector and the cleaner iterate or count instead.

    {2 Stub tables}

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
(** The table's stubs, unordered: one fold over the table. *)

val intra_stubs :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.intra_stub list

val stub_holders :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> Bmx_util.Ids.Node_set.t
(** Where the scions matching the node's stubs of [bunch] live: every
    inter-bunch stub's [is_scion_at] and every intra-bunch stub's
    [ns_holder].  A collection reads it before {!retain_stubs}, so its
    tables reach every holder of a stub it drops. *)

(** {2 Edge sets}

    A full ships, and a mirror holds, a table's distinct edges as an
    immutable set ordered by a {e major} id, then a {e minor} one: the
    target, then the source, for an inter-bunch edge (source, target);
    the uid, then the holder, for an intra-bunch edge (uid, holder).  On
    the wire a full walks each set in that order and writes every edge
    as two unsigned integers relative to the edge before it, the first
    edge relative to (0, 0): the major id's difference, then the minor
    id's difference when the major ids are equal and the minor id itself
    otherwise.  In set order neither is negative, so ids up to [max_int]
    encode. *)

module Inter_edges : sig
  include Set.S with type elt = Ssp.inter_edge
  (** Ordered by target uid, then source uid. *)

  val gap : prev:elt -> elt -> (int -> int -> 'a) -> 'a
  (** [gap ~prev e k] passes [k] the two wire integers of [e], which
      follows [prev] in its section ((0, 0) for the first edge).  The
      one statement of the rule: the encoding and every byte sum that
      prices a full call it. *)

  val of_gap : prev:elt -> first:bool -> int -> int -> elt
  (** The edge after [prev] whose wire integers are the two given,
      rebuilt by addition; [first] says it opens its section.  Raises
      [Invalid_argument] if it would not sort strictly after [prev]
      (both integers 0, past the first edge) or an id would pass
      [max_int]. *)
end

module Intra_edges : sig
  include Set.S with type elt = Ssp.intra_edge
  (** Ordered by uid, then holder. *)

  val gap : prev:elt -> elt -> (int -> int -> 'a) -> 'a
  val of_gap : prev:elt -> first:bool -> int -> int -> elt
end

val inter_stub_keys :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Inter_edges.t
(** The table's distinct edges ({!Ssp.inter_stub_edge}): the set the
    table keeps, which a full reachability table and a resync pull ship
    as it is.  An edge whose record count flips between 0 and 1 is only
    journalled; a read (and {!rebase_stub_journal}) first folds the
    edges journalled since the last read into the set, O(log n) each.
    The first fold, into the empty set, sorts the edge counts once
    instead, and a read with no flip since the last is O(1).  Every
    edge put into the set is charged to
    [Perfcount.s_gc_edges_inserted]. *)

val intra_stub_keys :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Intra_edges.t

val inter_stub_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int
(** Stub records in the table, O(1). *)

val intra_stub_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int

val inter_key_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int
(** Distinct edges in the table (the size of {!inter_stub_keys}),
    O(1). *)

val intra_key_count :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int

val edge_bytes : int * int -> int
(** What one stub edge, inter- or intra-bunch, weighs in a delta: its
    two ids as {!Bmx_util.Varint}s. *)

val inter_key_bytes :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> int
(** The {!Bmx_util.Varint} bytes of {!inter_stub_keys} written in order
    as {!Inter_edges.gap} integers: a full's inter-bunch edges on the
    wire.  Kept with the set: each edge the fold puts in or takes out
    moves it by what the edge costs between its neighbours. *)

val intra_key_bytes :
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
    stubs of [bunch] that satisfy the predicates.  Only the write
    barrier adds stubs, so the regenerated table is always a subset of
    the current one; the failures are gathered, then dropped in place,
    and a key is journalled when its last stub goes.  Creates both
    (possibly empty) tables if absent. *)

(** {2 Scion tables}

    Filed by target bunch.  Within one table a scion is its match key
    plus that bunch, so the member set answers every key query. *)

val inter_scions :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.inter_scion list
(** Scions protecting objects of [bunch] at [node], unordered. *)

val intra_scions :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> Ssp.intra_scion list

val iter_inter_scions :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> (Ssp.inter_scion -> unit) -> unit
(** {!inter_scions} without the list; [f] must not change the table. *)

val iter_intra_scions :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> (Ssp.intra_scion -> unit) -> unit

val holds_ssps : t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> bool
(** Does [node] hold a scion of either kind for [bunch], or an
    inter-bunch stub of it?  Three table lookups; allocates nothing. *)

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

(** {2 Indexed queries}

    One index bucket each: the same records the list accessors above
    would surface, without walking the table. *)

val inter_stubs_with_src :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> uid:Bmx_util.Ids.Uid.t -> Ssp.inter_stub list
(** Inter-bunch stubs of [bunch] whose {e source} object is [uid] (the
    §5 invariant-3 write-transfer hook queries by source, not target). *)

val intra_stubs_for_uid :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> uid:Bmx_util.Ids.Uid.t -> Ssp.intra_stub list

val holds_inter_stub_with_src :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> uid:Bmx_util.Ids.Uid.t -> bool
(** Whether {!inter_stubs_with_src} is non-empty: one index probe, no
    allocation. *)

val holds_intra_stub_for_uid :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> uid:Bmx_util.Ids.Uid.t -> bool
(** Whether {!intra_stubs_for_uid} is non-empty: one index probe, no
    allocation. *)

val has_inter_scion : t -> node:Bmx_util.Ids.Node.t -> Ssp.inter_scion -> bool
(** Does [node] hold this scion?  One hash lookup in the table of its
    [xs_target_bunch]; allocates nothing. *)

(** {1 Cleaner streams (§6.1)}

    A node sends its reachability tables for a bunch to every peer that
    needs them; each (sender, bunch) pair is one stream per destination.
    A stream has one record on each side: the sender's
    {!broadcast_state} for the bunch, shared by its destinations, and
    each receiver's {!mirror}.

    The cleaner ships table {e diffs} instead of full tables whenever a
    destination is known to sit on the previous round's basis.  The
    sender journals every edge whose table presence flipped since the
    last {!rebase_stub_journal}; {!stub_delta} materialises the diff
    (covering {e every} touched key, so it is correct against any
    mirror state reached between the journal base and now).  The journal
    is rebased after every broadcast round; bases chain per message —
    each message's transport seq is the basis the next delta on that
    stream names, and a mismatch (loss, restart) makes the receiver pull
    a resync over the unreliable [Stub_table] channel.

    {b Resync basis rule.}  A pull observes the sender's current tables,
    which are the tables of its latest send to the receiver (tables
    change only at a BGC, which broadcasts at once).  So a resynced
    mirror's basis is that send's seq ([bs_sent]), never the triggering
    message's own seq.  An older delta still in flight then names a
    basis the mirror does not sit on and resyncs again; with the
    trigger's seq as basis, the next one would be applied on top of the
    newer tables.

    The exiting-ownerPtr list (§4.3) is journalled per owner: an entry
    (uid, owner) says "I hold a live replica of uid and believe [owner]
    owns it", and only that owner reads it, so each destination is sent
    the uids of its own slot and nothing else. *)

type exiting_slot
(** One owner's share of a bunch's exiting-ownerPtr journal. *)

type broadcast_state = {
  mutable bs_round : int;
      (** broadcast rounds completed; {!rebase_stub_journal} advances it *)
  mutable bs_dests : Bmx_util.Ids.Node.t list;
      (** where the previous round went.  A resend after a loss must
          still reach peers whose scions the replaced tables no longer
          mention (§6.1's retransmission tolerance). *)
  bs_sent : (int * int) Bmx_util.Ids.Node_tbl.t;
      (** per destination, the [(round, seq)] of the last table message
          sent to it.  The destination is eligible for a delta only if
          [round] is the round just before the current one: otherwise it
          missed a round, and the journal no longer covers the gap. *)
  bs_exiting : exiting_slot Bmx_util.Ids.Node_tbl.t;  (** by owner *)
}
(** The sender side of a bunch's streams at one node. *)

val broadcast_state :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> broadcast_state
(** Created lazily, empty. *)

val find_broadcast_state :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> broadcast_state
(** {!broadcast_state} without creating one: raises [Not_found] if there
    is none. *)

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
  broadcast_state -> (Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t) list -> unit
(** Reflect the exiting-ownerPtr list the BGC just produced in the
    per-owner journal, in place: entries whose presence flips get marked
    touched, exactly like stub-table edges.  Call before {!stub_delta}. *)

val exiting_to : broadcast_state -> owner:Bmx_util.Ids.Node.t -> Bmx_util.Ids.Uid.t list
(** The journalled entries addressed to [owner], as bare uids: what a
    full or a resync pull carries to [owner].  One slot lookup. *)

val exiting_count_to : broadcast_state -> owner:Bmx_util.Ids.Node.t -> int
(** The length of {!exiting_to}, O(1). *)

val exiting_bytes_to : broadcast_state -> owner:Bmx_util.Ids.Node.t -> int
(** The uids of {!exiting_to} as {!Bmx_util.Varint}s, summed; O(1), kept
    up to date by {!note_exiting}. *)

val exiting_delta_to :
  broadcast_state -> owner:Bmx_util.Ids.Node.t
  -> Bmx_util.Ids.Uid.t list * Bmx_util.Ids.Uid.t list
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
(** Close the current broadcast round: fold the journal into the kept
    edge sets ({!inter_stub_keys}), clear it and advance [bs_round].
    Call after every round's sends — the next round's deltas cover
    exactly one round of churn. *)

type mirror
(** The receiver side of one stream: [node]'s reassembly of the
    (sender, bunch) tables — the edge sets of the sender's stub tables
    and the uids of the sender's exiting entries addressed to [node] —
    with the stream's freshness clock and delta basis.  An edge with the
    stream's sender and bunch is the global match key
    ({!Ssp.inter_key_of_edge}, {!Ssp.intra_key_of_edge}).  The sender is
    always another node: a node reads its own tables directly. *)

val mirror :
  t -> node:Bmx_util.Ids.Node.t -> sender:Bmx_util.Ids.Node.t
  -> bunch:Bmx_util.Ids.Bunch.t -> mirror
(** Raises [Not_found] if [node] mirrors no such stream. *)

val mirror_seq : mirror -> int
(** The transport seq of the last message processed on the stream: the
    cleaner's per-(sender, bunch) freshness clock (§6.1).  A message at
    or below it is stale. *)

val mirror_reset :
  t ->
  node:Bmx_util.Ids.Node.t ->
  sender:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  seq:int ->
  basis:int ->
  inter:Inter_edges.t ->
  intra:Intra_edges.t ->
  exiting:Bmx_util.Ids.Uid.t list ->
  unit
(** Install the sender's tables, as message [seq] delivered them, as the
    new mirror with the sender's exiting entries addressed to [node]: a
    full table ([basis] = [seq]) or a resync pull ([basis] by the resync
    basis rule above).  It stores the shipped sets and copies no edge,
    so every receiver of one round's fulls shares the sender's sets. *)

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
(** Apply a delta and advance the mirror's seq and basis to [seq] (the
    transport seq that delivered it — the basis the sender's next delta
    names); [false] (and no change) if there is no mirror or its basis
    differs from [basis] — the caller must resync.  The new sets are
    this mirror's alone; each addition is charged to
    [Perfcount.s_gc_edges_inserted]. *)

val mirror_has_inter : mirror -> Ssp.inter_edge -> bool
(** Does the mirrored table hold a stub with this edge (the cleaner's
    §6.1 deletion test for an inter-bunch scion of the mirror's stream,
    one ordered lookup)? *)

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
  -> bunch:Bmx_util.Ids.Bunch.t -> Bmx_util.Ids.Uid.t -> bool
(** Does {e any} table mirrored from [sender] (whatever its source
    bunch) still hold an inter-bunch stub targeting [uid], an object of
    [bunch]?  The entering reconciliation uses this as a keep-alive:
    after the scion side of an SSP dies with a crash, the recovered
    owner's only protection is a checkpoint-restored entering entry, and
    that entry must not be retired while the claimant's stub survives.
    One ordered lookup in each of [sender]'s mirrors at [node]
    ({!Inter_edges} is target-major), each charged to
    [Perfcount.s_gc_table_entries], and none in the mirror of [bunch]
    itself: an inter-bunch stub is filed only when its target lies in
    another bunch than its source, so that mirror targets nothing in
    [bunch]. *)

val words_held : t -> (string * int) list
(** Words reachable from every node's mirrors, stub tables, scion
    tables and broadcast records, one row per kind and a last row for
    all four: what nodes or kinds share counts once within a row.  Walks
    all of it; for diagnostics. *)
