(** The scion cleaner (§6).

    After a BGC reconstructs a bunch replica's stub table and exiting
    ownerPtr list (§4.3), the reachability information is sent to every
    node that either caches a copy of the same bunch or holds scions
    matching stubs of the old or new tables.  The cleaner at each
    receiver removes every scion no longer covered by a stub, and
    reconciles the entering ownerPtrs with the sender's exiting list —
    thereby updating the roots of the receiver's next BGC.

    A message carries either the {e complete} stub tables ([Full]) or
    a one-round diff ([Delta]) against a basis identified by the
    transport sequence number of the previous message on the same
    (sender, bunch, dest) stream — bases chain: each message's own seq
    becomes the next delta's basis.  A lost message (or a receiver
    restart) surfaces as a basis mismatch on the next delta and is
    healed by pulling the sender's current tables; a peer the sender
    knows missed a round gets a fresh full instead.  Duplicates are
    suppressed by the per-pair FIFO sequence numbers the network already
    stamps (§6.1), exactly as for full tables.  Both encodings carry
    stub edges ({!Ssp.inter_edge}, {!Ssp.intra_edge}), never stub
    records or whole match keys: a message names its stream
    ([tm_sender], [tm_bunch]) once, and that supplies every stub's
    holder and source bunch.  The receiver's coverage tests compare
    keys, and nothing reads a stub's address, target bunch or scion site
    off the wire.  The encoding relies on every inter-bunch table holding
    only stubs created at its node ({!Gc_state.add_inter_stub}).

    The exiting ownerPtrs ride the same encoding, addressed by owner:
    an entry is read only by the object's owner, so each destination's
    message carries only the entries naming it as owner, as bare uids —
    all of them in a full or a resync pull, its own flips in a delta —
    and the receiver's mirror reassembles that set before the entering
    reconciliation runs.  The choice between full and delta does not
    depend on the destination's share: it is made once per broadcast,
    from the whole table and the whole round's churn.

    {b Wire format.}  Every integer a message carries is an unsigned
    LEB128 varint ({!Bmx_util.Varint}): ids come from small counters, so
    most cost one to three bytes.  A message is its kind ([0] full, [1]
    delta), [tm_sender], [tm_bunch] and, for a delta, [db_basis]; then
    its sections in declaration order ([fb_inter], [fb_intra],
    [fb_exiting]; or [db_add_inter] through [db_del_exiting]), each its
    length followed by its entries.  A full's edge sections are
    gap-coded: each walks its set in order (inter edges target-major,
    intra edges uid-major) and writes every edge as two integers from
    the edge before it ({!Gc_state.Inter_edges.gap}), the first from
    (0, 0).  A delta's edge sections carry each edge as its two ids
    (source and target uid, or uid and scion holder), and every exiting
    section one uid per entry.  {!encode} writes exactly this,
    {!decode} reads it back and {!msg_bytes} is its length.  The send
    path never encodes: receivers get the OCaml value, and {!broadcast}
    prices each send from sums the tables keep, which must equal
    {!msg_bytes} of what it sent. *)

type delta = {
  db_basis : int;
      (** transport seq of the message this diff builds on *)
  db_add_inter : Ssp.inter_edge list;
  db_del_inter : Ssp.inter_edge list;
  db_add_intra : Ssp.intra_edge list;
  db_del_intra : Ssp.intra_edge list;
  db_add_exiting : Bmx_util.Ids.Uid.t list;
      (** the destination's exiting entries that flipped, as in
          [fb_exiting] *)
  db_del_exiting : Bmx_util.Ids.Uid.t list;
}

type table_body =
  | Full of {
      fb_inter : Gc_state.Inter_edges.t;
          (** the sender's distinct inter-bunch stub edges: the set its
              table keeps ({!Gc_state.inter_stub_keys}), which every full
              of a round carries *)
      fb_intra : Gc_state.Intra_edges.t;
      fb_exiting : Bmx_util.Ids.Uid.t list;
          (** the objects of the sender's exiting ownerPtrs whose owner,
              the sender believes, is the destination *)
    }
  | Delta of delta

type table_msg = {
  tm_sender : Bmx_util.Ids.Node.t;
  tm_bunch : Bmx_util.Ids.Bunch.t;
  tm_body : table_body;
}

val encode : table_msg -> Bytes.t
(** The message in the wire format above.  Raises [Invalid_argument] if
    any integer it carries is negative (so [Bmx_util.Ids.Node.invalid]
    never reaches the wire). *)

val decode : Bytes.t -> table_msg
(** The inverse of {!encode}: a full's edge sets come back as new sets
    with the same elements.  Raises [Invalid_argument] on an unknown
    kind, a truncated message, trailing bytes, or a full's edge that
    does not sort strictly after the one before it or whose ids would
    pass [max_int] ({!Gc_state.Inter_edges.of_gap}). *)

val msg_bytes : table_msg -> int
(** [Bytes.length (encode m)], walking the message without building
    it. *)

val receive : Gc_state.t -> at:Bmx_util.Ids.Node.t -> seq:int -> table_msg -> unit
(** Process one reachability message at node [at].  Stale or duplicated
    messages (sequence number not beyond the last processed for the same
    (sender, bunch) stream) are ignored. *)

val set_delivery_tap : (at:Bmx_util.Ids.Node.t -> table_msg -> unit) option -> unit
(** Observe every table message {!receive} gets, before it is
    processed: every table {!broadcast} sent, since a node reads its own
    tables without a message.  One tap for the whole process; [None]
    removes it.  For tests that compare what crossed the wire with what
    was accounted. *)

val destinations :
  Gc_state.t ->
  node:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  holders:Bmx_util.Ids.Node_set.t ->
  exiting:(Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t) list ->
  Bmx_util.Ids.Node.t list
(** The nodes a BGC's reachability information must reach (§4.1), in
    increasing order and without [node]: replicas of the bunch, the
    [holders] of the stubs before the collection replaced the tables
    ({!Gc_state.stub_holders}), and the owners the new exiting list
    names.  The replaced tables are a subset of the old ones, so their
    holders are among [holders]. *)

val broadcast :
  Gc_state.t ->
  node:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  holders:Bmx_util.Ids.Node_set.t ->
  exiting:(Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t) list ->
  int
(** Send the node's (already replaced) current tables for the bunch to
    all {!destinations} and to every destination of earlier rounds
    ([bs_dests], which the previous exiting list's owners are among) as
    background messages; returns the number of tables handed to the
    network, not wire messages: a table sent while the peer's previous
    one is still queued rides in that message ({!Bmx_netsim.Net.send}).
    A destination whose mirror sits on last round's basis gets a delta,
    unless the round is a full one (the periodic rebase, or the round's
    diff outgrew the table); every other destination (first contact, a
    missed round) gets a full table.  Re-running after a loss simply
    resends — the cumulative encoding keeps that safe.  No table goes to
    the node itself: after the sends, a round that deleted an
    inter-bunch edge drops the node's own inter scions whose stub's edge
    the table no longer holds ([gc.cleaner.inter_scions_removed], as a
    receiver's sweep counts).  A node holds no intra scion and no
    entering entry from itself, so there is nothing else of its own to
    reconcile.  Accounts, per send, the
    wire bytes under [tables.full_wire_bytes] or
    [tables.delta_wire_bytes] and [tables.full_bytes] (what a full
    table to that destination would have cost); a resync pull adds its
    RPC under [tables.resync_bytes].  [tables.delta_bytes] is the sum
    of the three: all stub-table bytes sent.  The same bytes are split
    by section under [tables.bytes.header] (kind, stream, basis and
    section lengths), [tables.bytes.inter], [tables.bytes.intra] and
    [tables.bytes.exiting] (the ids), which also add up to
    [tables.delta_bytes].  Every price is O(1) in the tables: it reads
    byte sums the stub tables and exiting slots keep, and the round's
    delta sums. *)
