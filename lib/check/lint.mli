(** The trace linter: replay a typed event log ({!Bmx_util.Trace_event})
    against the protocol state machine and report every violation of the
    GC/DSM non-interference contract.

    Checked rules (paper sections in brackets):

    - {b GC-never-acquires} (§5, central claim): no token acquisition is
      ever performed by the [Gc] actor — the collector works exclusively
      on local state and background messages.
    - {b Invariant 1} (§5): a token grant completes only after the
      acquiring node holds a valid local address for the object; when the
      grant piggybacked location updates, they were applied before the
      acquire returned.
    - {b Invariant 2} (§5): a node that installed fresh new-location
      information forwarded it to every node in its local copy-set for
      the object.
    - {b Invariant 3} (§5): every write grant that transfers ownership
      was preceded by the SSP-creation hook for that transfer.
    - {b FIFO} (§6.1): per (src, dst) stream, sent sequence numbers
      strictly increase and unreliable deliveries never run backwards
      (drops leave gaps, duplicates repeat a number — both legal).
    - {b Reliable FIFO}: messages on a reliable channel are handed to
      the handler strictly in send order, exactly once — retransmission
      and duplicate injection must never surface as a repeated or
      reordered hand-off.
    - {b Dead-node activity} (recovery): between a node's [Crash] and
      [Restart] events, the node performs no token operation, grants or
      receives no token (no token resurrects at a crashed node), starts
      no collection, and sends, relays or receives no background
      message.
    - {b Forwarder convergence} (§4.2, state check): no per-node
      forwarding-pointer chain contains a cycle — every chain reaches an
      object or dangles into reclaimed space after finitely many hops.
    - {b Completeness}: an overflowed (truncated) log cannot be
      certified.
    - {b Split-brain ownership} (partitions): no token is granted across
      a cut link, and no node adopts ownership of an object whose owner,
      as the protocol recorded it at adoption ([Owner_adopted]'s
      [prev]), is alive on the far side of a cut — healing must never
      reveal two owners.
    - {b Partition quarantine} (partitions): no message is delivered
      over a cut link, and the scion cleaner never processes
      reachability tables from a sender that is crashed or unreachable
      at processing time ([Tables_processed] is recorded only for
      accepted messages).
    - {b Checksum recovery} (storage faults): every injected disk fault
      ([Disk_fault]) is eventually acknowledged by an RVM recovery
      ([Rvm_recover]) at that node — damage is never silently ignored.
    - {b Shard ownership} (registry sharding): every segment range is
      carved by the owning node of its registry shard — a [Shard_alloc]
      applied by any other node is a registry mutation from a non-owning
      replica — and no node adopts a shard whose last trace-recorded
      owner is alive on the far side of a cut link.  Partial knowledge:
      the rule only fires when the trace recorded who owned the
      shard. *)

type rule =
  | Gc_acquired_token
  | Invariant1
  | Invariant2
  | Invariant3
  | Fifo_order
  | Reliable_fifo
  | Dead_node_activity
  | Forwarder_cycle
  | Incomplete_trace
  | Split_brain_ownership
  | Partition_quarantine
  | Checksum_recovery
  | Shard_ownership

type violation = {
  rule : rule;
  at : int;  (** index of the triggering event in the trace, [-1] when the
                 finding is not tied to one (truncation, store checks) *)
  vnode : int;  (** primary node involved, [-1] when none *)
  detail : string;
}

val rule_to_string : rule -> string
val violation_to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

val run : Bmx_util.Trace_event.t list -> violation list
(** Replay the log; empty result means every checked invariant held.
    Violations come sorted by trace position, then rule, node and text,
    without duplicates, whatever the hashtable iteration order. *)

val check_log : Bmx_util.Trace_event.log -> violation list
(** The rules of {!run}, decoding the log one event at a time (no event
    list is built), plus the truncation check. *)

val check_stores : Bmx_dsm.Protocol.t -> violation list
(** Forwarding-pointer acyclicity on every node's store. *)

val check_all : Bmx_dsm.Protocol.t -> violation list
(** {!check_log} on the protocol's event log plus {!check_stores}. *)
