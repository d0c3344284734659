(** Transactions over the weakly consistent DSM.

    §10 of the paper lists, as work in progress, "extending the current
    GC design to incorporate a weakly consistent distributed shared
    memory system with full support for transactions".  This module
    builds that layer on the primitives the paper already has:

    - {b isolation} comes from the entry-consistency tokens themselves,
      held in two-phase style: every object read or written inside a
      transaction keeps its token until commit or abort, so no other node
      can observe intermediate states (conflicting acquires fail, and the
      caller aborts and retries);
    - {b atomicity} of aborts comes from an undo log of before-images,
      restored under the still-held write tokens;
    - {b durability} (optional) comes from the RVM substrate (§2.1):
      [commit ~durable] logs the write-set into a recoverable store
      within one RVM transaction;
    - {b the collector needs no changes}: a BGC can run at any node in
      the middle of a transaction — it acquires no token, so it cannot
      block on, or be blocked by, transactional locks.  (The
      strongly-consistent baseline collector deadlocks against open
      transactions; see [test/test_txn.ml].)

    Writes go through the ordinary write barrier, so references created
    inside transactions get their SSPs immediately; an aborted
    transaction's allocations simply become garbage for the next BGC. *)

type t

type status = Active | Committed | Aborted

val status : t -> status

val begin_ : Bmx.Cluster.t -> node:Bmx_util.Ids.Node.t -> t
(** Start a transaction at [node]. *)

exception Conflict of string
(** A token needed by the transaction is held by another transaction. *)

val read : t -> Bmx_util.Addr.t -> int -> Bmx_memory.Value.t
(** Read a field, acquiring (and keeping) a read token for the object.
    Raises [Conflict] if the write token is held elsewhere, [Failure] if
    the transaction is not active. *)

val write : t -> Bmx_util.Addr.t -> int -> Bmx_memory.Value.t -> unit
(** Write a field through the write barrier, acquiring (and keeping) the
    write token and recording the before-image for abort. *)

val alloc :
  t -> bunch:Bmx_util.Ids.Bunch.t -> Bmx_memory.Value.t array -> Bmx_util.Addr.t
(** Allocate inside the transaction.  If the transaction aborts the
    object is left unreferenced and the next collection reclaims it. *)

val commit :
  ?durable:(Bmx_util.Addr.t * Bmx_memory.Heap_obj.image) Bmx_rvm.Rvm.t -> t -> unit
(** Make the transaction's effects visible: release every token.  With
    [durable], the write-set's after-images are first logged into the
    recoverable store within a single RVM transaction. *)

val abort : t -> unit
(** Restore every before-image (under the still-held write tokens), then
    release the tokens. *)

val read_set_size : t -> int
val write_set_size : t -> int
