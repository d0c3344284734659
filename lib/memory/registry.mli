(** The BMX-server's segment registry, sharded by address range.

    A BMX-server runs on every node and provides allocation of
    non-overlapping segments (§8).  The registry is the authority handing
    out address ranges, so no two segments — whether allocation spaces or
    to-spaces created by concurrent BGCs on different replicas — can ever
    collide.  This is what lets the owner of an object pick its new
    to-space address unilaterally (§4.2): the address is globally fresh by
    construction.

    To keep that authority from becoming a cluster-wide bottleneck, the
    address space is carved into fixed contiguous regions, one per shard:
    shard [k] covers [[first_lo + k*2^40, first_lo + (k+1)*2^40)], and a
    bunch allocates from shard [bunch mod shards].  Routing an address to
    its shard is O(1) arithmetic; the floor lookup that follows is local
    to the shard.  Each shard has an explicit owning node whose
    BMX-server holds the authoritative allocation cursor; the range index
    itself is a cluster-wide read cache that can never go stale, because
    ranges are immutable once carved — never freed, never moved.  So when
    a shard's owner crashes, lookups ([find], [bunch_of_addr]) keep
    answering and only new allocations to that shard fail, until the
    shard is recovered (its RVM journal replayed) or adopted by a
    survivor — see [Bmx.Persist]. *)

type entry = {
  range : Bmx_util.Addr.Range.t;
  bunch : Bmx_util.Ids.Bunch.t;
  origin : Bmx_util.Ids.Node.t;  (** node the range was handed to *)
}

type t

val create : ?shards:int -> ?first_addr:Bmx_util.Addr.t -> unit -> t
(** Ranges are carved sequentially per shard; shard 0's region starts at
    [first_addr] (default one page past null, so that null is never
    inside a segment).  [shards] defaults to 1, which behaves exactly
    like the unsharded registry.  All shards start owned by node 0 and
    up; see {!set_shard_owner}. *)

val alloc_range :
  t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  origin:Bmx_util.Ids.Node.t ->
  ?bytes:int ->
  unit ->
  Bmx_util.Addr.Range.t
(** A fresh, globally non-overlapping range ([bytes] defaults to
    {!Segment.default_bytes}), registered to [bunch] and carved from the
    shard [shard_of_bunch] routes to.  @raise Failure if that shard is
    down (owner crashed and not yet recovered) or its region is
    exhausted. *)

val entry_at : t -> Bmx_util.Addr.t -> entry
(** The entry whose range contains the address: O(1) shard routing plus
    a binary search over the shard's entries, sorted by [range.lo].
    Allocates nothing.  @raise Not_found if no range contains it. *)

val find : t -> Bmx_util.Addr.t -> entry option
(** {!entry_at} as an option. *)

val bunch_of_addr : t -> Bmx_util.Addr.t -> Bmx_util.Ids.Bunch.t option
(** The bunch of {!entry_at}, as an option. *)

val entries_of_bunch : t -> Bmx_util.Ids.Bunch.t -> entry list
(** All ranges registered to the bunch, oldest first. *)

val total_bytes : t -> int
(** Total address-space bytes handed out so far.  O(1): a maintained
    gauge, not a fold over segments. *)

(** {2 Shard topology} *)

val num_shards : t -> int

val shard_of_addr : t -> Bmx_util.Addr.t -> int option
(** O(1) arithmetic routing: the shard whose region contains the
    address, or [None] for addresses outside every region (e.g. null). *)

val shard_of_bunch : t -> Bmx_util.Ids.Bunch.t -> int
(** The shard a bunch allocates from: [bunch mod num_shards].
    Deterministic, so every node routes identically without
    coordination. *)

val shard_owner : t -> int -> Bmx_util.Ids.Node.t
val shard_up : t -> int -> bool

val shard_bytes : t -> int -> int
(** O(1) maintained gauge: bytes carved from this shard. *)

val shard_entries : t -> int -> entry list
(** Entries carved from this shard, ascending by [range.lo]. *)

(** {2 Shard ownership and crash/recovery}

    These only flip the availability/ownership state; the durable side
    (per-shard RVM journal, fsck, split-brain-safe adoption) lives in
    [Bmx.Persist] and [Bmx.Cluster], which drive these entry points. *)

val set_shard_owner : t -> int -> Bmx_util.Ids.Node.t -> unit
val crash_shard : t -> int -> unit
(** Mark the shard's allocation service unavailable.  The read cache
    stays: [find] keeps answering for already-carved ranges. *)

val revive_shard : t -> int -> unit

val restore_entry : t -> shard:int -> entry -> bool
(** Recovery replay: re-install a journaled entry idempotently and
    advance the shard's cursor past it.  Returns [true] if the entry was
    missing from the index and got re-installed, [false] if the cache
    already had it.  @raise Failure if the journal and the surviving
    index disagree about the range — that is corruption, not recovery. *)

val add_on_alloc : t -> (shard:int -> entry -> unit) -> unit
(** Hook fired after each successful [alloc_range], with the shard that
    carved the range.  Used by the persistence layer to journal the
    allocation (write-ahead at the owner) and by the cluster to trace
    it.  Hooks run in reverse registration order. *)
