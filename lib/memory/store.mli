(** A node's view of the shared address space.

    Every node caches copies of the objects it has mapped; the same global
    address resolves, on each node, to that node's local copy (or to a
    forwarding header left by a BGC, §4.2).  The store also owns the node's
    local [Segment] views — object-map and reference-map state is
    per-replica, since replicas of a bunch are collected independently. *)

type cell =
  | Object of Heap_obj.t  (** a local copy of the object at this address *)
  | Forwarder of Bmx_util.Addr.t
      (** header left in from-space after a copy: "a forwarding pointer is
          written into the object's header, which is left in from-space"
          (§4.2) *)

type t

val create : registry:Registry.t -> node:Bmx_util.Ids.Node.t -> t

val arena : t -> Flatheap.t
(** The flat arena backing this store's own allocations.  Objects shipped
    to another node are cloned into the {e receiver}'s arena
    ([Heap_obj.clone ~heap]); a store's cells may still reference foreign
    arenas transiently.  Slots are released when the last cell referring
    to them is removed or forwarded — holding a [Heap_obj.t] across such
    an event and then using it raises (the slot generation check). *)

val alloc :
  ?version:int ->
  t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  uid:Bmx_util.Ids.Uid.t ->
  fields:Value.t array ->
  Bmx_util.Addr.t
(** Allocate a new object in the node's active segment for [bunch],
    growing the bunch with a fresh registry range on segment overflow.
    Reference-map bits are set for pointer fields.  [version] (default
    0) seeds the object's write counter — GC copies pass the source's
    so the copy is not mistaken for a write. *)

val alloc_clone :
  t -> seg:Segment.t -> of_:Heap_obj.t -> Bmx_util.Addr.t option
(** Copy an existing object (same uid, bunch taken from the source, fields
    and version blitted raw) into [seg] and this store's arena — the
    collectors' copy primitive; no boxed field array is materialized. *)

val find_segment : t -> Bmx_util.Addr.t -> Segment.t
(** The local segment view containing the address: the registry's
    {!Registry.entry_at} and one hash lookup.  Allocates nothing.
    @raise Not_found if the address is in no locally mapped segment. *)

val segment_at : t -> Bmx_util.Addr.t -> Segment.t option
(** {!find_segment} as an option. *)

val fresh_segment :
  t -> bunch:Bmx_util.Ids.Bunch.t -> ?bytes:int -> unit -> Segment.t
(** Allocate a brand-new range from the registry and map it locally. *)

val segments_of_bunch : t -> Bmx_util.Ids.Bunch.t -> Segment.t list
(** Locally mapped segments of the bunch, oldest first. *)

val active_segment : t -> bunch:Bmx_util.Ids.Bunch.t -> Segment.t
(** The segment {!alloc} tries first: possibly full, and a from-space
    after a collection that copied nothing. *)

val set_active_segment : t -> bunch:Bmx_util.Ids.Bunch.t -> Segment.t -> unit
(** Make [seg] the bunch's current allocation target (a BGC retargets
    allocation at the to-space after a flip). *)

val mapped_bunches : t -> Bmx_util.Ids.Bunch.t list

val cell : t -> Bmx_util.Addr.t -> cell option

val install : t -> Bmx_util.Addr.t -> Heap_obj.t -> unit
(** Bind the address to a local object copy (token grant, GC copy, or
    address-update installation).  Maintains the segment maps. *)

val overwrite : t -> Bmx_util.Addr.t -> from:Heap_obj.t -> Heap_obj.t
(** Write [from]'s fields and version into the copy of the same object
    at exactly this address, and return that copy: the state
    [install t a (Heap_obj.clone from)] would leave, without claiming a
    new arena slot (a token grant to a node whose stale copy sits at the
    granted address).  Touches {!mut_version} once and re-notes the
    segment maps.  @raise Not_found, changing nothing, unless the cell
    holds a copy of [from]'s uid with its arity, the uid index names
    this address, and no other cell holds the copy's slot. *)

val set_forwarder : t -> at:Bmx_util.Addr.t -> target:Bmx_util.Addr.t -> unit
(** Replace the cell at [at] with a forwarding header to [target].
    Keeps the forwarder graph acyclic: a self-link is ignored, and if
    [target]'s own chain led back to [at] (address reuse — the object
    moved A -> B -> A and both hops were recorded here), the stale
    back-chain is re-pointed at [target], which becomes the endpoint.
    [Bmx_check.Lint.check_stores] verifies this invariant over every
    node after each run. *)

val remove : t -> Bmx_util.Addr.t -> unit
(** Drop the cell (object reclaimed or forwarder retired). *)

val endpoint : t -> Bmx_util.Addr.t -> Bmx_util.Addr.t
(** Where the local forwarder chain from the address stops: the current
    address of the object it leads to, with the chain path-compressed,
    or — when it leads nowhere — an address holding no object (see
    {!object_at}).  The one chain walk under {!resolve},
    {!current_addr} and {!bunch_of_uid}.  Allocates nothing unless
    compression rewrites a hop. *)

val object_at : t -> Bmx_util.Addr.t -> Heap_obj.t
(** The object in the cell at exactly this address (no chain walk).
    Allocates nothing.  @raise Not_found if the cell is a forwarder or
    absent. *)

val resolve : t -> Bmx_util.Addr.t -> (Bmx_util.Addr.t * Heap_obj.t) option
(** Follow the local forwarder chain from the address to the current local
    copy; [None] if the address is unknown here or leads nowhere.
    {!endpoint} then {!object_at}, as an option. *)

val current_addr : t -> Bmx_util.Addr.t -> Bmx_util.Addr.t
(** Endpoint of the local forwarder chain ([a] itself if not forwarded).
    The paper's pointer-comparison operation (§4.2) compares these.
    Allocates nothing unless compression rewrites a hop. *)

val note_field_write : t -> obj_addr:Bmx_util.Addr.t -> index:int -> Value.t -> unit
(** Maintain the reference-map bit for field [index] of the object at
    [obj_addr] after a write. *)

val forward_fields : t -> obj_addr:Bmx_util.Addr.t -> Heap_obj.t -> int
(** Rewrite the pointer fields of [obj], the copy at [obj_addr], to
    their {!current_addr} (§4.4's local reference update, no token) and
    return how many changed.  Version untouched; allocates only the
    [Value.Ref] of a changed field. *)

val objects_of_bunch : t -> Bmx_util.Ids.Bunch.t -> (Bmx_util.Addr.t * Heap_obj.t) list
(** All local object copies (not forwarders) of the bunch, by address.
    Served from a per-bunch index — O(bunch), not O(store). *)

val has_objects_of_bunch : t -> Bmx_util.Ids.Bunch.t -> bool
(** Whether any local object copy of the bunch exists — O(1). *)

val uid_addr : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Addr.t
(** Current local address of the object with this uid.  Allocates
    nothing.  @raise Not_found if it is not cached here. *)

val addr_of_uid : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Addr.t option
(** {!uid_addr} as an option. *)

val bunch_of_uid : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Ids.Bunch.t
(** Bunch of the local copy of [uid] — {!uid_addr}, {!endpoint} and
    {!object_at} — or [-1] (never a bunch id) when there is none.
    Allocates nothing unless compression rewrites a forwarder. *)

val address_history : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Addr.t list
(** Addresses this node has seen the object at, newest first.  This is the
    node-local knowledge from which new-location messages (§4.4) are
    composed: the head is where the node currently publishes the object,
    the second entry is where its peers may still believe it lives. *)

val iter : t -> (Bmx_util.Addr.t -> cell -> unit) -> unit
(** Whole-table iteration.  Bumps [Perfcount.s_store_cells_touched] per
    cell, so the complexity tests catch any hot path that full-scans. *)

val iter_objects_of_bunch :
  t -> Bmx_util.Ids.Bunch.t -> (Bmx_util.Addr.t -> Heap_obj.t -> unit) -> unit
(** Unordered, allocation-free variant of {!objects_of_bunch}. *)

val mut_version : t -> int
(** Mutation epoch: advances on install/remove/forward/field-write —
    every semantic change to the store's contents — and never on reads
    or forwarder path compression.  The economical BGC skips a
    collection whose inputs show the same composite version as its
    previous run. *)

val bunch_object_count : t -> Bmx_util.Ids.Bunch.t -> int
(** O(1): live object cells of the bunch (the [objects_of_bunch] list
    length without building the list). *)

val object_count : t -> int
(** Number of local object copies — O(1), maintained by install/remove. *)

val objects_bytes : t -> int
(** Total [Heap_obj.size_bytes] of local object copies — O(1). *)

val segment_count : t -> int
(** Locally mapped segments — O(1). *)
