(** A node's local copy of a shared object.

    Each object has a header preceding its data with system information such
    as the object's size (§2.1).  Because bunches are replicated, every node
    holds its {e own} copy record for an object — copies may be mutually
    inconsistent between synchronization points, which is precisely what the
    BGC tolerates (§4.2).  The [uid] is the stable cross-node identity used
    by DSM token bookkeeping; mutators only ever see addresses.

    Representation: the record is a {e handle} into a flat arena
    ({!Flatheap}) — fields and the version counter are raw tagged ints in
    one big [Bigarray], not boxed [Value.t]s.  [base]/[gen] name the slot;
    every access checks [gen] so a use-after-reclaim raises
    [Invalid_argument] instead of silently reading a recycled slot. *)

type t = private {
  uid : Bmx_util.Ids.Uid.t;
  bunch : Bmx_util.Ids.Bunch.t;  (** bunch the object was allocated from *)
  heap : Flatheap.t;  (** arena holding the fields and version *)
  base : int;  (** slot base word in [heap] *)
  gen : int;  (** slot generation this handle was created under *)
}

val make :
  ?version:int ->
  ?heap:Flatheap.t ->
  uid:Bmx_util.Ids.Uid.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  fields:Value.t array ->
  unit ->
  t
(** [version] defaults to 0 (a freshly allocated object).  Copies made
    by the collector must pass the source's version: the version is the
    object's mutator-visible write counter, and a GC copy is not a
    write.  [heap] defaults to {!Flatheap.default}; stores allocate into
    their own arena. *)

val num_fields : t -> int

val version : t -> int
(** The mutator-visible write counter (bumped by {!set} only). *)

val size_bytes : t -> int
(** Header (two words) plus one word per field. *)

val header_bytes : int

val get : t -> int -> Value.t
(** Raises [Invalid_argument] on out-of-range index. *)

val set : t -> int -> Value.t -> unit
(** Writes the field and bumps the version. *)

val fixup : t -> int -> Value.t -> unit
(** Writes the field {e without} bumping the version.  For GC/protocol
    pointer retargeting (forwarder collapse, copy-forwarding) that
    rewrites an address to an alias of the same object: the value the
    mutator observes is unchanged, so the version — the mutator-visible
    write counter used by the happens-before certifier — must not move. *)

val get_raw : t -> int -> int
(** The raw tagged word of field [i] (see {!Value.to_raw}).  Bounds- and
    generation-checked; no allocation. *)

val clone : ?heap:Flatheap.t -> t -> t
(** Deep copy (fresh arena slot), same uid — a new replica or a GC copy.
    [heap] selects the destination arena (defaults to the source's own);
    the DSM passes the receiving store's arena when installing a grant.
    The paper's BGC copies objects non-destructively (§4.1). *)

val overwrite : t -> from:t -> unit
(** Replace [t]'s contents (fields and version) with [from]'s in place.
    The two must have the same uid and arity.  Leaves any map over the
    slot's fields stale: a copy held by a store is overwritten through
    {!Store.overwrite}, which re-notes them. *)

val free : t -> unit
(** Release the arena slot.  Any later access through this (or any other)
    handle to the slot raises.  Owned by {!Store} — callers holding
    handles must not free. *)

val iteri_pointers : t -> (int -> Bmx_util.Addr.t -> unit) -> unit
(** Apply [f] to the index and address of every non-null pointer field,
    in field order.  Raw scan: no per-field allocation — the collectors'
    trace primitive. *)

val pointers : t -> Bmx_util.Addr.t list
(** Addresses of all non-null pointer fields, in field order. *)

val fields_copy : t -> Value.t array
(** Decoded copy of all fields — for persistence snapshots and tests;
    allocates, keep off hot paths. *)

type image = {
  im_uid : Bmx_util.Ids.Uid.t;
  im_bunch : Bmx_util.Ids.Bunch.t;
  im_version : int;
  im_fields : Value.t array;
}
(** A plain-value snapshot of an object.  Anything that must outlive the
    arena slot stores one of these, not a handle — in particular the RVM
    disks: their per-record checksums hash the stored value, and a handle
    would hash the shared mutable arena, turning every later mutator
    write into phantom corruption at recovery. *)

val to_image : t -> image
val of_image : ?heap:Flatheap.t -> image -> t
(** Materialize the snapshot as a fresh object (fresh arena slot),
    preserving uid, bunch and version. *)

val image_copy : image -> image
val image_pointers : image -> Bmx_util.Addr.t list
