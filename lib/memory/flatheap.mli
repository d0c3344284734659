(** Flat object arena: every object's header, version and fields live as
    native ints in one growable [Bigarray], addressed by slot base.

    Slot layout in words: [gen; version; nfields; field0 … fieldN-1],
    fields raw-tagged as by {!Value.to_raw}.  Handles carry the
    generation stamped at {!alloc}; {!free} poisons it, so any access
    through a stale handle raises [Invalid_argument] instead of reading
    whatever object recycled the slot.  Freed slots are recycled by
    per-arity free lists, so arena growth tracks the peak live heap. *)

type t

val create : ?initial_words:int -> unit -> t
val default : t
(** Arena used by bare [Heap_obj.make] calls (tests, baselines). *)

val id : t -> int
(** Small unique arena id, for packing cross-arena slot keys. *)

val capacity : t -> int
val live : t -> int
(** Number of currently allocated (un-freed) slots — O(1). *)

val alloc : t -> nfields:int -> int * int
(** Fresh zero-filled (all-nil) slot; returns [(base, gen)]. *)

val free : t -> base:int -> gen:int -> unit
val nfields : t -> base:int -> gen:int -> int
val version : t -> base:int -> gen:int -> int
val set_version : t -> base:int -> gen:int -> int -> unit
val bump_version : t -> base:int -> gen:int -> unit
val get_raw : t -> base:int -> gen:int -> int -> int
val set_raw : t -> base:int -> gen:int -> int -> int -> unit

val unsafe_get_raw : t -> base:int -> int -> int
(** No generation or bounds check — for tight loops that just checked. *)

val alloc_copy : t -> src:t -> src_base:int -> src_gen:int -> int * int
(** Allocate in the destination arena and blit fields + version from the
    source slot (same or another arena).  The collector's object-copy
    primitive; bumps [Perfcount.s_flat_words_copied]. *)

val blit_fields :
  src:t -> src_base:int -> src_gen:int ->
  dst:t -> dst_base:int -> dst_gen:int -> unit
(** Copy fields + version between same-arity live slots. *)
