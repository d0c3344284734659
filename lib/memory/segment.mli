(** Segments: constant-size sets of contiguous virtual-memory pages (§2.1).

    A segment is the allocation and collection grain.  The BMX-server
    guarantees that segments never overlap (see {!Registry}).  Each segment
    carries the two GC bit arrays of §8: the {e object-map} (a set bit marks
    the first word of an object) and the {e reference-map} (a set bit marks
    a word that currently holds a pointer). *)

(** Role of a segment in its bunch's current GC epoch. *)
type role =
  | Active  (** normal allocation space; becomes from-space at a flip *)
  | From_space  (** being evacuated; may still hold live non-owned objects *)
  | To_space  (** destination of the current/most recent BGC copy phase *)
  | Free  (** fully reclaimed; contents discarded *)

type t = private {
  range : Bmx_util.Addr.Range.t;
  bunch : Bmx_util.Ids.Bunch.t;
  mutable role : role;
  mutable alloc_ptr : Bmx_util.Addr.t;  (** bump pointer *)
  object_map : Bmx_util.Bitmap.t;
  ref_map : Bmx_util.Bitmap.t;
}

val make : range:Bmx_util.Addr.Range.t -> bunch:Bmx_util.Ids.Bunch.t -> t

val default_bytes : int
(** Default segment size: 16 pages (64 KiB). *)

val bytes_free : t -> int

val alloc : t -> size:int -> Bmx_util.Addr.t option
(** Bump-allocate [size] bytes (word-aligned); sets the object-map bit at
    the returned address.  [None] on overflow — the caller grows the bunch
    with a fresh segment ("segment overflow", §2.1). *)

val seal : t -> unit
(** Exhaust the bump pointer.  A node that maps a {e view} of a range some
    other node allocates into must never bump-allocate there itself — the
    registry handed the range to exactly one allocator. *)

val contains : t -> Bmx_util.Addr.t -> bool
val set_role : t -> role -> unit

val note_pointer : t -> Bmx_util.Addr.t -> is_pointer:bool -> unit
(** Maintain the reference-map bit for the word at the given address. *)

val clear_object : t -> Bmx_util.Addr.t -> unit
(** Clear the object-map bit (object evacuated or dead). *)

val objects : t -> Bmx_util.Addr.t list
(** Addresses of all object starts recorded in the object-map. *)

val reset : t -> unit
(** Return the segment to [Free] with empty maps and a rewound bump
    pointer: the from-space reuse of §4.5. *)
