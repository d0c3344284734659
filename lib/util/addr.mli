(** Addresses in the BMX single address space.

    The paper assumes a 64-bit single address space spanning every node and
    secondary storage (§2.1).  We model addresses as OCaml [int]s (63 usable
    bits), which is plenty for any simulated heap while keeping address
    arithmetic free of boxing.  Addresses are byte-granular; objects are
    4-byte aligned, matching the 4-byte granularity of the object-map and
    reference-map bit arrays of §8. *)

type t = int

val null : t
(** The distinguished null address.  Never inside any segment. *)

val is_null : t -> bool

val word : int
(** Alignment and map granularity in bytes (4, per §8). *)

val page_size : int
(** Size in bytes of a virtual-memory page (4096). *)

val align_up : t -> t
(** [align_up a] is the smallest word-aligned address [>= a]. *)

val is_aligned : t -> bool

val add : t -> int -> t
(** [add a n] is the address [n] bytes past [a].  Raises [Invalid_argument]
    on overflow past the address-space top. *)

val diff : t -> t -> int
(** [diff hi lo] is [hi - lo] in bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Half-open address ranges [\[lo, hi)] used for segments. *)
module Range : sig
  type addr := t
  type t = { lo : addr; hi : addr }

  val make : lo:addr -> size:int -> t
  (** Raises [Invalid_argument] if [size <= 0] or [lo] is unaligned. *)

  val size : t -> int
  val contains : t -> addr -> bool
  val overlaps : t -> t -> bool
end
