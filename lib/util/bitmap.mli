(** Bit arrays at 4-byte granularity.

    §8 of the paper: the contents of a bunch are described by an
    {e object-map} (a set bit marks the start of an object) and a
    {e reference-map} (a set bit marks a pointer field), both implemented as
    bit arrays in which each bit describes a 4-byte address range. *)

type t

val create : range:Addr.Range.t -> t
(** A bitmap covering [range], all bits clear.  One bit per 4-byte word. *)

val set : t -> Addr.t -> unit
(** Raises [Invalid_argument] if the address is outside the range or
    unaligned. *)

val clear : t -> Addr.t -> unit
val get : t -> Addr.t -> bool

val clear_all : t -> unit

val cardinal : t -> int
(** Number of set bits. *)

val iter_set : t -> (Addr.t -> unit) -> unit
(** Iterate over the addresses of all set bits, in increasing order. *)

val next_set : t -> Addr.t -> Addr.t option
(** [next_set t a] is the smallest set address [>= a], if any. *)

val copy : t -> t
