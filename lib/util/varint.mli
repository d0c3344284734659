(** Unsigned LEB128 integers: seven bits per byte, least significant
    group first, the high bit set on every byte but the last.  A value
    below 2{^7} takes one byte, below 2{^14} two, below 2{^21} three,
    and [max_int] nine.  The scion cleaner's table messages carry every
    integer this way. *)

val size : int -> int
(** Bytes {!write} emits for the value; allocates nothing.  Raises
    [Invalid_argument] on a negative value: the encoding is unsigned. *)

val write : Buffer.t -> int -> unit
(** Append the value's encoding.  Raises [Invalid_argument] on a
    negative value. *)

val read : Bytes.t -> int ref -> int
(** Decode the value that starts at the cursor and move the cursor past
    it.  Raises [Invalid_argument] on an encoding cut short by the end
    of the bytes or wider than a non-negative [int]. *)
