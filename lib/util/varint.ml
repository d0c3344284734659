let negative fn v = invalid_arg (Printf.sprintf "Varint.%s: negative value %d" fn v)

let size v =
  if v < 0 then negative "size" v;
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

let write buf v =
  if v < 0 then negative "write" v;
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (v land 0x7f lor 0x80));
      go (v lsr 7)
    end
  in
  go v

(* The ninth byte holds bits 56–62; a set bit 62 is the sign of an
   OCaml int, so it reads back negative and is refused, as is a tenth
   byte. *)
let read b pos =
  let rec go acc shift =
    if !pos >= Bytes.length b then invalid_arg "Varint.read: truncated";
    if shift > 56 then invalid_arg "Varint.read: wider than an int";
    let byte = Char.code (Bytes.get b !pos) in
    incr pos;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if acc < 0 then invalid_arg "Varint.read: wider than an int";
    if byte < 0x80 then acc else go acc (shift + 7)
  in
  go 0 0
