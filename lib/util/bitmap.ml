type t = { rg : Addr.Range.t; bits : Bytes.t }

let bit_index rg a =
  if not (Addr.Range.contains rg a) then
    invalid_arg "Bitmap: address out of range";
  if not (Addr.is_aligned a) then invalid_arg "Bitmap: unaligned address";
  Addr.diff a rg.Addr.Range.lo / Addr.word

let create ~range =
  let nbits = Addr.Range.size range / Addr.word in
  { rg = range; bits = Bytes.make ((nbits + 7) / 8) '\000' }

let set t a =
  let i = bit_index t.rg a in
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  Bytes.set t.bits (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))

let clear t a =
  let i = bit_index t.rg a in
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  Bytes.set t.bits (i lsr 3) (Char.chr (b land lnot (1 lsl (i land 7))))

let get t a =
  let i = bit_index t.rg a in
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let popcount_byte b =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go b 0

let cardinal t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte (Char.code c)) t.bits;
  !n

let nbits t = Addr.Range.size t.rg / Addr.word

let iter_set t f =
  for i = 0 to nbits t - 1 do
    if Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0
    then f (Addr.add t.rg.Addr.Range.lo (i * Addr.word))
  done

let next_set t a =
  let a = Addr.align_up a in
  let start =
    if a <= t.rg.Addr.Range.lo then 0
    else if not (Addr.Range.contains t.rg a) then nbits t
    else bit_index t.rg a
  in
  let n = nbits t in
  let rec go i =
    if i >= n then None
    else if Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0
    then Some (Addr.add t.rg.Addr.Range.lo (i * Addr.word))
    else go (i + 1)
  in
  go start

let copy t = { rg = t.rg; bits = Bytes.copy t.bits }
