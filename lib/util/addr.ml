type t = int

let null = 0
let is_null a = a = 0
let word = 4
let page_size = 4096
let align_up a = (a + (word - 1)) land lnot (word - 1)
let is_aligned a = a land (word - 1) = 0

let add a n =
  let r = a + n in
  if r < 0 then invalid_arg "Addr.add: address overflow" else r

let diff hi lo = hi - lo
let compare = Int.compare
let equal = Int.equal
let pp ppf a = Format.fprintf ppf "0x%x" a
let to_string a = Printf.sprintf "0x%x" a

module Range = struct
  type addr = t
  type t = { lo : addr; hi : addr }

  let make ~lo ~size =
    if size <= 0 then invalid_arg "Addr.Range.make: size must be positive";
    if not (is_aligned lo) then invalid_arg "Addr.Range.make: unaligned base";
    { lo; hi = add lo size }

  let size { lo; hi } = hi - lo
  let contains { lo; hi } a = a >= lo && a < hi
  let overlaps r1 r2 = r1.lo < r2.hi && r2.lo < r1.hi
end
