open Bmx_util

type role = Active | From_space | To_space | Free

type t = {
  range : Addr.Range.t;
  bunch : Ids.Bunch.t;
  mutable role : role;
  mutable alloc_ptr : Addr.t;
  object_map : Bitmap.t;
  ref_map : Bitmap.t;
}

let default_bytes = 16 * Addr.page_size

let make ~range ~bunch =
  {
    range;
    bunch;
    role = Active;
    alloc_ptr = range.Addr.Range.lo;
    object_map = Bitmap.create ~range;
    ref_map = Bitmap.create ~range;
  }

let bytes_free t = Addr.diff t.range.Addr.Range.hi t.alloc_ptr

let alloc t ~size =
  let size = Addr.align_up size in
  if size > bytes_free t then None
  else begin
    let a = t.alloc_ptr in
    t.alloc_ptr <- Addr.add a size;
    Bitmap.set t.object_map a;
    Some a
  end

let seal t = t.alloc_ptr <- t.range.Addr.Range.hi
let contains t a = Addr.Range.contains t.range a
let set_role t role = t.role <- role

let note_pointer t a ~is_pointer =
  if is_pointer then Bitmap.set t.ref_map a else Bitmap.clear t.ref_map a

let clear_object t a = Bitmap.clear t.object_map a

let objects t =
  let acc = ref [] in
  Bitmap.iter_set t.object_map (fun a -> acc := a :: !acc);
  List.rev !acc

let reset t =
  t.role <- Free;
  t.alloc_ptr <- t.range.Addr.Range.lo;
  Bitmap.clear_all t.object_map;
  Bitmap.clear_all t.ref_map
