open Bmx_util

(* A heap object is now a *handle* into a flat arena (Flatheap): the
   record pins the stable identity (uid, bunch) plus the slot coordinates;
   fields and the version counter live as raw ints in the arena.  The
   generation stamp makes any access through a handle whose slot was
   reclaimed fail loudly (Invalid_argument) instead of aliasing whatever
   object recycled the slot. *)

type t = {
  uid : Ids.Uid.t;
  bunch : Ids.Bunch.t;
  heap : Flatheap.t;
  base : int;
  gen : int;
}

let make ?(version = 0) ?(heap = Flatheap.default) ~uid ~bunch ~fields () =
  let base, gen = Flatheap.alloc heap ~nfields:(Array.length fields) in
  Array.iteri (fun i v -> Flatheap.set_raw heap ~base ~gen i (Value.to_raw v)) fields;
  if version <> 0 then Flatheap.set_version heap ~base ~gen version;
  { uid; bunch; heap; base; gen }

let num_fields t = Flatheap.nfields t.heap ~base:t.base ~gen:t.gen
let version t = Flatheap.version t.heap ~base:t.base ~gen:t.gen
let header_bytes = 2 * Addr.word
let size_bytes t = header_bytes + (num_fields t * Addr.word)

let get t i = Value.of_raw (Flatheap.get_raw t.heap ~base:t.base ~gen:t.gen i)

let set t i v =
  Flatheap.set_raw t.heap ~base:t.base ~gen:t.gen i (Value.to_raw v);
  Flatheap.bump_version t.heap ~base:t.base ~gen:t.gen

let fixup t i v = Flatheap.set_raw t.heap ~base:t.base ~gen:t.gen i (Value.to_raw v)

let get_raw t i = Flatheap.get_raw t.heap ~base:t.base ~gen:t.gen i

let clone ?heap t =
  let dst = match heap with Some h -> h | None -> t.heap in
  let base, gen =
    Flatheap.alloc_copy dst ~src:t.heap ~src_base:t.base ~src_gen:t.gen
  in
  { uid = t.uid; bunch = t.bunch; heap = dst; base; gen }

let overwrite t ~from =
  if t.uid <> from.uid then invalid_arg "Heap_obj.overwrite: uid mismatch";
  Flatheap.blit_fields ~src:from.heap ~src_base:from.base ~src_gen:from.gen
    ~dst:t.heap ~dst_base:t.base ~dst_gen:t.gen

let free t = Flatheap.free t.heap ~base:t.base ~gen:t.gen

(* Allocation-free pointer iteration — the collectors' field scan. *)
let iteri_pointers t f =
  let n = num_fields t in
  for i = 0 to n - 1 do
    let r = Flatheap.unsafe_get_raw t.heap ~base:t.base i in
    if Value.raw_is_pointer r then f i (Value.raw_addr r)
  done

let pointers t =
  let acc = ref [] in
  let n = num_fields t in
  for i = n - 1 downto 0 do
    let r = Flatheap.unsafe_get_raw t.heap ~base:t.base i in
    if Value.raw_is_pointer r then acc := Value.raw_addr r :: !acc
  done;
  !acc

let fields_copy t =
  Array.init (num_fields t) (fun i -> get t i)

(* A plain-value snapshot of an object, for anything that must outlive
   the arena slot — above all the RVM disks, whose per-record checksums
   hash the stored value: a handle would hash the shared mutable arena,
   so any later mutator write would read back as phantom corruption. *)
type image = {
  im_uid : Ids.Uid.t;
  im_bunch : Ids.Bunch.t;
  im_version : int;
  im_fields : Value.t array;
}

let to_image t =
  {
    im_uid = t.uid;
    im_bunch = t.bunch;
    im_version = version t;
    im_fields = fields_copy t;
  }

let of_image ?heap im =
  make ~version:im.im_version ?heap ~uid:im.im_uid ~bunch:im.im_bunch
    ~fields:im.im_fields ()

let image_copy im = { im with im_fields = Array.copy im.im_fields }

let image_pointers im =
  Array.fold_right
    (fun v acc ->
      match v with
      | Value.Ref a when not (Addr.is_null a) -> a :: acc
      | _ -> acc)
    im.im_fields []
