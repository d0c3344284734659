open Bmx_util

type entry = { range : Addr.Range.t; bunch : Ids.Bunch.t; origin : Ids.Node.t }

(* Each shard owns a fixed, contiguous slice of the single address space
   and carves ranges sequentially inside it.  The slice boundaries are
   arithmetic — shard k covers [first_lo + k*region_bytes,
   first_lo + (k+1)*region_bytes) — so routing an address to its shard is
   one subtraction and one division, O(1), before the per-shard floor
   lookup.  A shard's authoritative state is its allocation cursor and
   entry set, held by the owning node's BMX-server; the [by_lo] index is
   a cluster-wide read cache: the shard's entries in an array sorted by
   [range.lo], which sequential carving keeps sorted by appending, so
   the floor lookup is an allocation-free binary search.  Because ranges
   are immutable once handed out (never freed, never moved), the cache
   can never go stale: lookups keep answering while the owner is down,
   and only new allocations fail. *)
type shard = {
  shard_id : int;
  region : Addr.Range.t;
  mutable next : Addr.t;
  mutable by_lo : entry array; (* ascending [range.lo]; first [count] used *)
  mutable count : int;
  mutable bytes : int;  (** O(1) maintained gauge: bytes carved here *)
  mutable owner : Ids.Node.t;
  mutable up : bool;
}

type t = {
  shards : shard array;
  region_bytes : int;
  first_lo : Addr.t;
  by_bunch : entry list ref Ids.Bunch_tbl.t;
  mutable total : int;  (** O(1) maintained gauge: sum of shard bytes *)
  mutable on_alloc : (shard:int -> entry -> unit) list;
}

(* 2^40 bytes per shard: far beyond any simulated heap, and small enough
   that 4096 shards still fit in a 63-bit OCaml int with headroom. *)
let default_region_bytes = 1 lsl 40

let create ?(shards = 1) ?(first_addr = Addr.page_size) () =
  if shards < 1 || shards > 4096 then
    invalid_arg "Registry.create: shards must be in [1, 4096]";
  let first_lo = Addr.align_up first_addr in
  let region_bytes = default_region_bytes in
  let mk k =
    let lo = first_lo + (k * region_bytes) in
    {
      shard_id = k;
      region = Addr.Range.make ~lo ~size:region_bytes;
      next = lo;
      by_lo = [||];
      count = 0;
      bytes = 0;
      owner = 0;
      up = true;
    }
  in
  {
    shards = Array.init shards mk;
    region_bytes;
    first_lo;
    by_bunch = Ids.Bunch_tbl.create 16;
    total = 0;
    on_alloc = [];
  }

let num_shards t = Array.length t.shards

let shard_of_addr t a =
  if a < t.first_lo then None
  else
    let k = (a - t.first_lo) / t.region_bytes in
    if k < Array.length t.shards then Some k else None

let shard_of_bunch t bunch = bunch mod Array.length t.shards
let shard_owner t k = t.shards.(k).owner
let shard_up t k = t.shards.(k).up
let shard_bytes t k = t.shards.(k).bytes
let set_shard_owner t k node = t.shards.(k).owner <- node
let crash_shard t k = t.shards.(k).up <- false
let revive_shard t k = t.shards.(k).up <- true
let add_on_alloc t f = t.on_alloc <- f :: t.on_alloc

(* Index in [entries.(lo .. hi-1)] of the last entry whose range starts
   at or below [a], or [lo - 1] when none does.  Top-level rather than a
   local closure, so a lookup allocates nothing. *)
let rec floor_index entries a lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    if entries.(mid).range.Addr.Range.lo <= a then floor_index entries a (mid + 1) hi
    else floor_index entries a lo mid

(* Carving appends at the end; only a recovery replay can land below
   existing entries, and it shifts the tail to keep the order. *)
let insert s e =
  if s.count = Array.length s.by_lo then begin
    let grown = Array.make (max 8 (2 * s.count)) e in
    Array.blit s.by_lo 0 grown 0 s.count;
    s.by_lo <- grown
  end;
  let i = floor_index s.by_lo e.range.Addr.Range.lo 0 s.count + 1 in
  Array.blit s.by_lo i s.by_lo (i + 1) (s.count - i);
  s.by_lo.(i) <- e;
  s.count <- s.count + 1

let index_bunch t e =
  match Ids.Bunch_tbl.find_opt t.by_bunch e.bunch with
  | Some r -> r := e :: !r
  | None -> Ids.Bunch_tbl.add t.by_bunch e.bunch (ref [ e ])

let alloc_range t ~bunch ~origin ?(bytes = Segment.default_bytes) () =
  let s = t.shards.(shard_of_bunch t bunch) in
  if not s.up then
    failwith (Printf.sprintf "registry shard %d down: cannot allocate" s.shard_id);
  let size = Addr.align_up bytes in
  if s.next + size > s.region.Addr.Range.hi then
    failwith (Printf.sprintf "registry shard %d region exhausted" s.shard_id);
  let range = Addr.Range.make ~lo:s.next ~size in
  s.next <- range.Addr.Range.hi;
  let e = { range; bunch; origin } in
  insert s e;
  s.bytes <- s.bytes + size;
  t.total <- t.total + size;
  index_bunch t e;
  List.iter (fun f -> f ~shard:s.shard_id e) t.on_alloc;
  range

let entry_at t a =
  if a < t.first_lo then raise_notrace Not_found;
  let k = (a - t.first_lo) / t.region_bytes in
  if k >= Array.length t.shards then raise_notrace Not_found;
  let s = t.shards.(k) in
  let i = floor_index s.by_lo a 0 s.count in
  if i < 0 || a >= s.by_lo.(i).range.Addr.Range.hi then raise_notrace Not_found;
  s.by_lo.(i)

let find t a = match entry_at t a with e -> Some e | exception Not_found -> None

let bunch_of_addr t a =
  match entry_at t a with e -> Some e.bunch | exception Not_found -> None

let entries_of_bunch t bunch =
  match Ids.Bunch_tbl.find_opt t.by_bunch bunch with
  | Some r -> List.rev !r
  | None -> []

let shard_entries t k =
  let s = t.shards.(k) in
  Array.to_list (Array.sub s.by_lo 0 s.count)

let total_bytes t = t.total

let restore_entry t ~shard e =
  let s = t.shards.(shard) in
  if not (Addr.Range.contains s.region e.range.Addr.Range.lo) then
    invalid_arg "Registry.restore_entry: range outside shard region";
  let lo = e.range.Addr.Range.lo in
  let i = floor_index s.by_lo lo 0 s.count in
  if i >= 0 && s.by_lo.(i).range.Addr.Range.lo = lo then begin
    (* The read cache survived; recovery just confirms the journal and
       re-establishes the cursor past everything it promised. *)
    let cached = s.by_lo.(i) in
    if
      cached.range.Addr.Range.hi <> e.range.Addr.Range.hi
      || not (Ids.Bunch.equal cached.bunch e.bunch)
    then failwith "Registry.restore_entry: journal disagrees with index";
    if s.next < e.range.Addr.Range.hi then s.next <- e.range.Addr.Range.hi;
    false
  end
  else begin
    insert s e;
    let size = Addr.Range.size e.range in
    s.bytes <- s.bytes + size;
    t.total <- t.total + size;
    if s.next < e.range.Addr.Range.hi then s.next <- e.range.Addr.Range.hi;
    index_bunch t e;
    true
  end
