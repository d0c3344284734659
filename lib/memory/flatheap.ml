open Bmx_util

(* A flat object arena: headers and data words of every object live in
   one growable [Bigarray] of native ints instead of one boxed record +
   one boxed [Value.t] array + up to [nfields] boxed constructor blocks
   per object.  The OCaml GC sees a single custom block however many
   objects the simulated heaps hold, the hot collector loops walk raw
   tagged ints with no decoding allocation, and GC copies are straight
   word blits.

   Slot layout (all offsets in words from [base]):

     +0  generation — stamped at [alloc], negated at [free].  A handle
         carries the generation it was born with; every access checks it,
         so a use-after-reclaim fails loudly instead of silently reading
         whatever object recycled the slot.
     +1  version — the mutator-visible write counter (see Heap_obj).
     +2  nfields
     +3… raw fields, tagged as by {!Value.to_raw}

   Freed slots go on per-arity free lists and are recycled by the next
   same-arity allocation, so arena growth tracks the peak live heap, not
   the total allocation volume (the copying collector re-allocates every
   live object each collection). *)

type t = {
  id : int;  (* distinguishes arenas in cross-arena slot keys *)
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable bump : int;  (* first never-allocated word *)
  free_lists : (int, int list ref) Hashtbl.t;  (* nfields -> slot bases *)
  mutable live : int;
  mutable next_gen : int;
}

let header_words = 3
let next_id = ref 0

let create ?(initial_words = 1024) () =
  incr next_id;
  {
    id = !next_id;
    data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 16 initial_words);
    bump = 0;
    free_lists = Hashtbl.create 8;
    live = 0;
    next_gen = 1;
  }

let id t = t.id

let capacity t = Bigarray.Array1.dim t.data
let live t = t.live
let grow t needed =
  let cap = ref (2 * capacity t) in
  while !cap < needed do
    cap := 2 * !cap
  done;
  let data' = Bigarray.Array1.create Bigarray.int Bigarray.c_layout !cap in
  Bigarray.Array1.blit t.data (Bigarray.Array1.sub data' 0 (capacity t));
  t.data <- data'

let stale base gen =
  invalid_arg
    (Printf.sprintf "Flatheap: stale handle (slot %d, gen %d): use after reclaim"
       base gen)

let check t ~base ~gen =
  if Bigarray.Array1.unsafe_get t.data base <> gen then stale base gen

let alloc t ~nfields =
  if nfields < 0 then invalid_arg "Flatheap.alloc: negative arity";
  let gen = t.next_gen in
  t.next_gen <- gen + 1;
  t.live <- t.live + 1;
  let base =
    match Hashtbl.find t.free_lists nfields with
    | { contents = base :: rest } as l ->
        l := rest;
        base
    | { contents = [] } | (exception Not_found) ->
        let base = t.bump in
        let words = header_words + nfields in
        if base + words > capacity t then grow t (base + words);
        t.bump <- base + words;
        base
  in
  t.data.{base} <- gen;
  t.data.{base + 1} <- 0;
  t.data.{base + 2} <- nfields;
  for i = base + header_words to base + header_words + nfields - 1 do
    Bigarray.Array1.unsafe_set t.data i 0
  done;
  (base, gen)

let free t ~base ~gen =
  check t ~base ~gen;
  let nfields = t.data.{base + 2} in
  t.data.{base} <- -gen; (* poison: any later gen check fails *)
  t.live <- t.live - 1;
  match Hashtbl.find t.free_lists nfields with
  | l -> l := base :: !l
  | exception Not_found -> Hashtbl.add t.free_lists nfields (ref [ base ])

let nfields t ~base ~gen =
  check t ~base ~gen;
  t.data.{base + 2}

let version t ~base ~gen =
  check t ~base ~gen;
  t.data.{base + 1}

let set_version t ~base ~gen v =
  check t ~base ~gen;
  t.data.{base + 1} <- v

let bump_version t ~base ~gen =
  check t ~base ~gen;
  t.data.{base + 1} <- t.data.{base + 1} + 1

let field_check t ~base i =
  if i < 0 || i >= t.data.{base + 2} then
    invalid_arg (Printf.sprintf "Flatheap: field %d out of range" i)

let get_raw t ~base ~gen i =
  check t ~base ~gen;
  field_check t ~base i;
  Bigarray.Array1.unsafe_get t.data (base + header_words + i)

let set_raw t ~base ~gen i raw =
  check t ~base ~gen;
  field_check t ~base i;
  Bigarray.Array1.unsafe_set t.data (base + header_words + i) raw

let unsafe_get_raw t ~base i =
  Bigarray.Array1.unsafe_get t.data (base + header_words + i)

(* Copy fields and version from a slot (possibly of another arena) into a
   fresh slot of [dst]: the collector's object-copy primitive — one word
   blit, no Value boxing. *)
let alloc_copy dst ~src ~src_base ~src_gen =
  check src ~base:src_base ~gen:src_gen;
  let n = src.data.{src_base + 2} in
  let base, gen = alloc dst ~nfields:n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set dst.data
      (base + header_words + i)
      (Bigarray.Array1.unsafe_get src.data (src_base + header_words + i))
  done;
  dst.data.{base + 1} <- src.data.{src_base + 1};
  Perfcount.(counters.s_flat_words_copied <- counters.s_flat_words_copied + n);
  (base, gen)

let blit_fields ~src ~src_base ~src_gen ~dst ~dst_base ~dst_gen =
  check src ~base:src_base ~gen:src_gen;
  check dst ~base:dst_base ~gen:dst_gen;
  let n = src.data.{src_base + 2} in
  if dst.data.{dst_base + 2} <> n then
    invalid_arg "Flatheap.blit_fields: arity mismatch";
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set dst.data
      (dst_base + header_words + i)
      (Bigarray.Array1.unsafe_get src.data (src_base + header_words + i))
  done;
  dst.data.{dst_base + 1} <- src.data.{src_base + 1};
  Perfcount.(counters.s_flat_words_copied <- counters.s_flat_words_copied + n)

(* The arena objects created by bare [Heap_obj.make] calls (tests,
   baseline collectors) land here. *)
let default = create ~initial_words:4096 ()
