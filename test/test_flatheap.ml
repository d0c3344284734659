(* The flat arena under the microscope: the boxed-record heap model the
   repo used before the flat representation is rebuilt here as a mirror
   (plain OCaml records with a [Value.t array]), and a random op stream —
   alloc / set / fixup / clone / overwrite / free — is applied to both.
   After every op the two worlds must agree observationally: field values
   (decoded and raw), version counters, arity, size, pointer lists, and
   use-after-free behaviour (any access through a handle whose slot was
   reclaimed must raise, never read recycled memory).

   Mutation checks (each of these hand-applied breakages makes the suite
   fail — kept as documentation of what the tests actually pin down):
   - dropping the [lor 1] tag in [Value.to_raw (Data n)] conflates data
     with pointers: the "raw words round-trip" property and the mirror
     model's pointer lists diverge;
   - decoding data with [lsr] instead of [asr] loses negative payloads:
     "raw words round-trip" fails on [Data (-1)];
   - skipping the generation bump in [Flatheap.free] lets a stale handle
     read the slot's next tenant: "use-after-free raises" fails;
   - forgetting [bump_version] in [Heap_obj.set] (or bumping it in
     [fixup]) diverges the version counters in the mirror property;
   - recycling a freed slot without zero-filling leaks the previous
     object's fields into a fresh alloc: the mirror property catches the
     first [get] of a field the fresh object never wrote. *)

open Bmx_util
module Flatheap = Bmx_memory.Flatheap
module Heap_obj = Bmx_memory.Heap_obj
module Value = Bmx_memory.Value

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- unit tests -------------------------------------------------------- *)

let test_raw_roundtrip () =
  List.iter
    (fun v ->
      check_bool
        (Format.asprintf "round-trip %a" Value.pp v)
        true
        (Value.equal v (Value.of_raw (Value.to_raw v))))
    [
      Value.nil;
      Value.Data 0;
      Value.Data 1;
      Value.Data (-1);
      (* payloads are 62-bit (one tag bit, one sign bit) *)
      Value.Data 0x1FFF_FFFF_FFFF_FFFF;
      Value.Data (-0x2000_0000_0000_0000);
      Value.Ref 1;
      Value.Ref 0x3FFF_FFFF;
    ];
  check_int "nil is the zero word" 0 (Value.to_raw Value.nil);
  check_bool "nil is not a pointer" false (Value.raw_is_pointer Value.raw_nil);
  check_bool "data is not a pointer" false
    (Value.raw_is_pointer (Value.to_raw (Value.Data 4)));
  check_bool "ref is a pointer" true
    (Value.raw_is_pointer (Value.to_raw (Value.Ref 4)))

let test_use_after_free_raises () =
  let h = Flatheap.create ~initial_words:64 () in
  let o =
    Heap_obj.make ~heap:h ~uid:1 ~bunch:1
      ~fields:[| Value.Data 7; Value.Ref 3 |] ()
  in
  check_int "live before free" 1 (Flatheap.live h);
  Heap_obj.free o;
  check_int "live after free" 0 (Flatheap.live h);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "get raises" true (raises (fun () -> Heap_obj.get o 0));
  check_bool "version raises" true (raises (fun () -> Heap_obj.version o));
  check_bool "set raises" true
    (raises (fun () -> Heap_obj.set o 0 (Value.Data 9); 0));
  check_bool "double free raises" true
    (raises (fun () -> Heap_obj.free o; 0));
  (* The slot is recycled for the next same-arity alloc; the stale handle
     must still raise rather than read the new tenant. *)
  let o2 =
    Heap_obj.make ~heap:h ~uid:2 ~bunch:1
      ~fields:[| Value.Data 42; Value.nil |] ()
  in
  check_int "slot recycled" o.Heap_obj.base o2.Heap_obj.base;
  check_bool "stale handle still raises" true
    (raises (fun () -> Heap_obj.get o 0))

let test_free_list_reuse_bounds_growth () =
  let h = Flatheap.create ~initial_words:64 () in
  let batch () =
    let os =
      List.init 50 (fun i ->
          Heap_obj.make ~heap:h ~uid:i ~bunch:1
            ~fields:[| Value.Data i; Value.Data (-i); Value.nil |] ())
    in
    List.iter Heap_obj.free os
  in
  batch ();
  let cap = Flatheap.capacity h in
  for _ = 1 to 20 do batch () done;
  check_int "arena growth tracks peak live, not total allocs" cap
    (Flatheap.capacity h)

let test_zero_filled_alloc_reads_nil () =
  let h = Flatheap.create () in
  let base, gen = Flatheap.alloc h ~nfields:4 in
  for i = 0 to 3 do
    check_bool "fresh slot field is nil" true
      (Value.equal Value.nil (Value.of_raw (Flatheap.get_raw h ~base ~gen i)))
  done

let test_alloc_copy_cross_arena () =
  let a = Flatheap.create () and b = Flatheap.create () in
  let o =
    Heap_obj.make ~version:5 ~heap:a ~uid:3 ~bunch:7
      ~fields:[| Value.Ref 12; Value.Data (-4); Value.nil |] ()
  in
  let c = Heap_obj.clone ~heap:b o in
  check_bool "clone landed in the other arena" true (c.Heap_obj.heap == b);
  check_int "uid preserved" o.Heap_obj.uid c.Heap_obj.uid;
  check_int "version preserved (a GC copy is not a write)" 5
    (Heap_obj.version c);
  for i = 0 to 2 do
    check_bool "field preserved" true
      (Value.equal (Heap_obj.get o i) (Heap_obj.get c i))
  done;
  (* Copies are independent: mutating one does not touch the other. *)
  Heap_obj.set c 1 (Value.Data 999);
  check_bool "copy independence" true
    (Value.equal (Value.Data (-4)) (Heap_obj.get o 1))

(* --- mirror-model property --------------------------------------------- *)

type model = {
  m_uid : int;
  mutable m_version : int;
  m_fields : Value.t array;
}

let random_value rng =
  match Rng.int rng 4 with
  | 0 -> Value.nil
  | 1 -> Value.Data (Rng.int rng 10_000 - 5_000)
  | 2 -> Value.Ref (1 + Rng.int rng 1_000)
  | _ -> Value.Data (Rng.int rng 3)

let agree obj m =
  Heap_obj.num_fields obj = Array.length m.m_fields
  && Heap_obj.version obj = m.m_version
  && obj.Heap_obj.uid = m.m_uid
  && Array.for_all (fun x -> x)
       (Array.mapi
          (fun i mv ->
            Value.equal (Heap_obj.get obj i) mv
            && Heap_obj.get_raw obj i = Value.to_raw mv)
          m.m_fields)
  &&
  let ptrs = List.filter_map
    (function Value.Ref a when a <> Addr.null -> Some a | _ -> None)
    (Array.to_list m.m_fields)
  in
  Heap_obj.pointers obj = ptrs

let prop_mirror =
  QCheck.Test.make ~name:"flat arena == boxed-record model under random ops"
    ~count:60
    QCheck.(pair small_nat (small_list small_nat))
    (fun (seed, steps) ->
      let rng = Rng.make (seed + 1) in
      let heap = Flatheap.create ~initial_words:32 () in
      let live : (Heap_obj.t * model) array ref = ref [||] in
      let dead : Heap_obj.t list ref = ref [] in
      let next_uid = ref 0 in
      let push pair = live := Array.append !live [| pair |] in
      let remove k =
        let n = Array.length !live in
        let out = Array.init (n - 1) (fun i -> !live.(if i < k then i else i + 1)) in
        live := out
      in
      let alloc () =
        let nf = 1 + Rng.int rng 4 in
        let fields = Array.init nf (fun _ -> random_value rng) in
        incr next_uid;
        let obj =
          Heap_obj.make ~heap ~uid:!next_uid ~bunch:1
            ~fields:(Array.copy fields) ()
        in
        push (obj, { m_uid = !next_uid; m_version = 0; m_fields = fields })
      in
      alloc ();
      let step op =
        let n = Array.length !live in
        match op mod 6 with
        | 0 -> alloc ()
        | 1 when n > 0 ->
            (* mutator write: field + version *)
            let obj, m = !live.(Rng.int rng n) in
            let i = Rng.int rng (Array.length m.m_fields) in
            let v = random_value rng in
            Heap_obj.set obj i v;
            m.m_fields.(i) <- v;
            m.m_version <- m.m_version + 1
        | 2 when n > 0 ->
            (* GC retarget: field without version *)
            let obj, m = !live.(Rng.int rng n) in
            let i = Rng.int rng (Array.length m.m_fields) in
            let v = random_value rng in
            Heap_obj.fixup obj i v;
            m.m_fields.(i) <- v
        | 3 when n > 0 ->
            (* collector copy *)
            let obj, m = !live.(Rng.int rng n) in
            let c = Heap_obj.clone obj in
            push (c, { m with m_fields = Array.copy m.m_fields })
        | 4 when n > 1 ->
            (* forward: replace one copy's contents with another's
               (the store's install-over-existing path) *)
            let k1 = Rng.int rng n and k2 = Rng.int rng n in
            let o1, m1 = !live.(k1) and o2, m2 = !live.(k2) in
            if Array.length m1.m_fields = Array.length m2.m_fields
               && m1.m_uid = m2.m_uid
            then begin
              Heap_obj.overwrite o1 ~from:o2;
              Array.blit m2.m_fields 0 m1.m_fields 0 (Array.length m2.m_fields);
              m1.m_version <- m2.m_version
            end
        | 5 when n > 1 ->
            (* reclaim *)
            let k = Rng.int rng n in
            let obj, _ = !live.(k) in
            Heap_obj.free obj;
            dead := obj :: !dead;
            remove k
        | _ -> ()
      in
      List.iter step steps;
      Array.for_all (fun (obj, m) -> agree obj m) !live
      && List.for_all
           (fun obj ->
             try ignore (Heap_obj.get obj 0); false
             with Invalid_argument _ -> true)
           !dead)

let () =
  Alcotest.run "flatheap"
    [
      ( "arena",
        [
          Alcotest.test_case "raw words round-trip" `Quick test_raw_roundtrip;
          Alcotest.test_case "use-after-free raises" `Quick
            test_use_after_free_raises;
          Alcotest.test_case "free-list reuse bounds growth" `Quick
            test_free_list_reuse_bounds_growth;
          Alcotest.test_case "fresh slots read as nil" `Quick
            test_zero_filled_alloc_reads_nil;
          Alcotest.test_case "cross-arena copy" `Quick
            test_alloc_copy_cross_arena;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20260808 |])
            prop_mirror;
        ] );
    ]
