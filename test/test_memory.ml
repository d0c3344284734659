open Bmx_util
module Value = Bmx_memory.Value
module Heap_obj = Bmx_memory.Heap_obj
module Segment = Bmx_memory.Segment
module Registry = Bmx_memory.Registry
module Store = Bmx_memory.Store

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_opt_int = check (Alcotest.option Alcotest.int)

(* ----------------------------------------------------------------- Value *)

let test_value () =
  check_bool "nil is not a pointer" false (Value.is_pointer Value.nil);
  check_bool "ref is a pointer" true (Value.is_pointer (Value.Ref 64));
  check_bool "data is not" false (Value.is_pointer (Value.Data 64));
  check_bool "equal refs" true (Value.equal (Value.Ref 4) (Value.Ref 4));
  check_bool "ref <> data" false (Value.equal (Value.Ref 4) (Value.Data 4))

(* -------------------------------------------------------------- Heap_obj *)

let test_heap_obj_basics () =
  let o = Heap_obj.make ~uid:1 ~bunch:0 ~fields:[| Value.Data 1; Value.Ref 64 |] () in
  check_int "num_fields" 2 (Heap_obj.num_fields o);
  check_int "size includes header" (8 + 8) (Heap_obj.size_bytes o);
  check_bool "get" true (Value.equal (Heap_obj.get o 1) (Value.Ref 64));
  Heap_obj.set o 0 (Value.Data 9);
  check_int "version bumped" 1 (Heap_obj.version o);
  check (Alcotest.list Alcotest.int) "pointers" [ 64 ] (Heap_obj.pointers o)

let test_heap_obj_clone_overwrite () =
  let o = Heap_obj.make ~uid:1 ~bunch:0 ~fields:[| Value.Data 1 |] () in
  let o2 = Heap_obj.clone o in
  Heap_obj.set o2 0 (Value.Data 2);
  check_bool "clone is independent" true
    (Value.equal (Heap_obj.get o 0) (Value.Data 1));
  Heap_obj.overwrite o ~from:o2;
  check_bool "overwrite copies fields" true
    (Value.equal (Heap_obj.get o 0) (Value.Data 2));
  let other = Heap_obj.make ~uid:2 ~bunch:0 ~fields:[| Value.Data 0 |] () in
  Alcotest.check_raises "uid mismatch" (Invalid_argument "Heap_obj.overwrite: uid mismatch")
    (fun () -> Heap_obj.overwrite o ~from:other)

(* --------------------------------------------------------------- Segment *)

let test_segment_alloc () =
  let range = Addr.Range.make ~lo:4096 ~size:256 in
  let seg = Segment.make ~range ~bunch:0 in
  (match Segment.alloc seg ~size:100 with
  | Some a ->
      check_int "first alloc at base" 4096 a;
      check_bool "object map set" true (Bitmap.get seg.Segment.object_map a)
  | None -> Alcotest.fail "alloc failed");
  (match Segment.alloc seg ~size:100 with
  | Some a -> check_int "bump aligned" (4096 + 100) a
  | None -> Alcotest.fail "second alloc failed");
  check (Alcotest.option Alcotest.int) "overflow" None (Segment.alloc seg ~size:100);
  check_int "two objects recorded" 2 (List.length (Segment.objects seg))

let test_segment_reset () =
  let range = Addr.Range.make ~lo:0 ~size:256 in
  let seg = Segment.make ~range ~bunch:0 in
  ignore (Segment.alloc seg ~size:64);
  Segment.note_pointer seg 8 ~is_pointer:true;
  Segment.reset seg;
  check_bool "role free" true (seg.Segment.role = Segment.Free);
  check_int "maps cleared" 0 (Bitmap.cardinal seg.Segment.object_map);
  check_int "bump rewound" 256 (Segment.bytes_free seg)

(* -------------------------------------------------------------- Registry *)

let test_registry_non_overlap () =
  let reg = Registry.create () in
  let r1 = Registry.alloc_range reg ~bunch:0 ~origin:0 () in
  let r2 = Registry.alloc_range reg ~bunch:1 ~origin:1 () in
  let r3 = Registry.alloc_range reg ~bunch:0 ~origin:2 ~bytes:128 () in
  check_bool "r1 r2 disjoint" false (Addr.Range.overlaps r1 r2);
  check_bool "r2 r3 disjoint" false (Addr.Range.overlaps r2 r3);
  check_opt_int "find maps back" (Some 0)
    (Option.map (fun e -> e.Registry.bunch) (Registry.find reg r1.Addr.Range.lo));
  check_opt_int "bunch_of_addr" (Some 1) (Registry.bunch_of_addr reg r2.Addr.Range.lo);
  check_opt_int "unknown addr" None (Registry.bunch_of_addr reg 0);
  check_int "two ranges for bunch 0" 2 (List.length (Registry.entries_of_bunch reg 0));
  check_int "total bytes" (Addr.Range.size r1 + Addr.Range.size r2 + 128)
    (Registry.total_bytes reg)

(* ----------------------------------------------------------------- Store *)

let make_store () =
  let reg = Registry.create () in
  (reg, Store.create ~registry:reg ~node:0)

let test_store_alloc_and_maps () =
  let _, s = make_store () in
  let a = Store.alloc s ~bunch:0 ~uid:1 ~fields:[| Value.Ref 4096; Value.Data 2 |] in
  (match Store.cell s a with
  | Some (Store.Object o) -> check_int "uid" 1 o.Heap_obj.uid
  | _ -> Alcotest.fail "expected object cell");
  check_opt_int "uid index" (Some a) (Store.addr_of_uid s 1);
  (match Store.segment_at s a with
  | Some seg ->
      check_bool "object map bit" true (Bitmap.get seg.Segment.object_map a);
      let f0 = Addr.add a Heap_obj.header_bytes in
      check_bool "ref map bit for pointer field" true (Bitmap.get seg.Segment.ref_map f0);
      let f1 = Addr.add f0 Addr.word in
      check_bool "no ref map bit for data field" false (Bitmap.get seg.Segment.ref_map f1)
  | None -> Alcotest.fail "segment missing")

let test_store_segment_overflow () =
  let _, s = make_store () in
  (* Fill well past one segment: allocation must grow the bunch. *)
  (* Each object occupies 12 bytes (8-byte header + one word), so this
     overruns the default 64 KiB segment comfortably. *)
  let n = (Segment.default_bytes / 12) + 10 in
  let addrs = List.init n (fun i -> Store.alloc s ~bunch:0 ~uid:(i + 1) ~fields:[| Value.Data i |]) in
  check_int "all allocated" n (List.length (List.sort_uniq compare addrs));
  check_bool "bunch grew" true (List.length (Store.segments_of_bunch s 0) > 1)

let test_store_forwarders () =
  let _, s = make_store () in
  let a = Store.alloc s ~bunch:0 ~uid:1 ~fields:[| Value.Data 1 |] in
  let b = Store.alloc s ~bunch:0 ~uid:2 ~fields:[| Value.Data 2 |] in
  (* Move uid=1 to a fresh address c, chain a -> b' impossible; use real move. *)
  let obj = match Store.cell s a with Some (Store.Object o) -> o | _ -> assert false in
  let seg = List.hd (Store.segments_of_bunch s 0) in
  ignore seg;
  (* Copy the fields out before forwarding [a]: turning the cell into a
     forwarder releases the arena slot, so the handle must not be used
     afterwards. *)
  let fields = Heap_obj.fields_copy obj in
  let c = Store.alloc s ~bunch:0 ~uid:1 ~fields in
  Store.set_forwarder s ~at:a ~target:c;
  check_int "resolve follows forwarder" c
    (match Store.resolve s a with Some (a', _) -> a' | None -> -1);
  check_int "current_addr" c (Store.current_addr s a);
  check_int "unforwarded unchanged" b (Store.current_addr s b);
  (* Chains: c forwarded again to d. *)
  let d = Store.alloc s ~bunch:0 ~uid:1 ~fields in
  Store.set_forwarder s ~at:c ~target:d;
  check_int "chain followed" d (Store.current_addr s a);
  check (Alcotest.list Alcotest.int) "history newest first" [ d; c; a ]
    (Store.address_history s 1)

let test_store_chain_walk () =
  (* [resolve] and [bunch_of_uid] share one forwarder walk: a chain that
     reaches an object is re-pointed straight at it, and a chain that
     leads nowhere is left as it was. *)
  let _, s = make_store () in
  let fields = [| Value.Data 1 |] in
  let points_at a =
    match Store.cell s a with Some (Store.Forwarder b) -> b | _ -> -1
  in
  let chain uid =
    let x = Store.alloc s ~bunch:3 ~uid ~fields in
    let y = Store.alloc s ~bunch:3 ~uid ~fields in
    let z = Store.alloc s ~bunch:3 ~uid ~fields in
    (* The uid index names the newest install, [z]. *)
    Store.set_forwarder s ~at:y ~target:x;
    Store.set_forwarder s ~at:z ~target:y;
    (x, y, z)
  in
  let x, y, z = chain 7 in
  check_int "chain built" y (points_at z);
  check_int "bunch through the chain" 3 (Store.bunch_of_uid s 7);
  check_int "compressed by bunch_of_uid" x (points_at z);
  check_int "no such uid" (-1) (Store.bunch_of_uid s 8);
  let x, _, z = chain 9 in
  check_int "resolved" x (Store.current_addr s z);
  check_int "compressed by resolve" x (points_at z);
  let x, y, z = chain 11 in
  Store.remove s x;
  check_int "dangling chain has no bunch" (-1) (Store.bunch_of_uid s 11);
  check_bool "dangling chain does not resolve" true (Store.resolve s z = None);
  check_int "dangling chain left alone" y (points_at z)

let test_store_remove () =
  let _, s = make_store () in
  let a = Store.alloc s ~bunch:0 ~uid:1 ~fields:[| Value.Data 1 |] in
  Store.remove s a;
  check_bool "cell gone" true (Store.cell s a = None);
  check_opt_int "uid index cleared" None (Store.addr_of_uid s 1);
  (match Store.segment_at s a with
  | Some seg -> check_bool "object map cleared" false (Bitmap.get seg.Segment.object_map a)
  | None -> Alcotest.fail "segment missing")

let test_store_objects_of_bunch () =
  let _, s = make_store () in
  let _ = Store.alloc s ~bunch:0 ~uid:1 ~fields:[| Value.Data 1 |] in
  let _ = Store.alloc s ~bunch:1 ~uid:2 ~fields:[| Value.Data 2 |] in
  let _ = Store.alloc s ~bunch:0 ~uid:3 ~fields:[| Value.Data 3 |] in
  check_int "bunch 0 has two" 2 (List.length (Store.objects_of_bunch s 0));
  check_int "bunch 1 has one" 1 (List.length (Store.objects_of_bunch s 1));
  check_int "object count" 3 (Store.object_count s);
  check (Alcotest.list Alcotest.int) "mapped bunches" [ 0; 1 ] (Store.mapped_bunches s)

let test_store_remote_install () =
  (* Installing an object allocated by another node maps its segment
     locally with the right bunch. *)
  let reg = Registry.create () in
  let s0 = Store.create ~registry:reg ~node:0 in
  let s1 = Store.create ~registry:reg ~node:1 in
  let a = Store.alloc s0 ~bunch:5 ~uid:1 ~fields:[| Value.Data 1 |] in
  let obj = match Store.cell s0 a with Some (Store.Object o) -> o | _ -> assert false in
  Store.install s1 a (Heap_obj.clone obj);
  check_opt_int "visible at node 1" (Some a) (Store.addr_of_uid s1 1);
  check (Alcotest.list Alcotest.int) "bunch mapped at node 1" [ 5 ]
    (Store.mapped_bunches s1)

let () =
  Alcotest.run "memory"
    [
      ("value", [ Alcotest.test_case "predicates" `Quick test_value ]);
      ( "heap_obj",
        [
          Alcotest.test_case "basics" `Quick test_heap_obj_basics;
          Alcotest.test_case "clone/overwrite" `Quick test_heap_obj_clone_overwrite;
        ] );
      ( "segment",
        [
          Alcotest.test_case "bump allocation" `Quick test_segment_alloc;
          Alcotest.test_case "reset" `Quick test_segment_reset;
        ] );
      ( "registry",
        [ Alcotest.test_case "non-overlapping ranges" `Quick test_registry_non_overlap ]
      );
      ( "store",
        [
          Alcotest.test_case "alloc and bit maps" `Quick test_store_alloc_and_maps;
          Alcotest.test_case "segment overflow" `Quick test_store_segment_overflow;
          Alcotest.test_case "forwarder chains" `Quick test_store_forwarders;
          Alcotest.test_case "one chain walk" `Quick test_store_chain_walk;
          Alcotest.test_case "remove" `Quick test_store_remove;
          Alcotest.test_case "objects per bunch" `Quick test_store_objects_of_bunch;
          Alcotest.test_case "remote install maps segment" `Quick test_store_remote_install;
        ] );
    ]
