(* From-space reuse (§4.5). *)

open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Segment = Bmx_memory.Segment
module Value = Bmx_memory.Value
module Reclaim = Bmx_gc.Reclaim

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let from_space_segments c node bunch =
  Store.segments_of_bunch (Protocol.store (Cluster.proto c) node) bunch
  |> List.filter (fun s -> s.Segment.role = Segment.From_space)

let test_reclaim_frees_single_node () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let head = Bmx_workload.Graphgen.linked_list c ~node:0 ~bunch:b ~len:20 in
  Cluster.add_root c ~node:0 head;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "one from-space segment" 1 (List.length (from_space_segments c 0 b));
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  check_int "segment freed" 1 r.Reclaim.q_segments_freed;
  check_bool "forwarders dropped" true (r.Reclaim.q_forwarders_dropped >= 20);
  check_int "no from-space left" 0 (List.length (from_space_segments c 0 b));
  (* The heap is intact and usable. *)
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c));
  let head' = Store.current_addr (Protocol.store (Cluster.proto c) 0) head in
  check_bool "list still readable" true
    (match Cluster.read c ~node:0 head' 1 with Value.Data _ -> true | _ -> false)

let test_reclaim_asks_owner_to_copy () =
  (* N1 caches x but N0 owns it.  After N1's BGC, x sits (scanned, not
     copied) in N1's from-space; reclaiming it requires asking N0 to
     evacuate x. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 5 |] in
  Cluster.add_root c ~node:0 x;
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  let r1 = Cluster.bgc c ~node:1 ~bunch:b in
  check_int "nothing copied at N1 (not owner)" 0 r1.Bmx_gc.Collect.r_copied;
  check_int "x scanned in place" 1 r1.Bmx_gc.Collect.r_scanned_in_place;
  let rr = Cluster.reclaim_from_space c ~node:1 ~bunch:b in
  check_int "owner was asked to copy" 1 rr.Reclaim.q_copy_requests;
  check_bool "owner-side copies counted" true
    (Stats.get (Cluster.stats c) "gc.reclaim.owner_copies" >= 1);
  ignore (Cluster.drain c);
  (* x survives at both nodes, outside the freed range. *)
  let uid = Cluster.uid_at c ~node:0 x in
  check_bool "x cached at N1" true (Cluster.cached_at c ~node:1 ~uid);
  check_bool "x cached at N0" true (Cluster.cached_at c ~node:0 ~uid);
  check_int "from-space gone at N1" 0 (List.length (from_space_segments c 1 b));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c));
  (* N1 can still use its (moved) replica through the mutator API. *)
  let x1' = Cluster.acquire_read c ~node:1 x1 in
  check_bool "replica readable after reclaim" true
    (Value.equal (Cluster.read c ~node:1 x1' 0) (Value.Data 5));
  Cluster.release c ~node:1 x1'

(* The owner is asked to copy x out of N1's from-space but holds no
   copy of it any more: its directory still says it owns x, so N1 has no
   one to ask and adopts x itself before the segment goes.  No sequence
   of public operations leaves a recorded owner without its copy (every
   path that drops the copy drops the record too), so the owner's cell
   is removed directly. *)
let test_reclaim_adopts_when_owner_copy_gone () =
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 5 |] in
  Cluster.add_root c ~node:0 x;
  let uid = Cluster.uid_at c ~node:0 x in
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  ignore (Cluster.bgc c ~node:1 ~bunch:b);
  check_int "x in N1's from-space" 1
    (List.length
       (List.filter
          (fun s -> Addr.Range.contains s.Segment.range x1)
          (from_space_segments c 1 b)));
  let n0 = Protocol.store (Cluster.proto c) 0 in
  Store.remove n0 (Option.get (Store.addr_of_uid n0 uid));
  Cluster.remove_root c ~node:0 x;
  check_bool "N0 still recorded as owner" true (Cluster.owner_of c ~uid = Some 0);
  let r = Cluster.reclaim_from_space c ~node:1 ~bunch:b in
  check_int "segment freed" 1 r.Reclaim.q_segments_freed;
  check_int "ownership adopted" 1
    (Stats.get (Cluster.stats c) "gc.reclaim.ownership_adopted");
  check_bool "N1 owns x" true (Cluster.owner_of c ~uid = Some 1);
  let x1' = List.hd (Cluster.roots c ~node:1) in
  check_bool "x reads 5 at N1" true
    (Value.equal (Cluster.read c ~node:1 x1' 0) (Value.Data 5));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_reclaim_broadcasts_updates () =
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 5 |] in
  Cluster.add_root c ~node:0 x;
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  (* Owner-side BGC moves x; the from-space holds the forwarder. *)
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  check_bool "address changes broadcast" true (r.Reclaim.q_updates_broadcast >= 1);
  ignore (Cluster.drain c);
  (* N1 learned the new address through the background update. *)
  let uid = Cluster.uid_at c ~node:0 x in
  let n0 = Protocol.store (Cluster.proto c) 0 in
  let n1 = Protocol.store (Cluster.proto c) 1 in
  check (Alcotest.option Alcotest.int) "N1 converged on the new address"
    (Store.addr_of_uid n0 uid)
    (Option.map (Store.current_addr n1) (Store.addr_of_uid n1 uid));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_reclaim_reuses_bytes () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let head = Bmx_workload.Graphgen.linked_list c ~node:0 ~bunch:b ~len:50 in
  Cluster.add_root c ~node:0 head;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  check_bool "bytes accounted" true (r.Reclaim.q_bytes_freed >= Segment.default_bytes)

let test_reclaim_noop_without_from_space () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  ignore (Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |]);
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  check_int "nothing to free" 0 r.Reclaim.q_segments_freed

(* Every cell of the store at [node] inside [range], by address, as
   (address, uid of an object or -1 for a forwarder). *)
let cells_in c node range =
  let acc = ref [] in
  Store.iter (Protocol.store (Cluster.proto c) node) (fun a cell ->
      if Addr.Range.contains range a then
        acc :=
          ( a,
            match cell with
            | Store.Object obj -> obj.Bmx_memory.Heap_obj.uid
            | Store.Forwarder _ -> -1 )
          :: !acc);
  List.sort compare !acc

let test_reclaim_deferred_across_partition () =
  (* N0 owns x and N1 roots a replica, so N1 must hear of x's move before
     N0 reuses the from-space holding its forwarder.  With N1 alive
     behind a cut, the reclaim refuses before touching anything. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 5 |] in
  Cluster.add_root c ~node:0 x;
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  ignore (Cluster.bgc c ~node:0 ~bunch:b);
  ignore (Cluster.drain c);
  Cluster.partition c ~groups:[ [ 0 ]; [ 1 ] ];
  let seg =
    match from_space_segments c 0 b with
    | [ seg ] -> seg
    | l -> Alcotest.failf "%d from-space segments, expected 1" (List.length l)
  in
  let range = seg.Segment.range in
  let before = cells_in c 0 range in
  check_bool "the from-space holds cells" true (before <> []);
  let deferred () = Stats.get (Cluster.stats c) "gc.reclaim.deferred_partition" in
  let d0 = deferred () in
  (match Cluster.reclaim_from_space c ~node:0 ~bunch:b with
  | _ -> Alcotest.fail "reclaim ran with a replica holder cut off"
  | exception Failure _ -> ());
  check_int "refusal counted" (d0 + 1) (deferred ());
  check_bool "still from-space" true (seg.Segment.role = Segment.From_space);
  check_bool "cells untouched" true (cells_in c 0 range = before);
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  check_int "freed after the heal" 1 r.Reclaim.q_segments_freed;
  check_int "its cells dropped" 0 (List.length (cells_in c 0 range));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_reclaim_replicas_in_several_from_spaces () =
  (* N0 owns 40 objects of 2 008 bytes, 32 to a segment, so they span
     two of N0's segments; N1 roots a replica of each.  N1's BGC copies
     none of them (it owns none) and turns both segment views into
     from-space.  N0's allocation segment is the second of them, so the
     owner's copies must land outside both. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let xs =
    List.init 40 (fun i ->
        let x = Cluster.alloc c ~node:0 ~bunch:b (Array.make 500 (Value.Data i)) in
        Cluster.add_root c ~node:0 x;
        let x1 = Cluster.acquire_read c ~node:1 x in
        Cluster.release c ~node:1 x1;
        Cluster.add_root c ~node:1 x1;
        Cluster.uid_at c ~node:0 x)
  in
  ignore (Cluster.bgc c ~node:1 ~bunch:b);
  let ranges = List.map (fun s -> s.Segment.range) (from_space_segments c 1 b) in
  check_int "two from-space segments at N1" 2 (List.length ranges);
  List.iter
    (fun range ->
      check_bool "each holds replicas" true
        (List.exists (fun (_, uid) -> uid >= 0) (cells_in c 1 range)))
    ranges;
  let r = Cluster.reclaim_from_space c ~node:1 ~bunch:b in
  check_int "both freed" 2 r.Reclaim.q_segments_freed;
  ignore (Cluster.drain c);
  List.iter
    (fun range ->
      check_int "no cell left at N1" 0 (List.length (cells_in c 1 range));
      (* The owner keeps forwarders at its old addresses until its own
         from-space reuse; no copy stays behind anywhere. *)
      List.iter
        (fun node ->
          check_bool "no copy left in a freed range" false
            (List.exists (fun (_, uid) -> uid >= 0) (cells_in c node range)))
        [ 0; 1 ])
    ranges;
  List.iter
    (fun uid ->
      check_bool "owner copy" true (Cluster.cached_at c ~node:0 ~uid);
      check_bool "replica" true (Cluster.cached_at c ~node:1 ~uid))
    xs;
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let () =
  Alcotest.run "reclaim"
    [
      ( "from-space reuse",
        [
          Alcotest.test_case "frees the segment on a single node" `Quick
            test_reclaim_frees_single_node;
          Alcotest.test_case "asks owners to copy live objects out" `Quick
            test_reclaim_asks_owner_to_copy;
          Alcotest.test_case "adopts when the owner's copy is gone" `Quick
            test_reclaim_adopts_when_owner_copy_gone;
          Alcotest.test_case "broadcasts address changes" `Quick
            test_reclaim_broadcasts_updates;
          Alcotest.test_case "accounts freed bytes" `Quick test_reclaim_reuses_bytes;
          Alcotest.test_case "no-op without from-space" `Quick
            test_reclaim_noop_without_from_space;
          Alcotest.test_case "deferred while a replica holder is cut off"
            `Quick test_reclaim_deferred_across_partition;
          Alcotest.test_case "replicas in several from-space segments" `Quick
            test_reclaim_replicas_in_several_from_spaces;
        ] );
    ]
