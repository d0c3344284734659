open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Segment = Bmx_memory.Segment
module Value = Bmx_memory.Value
module Gc_state = Bmx_gc.Gc_state
module Ssp = Bmx_gc.Ssp
module Collect = Bmx_gc.Collect

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ----------------------------------------------------------- write barrier *)

let test_barrier_same_bunch_no_ssp () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b [| Value.nil |] in
  Cluster.write c ~node:0 y 0 (Value.Ref x);
  check_int "no stub for intra-bunch ref" 0
    (List.length (Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b))

let test_barrier_cross_bunch_local_ssp () =
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b2 [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.nil |] in
  Cluster.write c ~node:0 y 0 (Value.Ref x);
  let stubs = Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b1 in
  check_int "one stub" 1 (List.length stubs);
  let stub = List.hd stubs in
  check_int "scion local (target bunch mapped here)" 0 stub.Ssp.is_scion_at;
  check_int "matching local scion" 1
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:0 ~bunch:b2));
  check_int "no scion message needed" 0
    (Stats.get (Cluster.stats c) "gc.barrier.scion_messages")

let test_barrier_cross_node_scion_message () =
  let c = Cluster.create ~nodes:2 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:1 in
  let x = Cluster.alloc c ~node:1 ~bunch:b2 [| Value.Data 1 |] in
  (* Creating the reference at N0, where B2 is not mapped, must emit a
     scion-message to B2's home. *)
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref x |] in
  ignore y;
  check_int "scion message sent" 1
    (Stats.get (Cluster.stats c) "gc.barrier.scion_messages");
  check_int "scion absent before delivery" 0
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2));
  ignore (Cluster.drain c);
  check_int "scion created at B2's home after delivery" 1
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2))

let test_barrier_duplicate_suppression () =
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b2 [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.nil |] in
  Cluster.write c ~node:0 y 0 (Value.Ref x);
  Cluster.write c ~node:0 y 0 (Value.Ref x);
  check_int "duplicate stub suppressed" 1
    (List.length (Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b1))

let test_barrier_checks_counted () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |] in
  Cluster.write c ~node:0 x 0 (Value.Data 1);
  Cluster.write c ~node:0 x 0 (Value.Data 2);
  (* alloc initialization also goes through the barrier: 1 + 2 writes *)
  check_int "every store barrier-checked" 3
    (Stats.get (Cluster.stats c) "gc.barrier.checks")

(* -------------------------------------------------------------------- BGC *)

let test_bgc_reclaims_unreachable () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let live = Bmx_workload.Graphgen.linked_list c ~node:0 ~bunch:b ~len:5 in
  let _dead = Bmx_workload.Graphgen.linked_list c ~node:0 ~bunch:b ~len:7 in
  Cluster.add_root c ~node:0 live;
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "live survive" 5 r.Collect.r_live;
  check_int "dead reclaimed" 7 r.Collect.r_reclaimed;
  check_int "owned live copied" 5 r.Collect.r_copied;
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_bgc_leaves_forwarders () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let s = Protocol.store (Cluster.proto c) 0 in
  (match Store.cell s x with
  | Some (Store.Forwarder target) ->
      check_int "forwarder points at the copy" target (Store.current_addr s x)
  | _ -> Alcotest.fail "expected forwarding header in from-space");
  check_bool "old address still readable via forwarder" true
    (Value.equal (Cluster.read c ~node:0 x 0) (Value.Data 1))

let test_bgc_roots_from_scions () =
  (* An object reachable ONLY from an inter-bunch scion must survive. *)
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b2 [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref x |] in
  Cluster.add_root c ~node:0 y;
  (* Collect B2 alone: x has no mutator root, only the scion from B1. *)
  let r = Cluster.bgc c ~node:0 ~bunch:b2 in
  check_int "scion kept x alive" 0 r.Collect.r_reclaimed;
  check_bool "x survives" true
    (Cluster.cached_at c ~node:0 ~uid:(Cluster.uid_at c ~node:0 x))

let test_bgc_roots_from_entering_ownerptrs () =
  (* An object with no local root but a remote replica must survive at
     the owner (entering ownerPtr root, §4.1). *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  (* No root at N0.  BGC at N0 must keep x because N1's replica enters. *)
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "entering ownerPtr kept x alive" 0 r.Collect.r_reclaimed;
  check_bool "x survives at owner" true
    (Cluster.cached_at c ~node:0 ~uid:(Cluster.uid_at c ~node:0 x))

let test_bgc_stub_table_regeneration () =
  (* A dropped inter-bunch reference must disappear from the new stub
     table; the scion dies at the next cleaner pass; the target at the
     next BGC. *)
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b2 [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref x |] in
  Cluster.add_root c ~node:0 y;
  check_int "stub exists" 1
    (List.length (Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b1));
  (* Drop the reference. *)
  let y' = Cluster.acquire_write c ~node:0 y in
  Cluster.write c ~node:0 y' 0 Value.nil;
  Cluster.release c ~node:0 y';
  let _ = Cluster.bgc c ~node:0 ~bunch:b1 in
  check_int "stub dropped from the new table" 0
    (List.length (Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b1));
  ignore (Cluster.drain c);
  check_int "scion cleaned" 0
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:0 ~bunch:b2));
  let r = Cluster.bgc c ~node:0 ~bunch:b2 in
  check_int "target reclaimed" 1 r.Collect.r_reclaimed

let test_bgc_never_acquires_tokens () =
  let c = Cluster.create ~nodes:3 () in
  let b = Cluster.new_bunch c ~home:0 in
  let head = Bmx_workload.Graphgen.binary_tree c ~node:0 ~bunch:b ~depth:4 in
  Cluster.add_root c ~node:0 head;
  let h1 = Cluster.acquire_read c ~node:1 head in
  Cluster.release c ~node:1 h1;
  List.iter (fun n -> ignore (Cluster.bgc c ~node:n ~bunch:b)) [ 0; 1; 2 ];
  check_int "zero collector acquires" 0
    (Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
    + Stats.get (Cluster.stats c) "dsm.gc.acquire_write");
  check_int "zero collector-caused invalidations" 0
    (Stats.get (Cluster.stats c) "dsm.gc.invalidations")

let test_bgc_flips_segments () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  let s = Protocol.store (Cluster.proto c) 0 in
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let roles = List.map (fun seg -> seg.Segment.role) (Store.segments_of_bunch s b) in
  check_bool "a from-space segment exists" true (List.mem Segment.From_space roles);
  check_bool "the to-space became the active space" true (List.mem Segment.Active roles);
  (* New allocation lands in the new active segment, not in from-space. *)
  let y = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 2 |] in
  (match Store.segment_at s y with
  | Some seg -> check_bool "fresh alloc in active space" true (seg.Segment.role = Segment.Active)
  | None -> Alcotest.fail "no segment for fresh alloc")

let test_bgc_independent_per_replica () =
  (* Two replicas collect independently; addresses diverge; both mutators
     keep working; nothing is lost. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 7 |] in
  Cluster.add_root c ~node:0 x;
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let uid = Cluster.uid_at c ~node:0 x in
  let a0 = Store.addr_of_uid (Protocol.store (Cluster.proto c) 0) uid in
  let a1 = Store.addr_of_uid (Protocol.store (Cluster.proto c) 1) uid in
  check_bool "addresses diverge (owner moved, replica lazy)" true (a0 <> a1);
  check_bool "weak read still fine at N1" true
    (Value.equal (Cluster.read c ~weak:true ~node:1 x1 0) (Value.Data 7));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_bgc_large_heap_multi_segment () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  (* Enough objects to span several segments. *)
  let head = Bmx_workload.Graphgen.linked_list c ~node:0 ~bunch:b ~len:8000 in
  Cluster.add_root c ~node:0 head;
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "all live copied" 8000 r.Collect.r_copied;
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c));
  (* And a second collection works on the moved heap. *)
  let r2 = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "still live" 8000 r2.Collect.r_live

let test_bgc_trace_counters_charged_once () =
  (* N1 caches A, whose field names B: same bunch, no copy at N1.  The
     BGC traces each live object once, so the remote intra-bunch
     reference is counted once, and every live object is touched twice:
     once by the trace, once by the reference update. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let bo = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref bo |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  Cluster.add_root c ~node:1 a1;
  check_bool "B has no copy at N1" false
    (Cluster.cached_at c ~node:1 ~uid:(Cluster.uid_at c ~node:0 bo));
  let remote () = Stats.get (Cluster.stats c) "gc.trace.remote_intra_refs" in
  let touched () = Perfcount.counters.Perfcount.s_gc_objects_touched in
  let remote0 = remote () and touched0 = touched () in
  let r = Cluster.bgc c ~node:1 ~bunch:b in
  check_int "A alone is live at N1" 1 r.Collect.r_live;
  check_int "remote intra-bunch reference counted once" 1 (remote () - remote0);
  check_int "objects touched = 2 x live" (2 * r.Collect.r_live)
    (touched () - touched0)

(* ----------------------------------------------- economical evacuation *)

(* [n] fresh two-field objects (16 bytes each) in [bunch] at node 0. *)
let alloc_many c ~bunch n =
  List.init n (fun i ->
      Cluster.alloc c ~node:0 ~bunch [| Value.Data i; Value.nil |])

let forwarders s =
  let n = ref 0 in
  Store.iter s (fun _ cell ->
      match cell with Store.Forwarder _ -> incr n | Store.Object _ -> ());
  !n

let test_econ_sweeps_dense_bunch_in_place () =
  (* Twenty live cells and one dead one: far above 3/4 live, so the
     dead cell is swept where it lies and nothing moves. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let live = alloc_many c ~bunch:b 20 in
  List.iter (Cluster.add_root c ~node:0) live;
  let _dead = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |] in
  let r = Cluster.bgc ~economical:true c ~node:0 ~bunch:b in
  check_int "dead cell reclaimed" 1 r.Collect.r_reclaimed;
  check_int "nothing copied" 0 r.Collect.r_copied;
  check_int "every live object stays in place" 20 r.Collect.r_scanned_in_place;
  check_int "counted as swept in place" 1
    (Stats.get (Cluster.stats c) "gc.bgc.swept_in_place");
  check_int "no forwarder in the store" 0
    (forwarders (Protocol.store (Cluster.proto c) 0));
  let x1 = Cluster.acquire_read c ~node:1 (List.hd live) in
  Cluster.release c ~node:1 x1;
  check_int "the grant piggybacks no location update" 0
    (Stats.get (Cluster.stats c) "net.piggyback.token_grant");
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_econ_garbage_free_copies_nothing () =
  (* A mark-and-sweep pass leaves the bunch half live, with no garbage
     left: the next economical trace finds nothing dead, so it must not
     evacuate, however sparse the segment. *)
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let live = alloc_many c ~bunch:b 20 in
  List.iter (Cluster.add_root c ~node:0) live;
  ignore (alloc_many c ~bunch:b 20);
  let swept =
    Collect.run (Cluster.gc c) ~node:0 ~bunches:[ b ] ~group_mode:false
      ~copy:false ()
  in
  check_int "the holes are swept" 20 swept.Collect.r_reclaimed;
  let r = Cluster.bgc ~economical:true c ~node:0 ~bunch:b in
  check_int "garbage-free trace" 0 r.Collect.r_reclaimed;
  check_int "nothing copied" 0 r.Collect.r_copied;
  check_int "no sweep counted" 0
    (Stats.get (Cluster.stats c) "gc.bgc.swept_in_place")

let test_econ_cumulative_holes () =
  (* Root 8 192 objects (two segments) and replace 5% of them per cycle.
     No single trace finds much garbage, but the holes add up: the
     footprint must stay within 4/3 of the live bytes plus one segment,
     and the evacuations that bound it must copy under 1/4 of what
     evacuating every cycle would. *)
  let n = 8192 and cycles = 20 in
  let churn = n * 5 / 100 in
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let s = Protocol.store (Cluster.proto c) 0 in
  let uids =
    Array.of_list
      (List.map
         (fun a ->
           Cluster.add_root c ~node:0 a;
           Cluster.uid_at c ~node:0 a)
         (alloc_many c ~bunch:b n))
  in
  let footprint () =
    List.fold_left
      (fun acc seg ->
        if seg.Segment.role = Segment.Free then acc
        else acc + Addr.Range.size seg.Segment.range)
      0 (Store.segments_of_bunch s b)
  in
  let copied = ref 0 and max_footprint = ref (footprint ()) in
  for cycle = 0 to cycles - 1 do
    for i = 0 to churn - 1 do
      let j = ((cycle * churn) + i) mod n in
      Cluster.remove_root c ~node:0 (Store.uid_addr s uids.(j));
      let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data j; Value.nil |] in
      Cluster.add_root c ~node:0 a;
      uids.(j) <- Cluster.uid_at c ~node:0 a
    done;
    let r = Cluster.bgc ~economical:true c ~node:0 ~bunch:b in
    check_int "the replaced objects are reclaimed" churn r.Collect.r_reclaimed;
    copied := !copied + r.Collect.r_copied;
    ignore (Cluster.reclaim_from_space c ~node:0 ~bunch:b);
    ignore (Cluster.drain c);
    max_footprint := max !max_footprint (footprint ())
  done;
  let live_bytes = n * 16 in
  let bound = ((4 * live_bytes) + 2) / 3 + Segment.default_bytes in
  check_bool
    (Printf.sprintf "max footprint %d <= %d" !max_footprint bound)
    true (!max_footprint <= bound);
  check_bool
    (Printf.sprintf "%d copies < 1/4 of evacuating every cycle" !copied)
    true
    (4 * !copied < cycles * n);
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_full_bgc_copies_everything () =
  (* Without [~economical], one dead cell is enough to evacuate every
     owned live object, however dense the bunch. *)
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  List.iter (Cluster.add_root c ~node:0) (alloc_many c ~bunch:b 20);
  let _dead = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |] in
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "dead cell reclaimed" 1 r.Collect.r_reclaimed;
  check_int "every owned live object copied" 20 r.Collect.r_copied

let () =
  Alcotest.run "gc"
    [
      ( "barrier",
        [
          Alcotest.test_case "intra-bunch stores make no SSP" `Quick
            test_barrier_same_bunch_no_ssp;
          Alcotest.test_case "cross-bunch store makes a local SSP" `Quick
            test_barrier_cross_bunch_local_ssp;
          Alcotest.test_case "cross-node target needs a scion-message" `Quick
            test_barrier_cross_node_scion_message;
          Alcotest.test_case "duplicate stubs suppressed" `Quick
            test_barrier_duplicate_suppression;
          Alcotest.test_case "every store checked" `Quick test_barrier_checks_counted;
        ] );
      ( "bgc",
        [
          Alcotest.test_case "reclaims unreachable objects" `Quick
            test_bgc_reclaims_unreachable;
          Alcotest.test_case "leaves forwarding headers" `Quick test_bgc_leaves_forwarders;
          Alcotest.test_case "scions are roots" `Quick test_bgc_roots_from_scions;
          Alcotest.test_case "entering ownerPtrs are roots" `Quick
            test_bgc_roots_from_entering_ownerptrs;
          Alcotest.test_case "stub tables regenerate" `Quick
            test_bgc_stub_table_regeneration;
          Alcotest.test_case "never acquires tokens" `Quick test_bgc_never_acquires_tokens;
          Alcotest.test_case "segment roles flip" `Quick test_bgc_flips_segments;
          Alcotest.test_case "replicas collect independently" `Quick
            test_bgc_independent_per_replica;
          Alcotest.test_case "multi-segment heap" `Quick test_bgc_large_heap_multi_segment;
          Alcotest.test_case "trace counters charged once" `Quick
            test_bgc_trace_counters_charged_once;
        ] );
      ( "economical",
        [
          Alcotest.test_case "one dead cell in a dense bunch swept in place"
            `Quick test_econ_sweeps_dense_bunch_in_place;
          Alcotest.test_case "garbage-free collection copies nothing" `Quick
            test_econ_garbage_free_copies_nothing;
          Alcotest.test_case "cumulative holes bound the footprint" `Quick
            test_econ_cumulative_holes;
          Alcotest.test_case "non-economical collection copies everything"
            `Quick test_full_bgc_copies_everything;
        ] );
    ]
