(* Second-wave coverage: edge cases and behaviours the per-module suites
   don't reach. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory
module Store = Bmx_memory.Store
module Segment = Bmx_memory.Segment
module Registry = Bmx_memory.Registry
module Value = Bmx_memory.Value
module Net = Bmx_netsim.Net
module Gc_state = Bmx_gc.Gc_state
module Barrier = Bmx_gc.Barrier
module Graphgen = Bmx_workload.Graphgen

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ----------------------------------------------------------------- dsm *)

let test_release_keeps_cached_consistency () =
  (* Between release and a remote write acquire, the released copy stays
     readable (entry consistency invalidates on conflict, not release). *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  check_bool "still readable after release" true
    (Value.equal (Cluster.read c ~node:1 x1 0) (Value.Data 1))

let test_double_release_harmless () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.release c ~node:0 x;
  Cluster.release c ~node:0 x;
  let x' = Cluster.acquire_write c ~node:0 x in
  Cluster.release c ~node:0 x'

let test_centralized_invalidation_complete () =
  (* In centralized mode the owner's copy-set holds every reader; a write
     acquire must invalidate them all. *)
  let c = Cluster.create ~nodes:5 ~mode:Protocol.Centralized () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  List.iter
    (fun n ->
      let a = Cluster.acquire_read c ~node:n x in
      Cluster.release c ~node:n a)
    [ 1; 2; 3 ];
  let a4 = Cluster.acquire_write c ~node:4 x in
  Cluster.release c ~node:4 a4;
  let uid = Cluster.uid_at c ~node:4 x in
  List.iter
    (fun n ->
      match Directory.find (Protocol.directory (Cluster.proto c) n) uid with
      | Some r ->
          check_bool
            (Printf.sprintf "N%d invalidated" n)
            true
            (r.Directory.state = Directory.Invalid)
      | None -> Alcotest.fail "record lost")
    [ 0; 1; 2; 3 ]

let test_alloc_counter_and_owner () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  for _ = 1 to 5 do
    ignore (Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |])
  done;
  check_int "allocations counted" 5 (Stats.get (Cluster.stats c) "dsm.alloc")

let test_read_grant_downgrades_owner () =
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let uid = Cluster.uid_at c ~node:0 x in
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  (match Directory.find (Protocol.directory (Cluster.proto c) 0) uid with
  | Some r ->
      check_bool "owner downgraded to read" true (r.Directory.state = Directory.Read);
      check_bool "still owner" true r.Directory.is_owner
  | None -> Alcotest.fail "owner record lost");
  (* The owner can upgrade itself back. *)
  let x0 = Cluster.acquire_write c ~node:0 x in
  Cluster.release c ~node:0 x0;
  match Directory.find (Protocol.directory (Cluster.proto c) 1) uid with
  | Some r -> check_bool "reader invalidated by upgrade" true (r.Directory.state = Directory.Invalid)
  | None -> Alcotest.fail "reader record lost"

(* -------------------------------------------------------------- memory *)

let test_segment_seal_blocks_allocation () =
  let range = Addr.Range.make ~lo:4096 ~size:256 in
  let seg = Segment.make ~range ~bunch:0 in
  Segment.seal seg;
  check (Alcotest.option Alcotest.int) "sealed segment refuses allocation" None
    (Segment.alloc seg ~size:16);
  check_int "no free bytes" 0 (Segment.bytes_free seg)

let test_registry_find_miss () =
  let reg = Registry.create () in
  let r = Registry.alloc_range reg ~bunch:3 ~origin:0 () in
  check_bool "hit inside" true (Registry.find reg r.Addr.Range.lo <> None);
  check_bool "miss below" true (Registry.find reg 0 = None);
  check_bool "miss above" true (Registry.find reg (r.Addr.Range.hi + 4096) = None)

(* ------------------------------------------------------------------ gc *)

let test_barrier_scion_target () =
  let c = Cluster.create ~nodes:2 () in
  let b_local = Cluster.new_bunch c ~home:0 in
  let b_remote = Cluster.new_bunch c ~home:1 in
  check_int "locally mapped bunch: scion local" 0
    (Barrier.scion_target (Cluster.gc c) ~node:0 ~bunch:b_local);
  check_int "remote bunch: scion at its home" 1
    (Barrier.scion_target (Cluster.gc c) ~node:0 ~bunch:b_remote)

let test_bgc_on_empty_bunch () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "nothing live" 0 r.Bmx_gc.Collect.r_live;
  check_int "nothing reclaimed" 0 r.Bmx_gc.Collect.r_reclaimed;
  (* And on a node that never heard of the bunch. *)
  let c2 = Cluster.create ~nodes:2 () in
  let b2 = Cluster.new_bunch c2 ~home:0 in
  let r2 = Cluster.bgc c2 ~node:1 ~bunch:b2 in
  check_int "foreign node no-op" 0 r2.Bmx_gc.Collect.r_live

let test_bgc_idempotent_when_quiescent () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let head = Graphgen.linked_list c ~node:0 ~bunch:b ~len:10 in
  Cluster.add_root c ~node:0 head;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let r2 = Cluster.bgc c ~node:0 ~bunch:b in
  let r3 = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "second run reclaims nothing" 0 r2.Bmx_gc.Collect.r_reclaimed;
  check_int "third run stable" r2.Bmx_gc.Collect.r_live r3.Bmx_gc.Collect.r_live;
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_stub_survives_gc_of_live_source () =
  (* A live cross-bunch reference keeps its SSP across repeated BGCs. *)
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b2 [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref x |] in
  Cluster.add_root c ~node:0 y;
  for _ = 1 to 3 do
    ignore (Cluster.bgc c ~node:0 ~bunch:b1);
    ignore (Cluster.drain c)
  done;
  check_int "stub stable across collections" 1
    (List.length (Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b1));
  check_int "scion stable" 1
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:0 ~bunch:b2))

let test_reclaim_multiple_from_spaces () =
  (* Two BGCs without reclaim accumulate two from-space segments; one
     reclaim frees both. *)
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let head = Graphgen.linked_list c ~node:0 ~bunch:b ~len:10 in
  Cluster.add_root c ~node:0 head;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let s = Protocol.store (Cluster.proto c) 0 in
  let from_spaces () =
    List.length
      (List.filter
         (fun seg -> seg.Segment.role = Segment.From_space)
         (Store.segments_of_bunch s b))
  in
  check_int "two from-spaces accumulated" 2 (from_spaces ());
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  check_int "both freed" 2 r.Bmx_gc.Reclaim.q_segments_freed;
  check_int "none left" 0 (from_spaces ());
  check_bool "heap usable" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_ggc_explicit_subgroup () =
  (* Collecting a strict subset of the mapped bunches must not reclaim a
     cycle that crosses out of the subset. *)
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let b3 = Cluster.new_bunch c ~home:0 in
  let _ring = Graphgen.cross_bunch_ring c ~node:0 ~bunches:[ b1; b2; b3 ] ~len:6 in
  (* Group {b1,b2}: the cycle passes through b3, whose scions into b1/b2
     are external roots. *)
  let r = Bmx_gc.Ggc.run (Cluster.gc c) ~node:0 ~bunches:[ b1; b2 ] () in
  check_int "partial group keeps the cycle" 0 r.Bmx_gc.Collect.r_reclaimed;
  (* The full group gets it. *)
  let r2 = Cluster.ggc c ~node:0 in
  check_int "full group reclaims" 6 r2.Bmx_gc.Collect.r_reclaimed

let test_gc_state_root_multiset () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  Cluster.add_root c ~node:0 x;
  Cluster.remove_root c ~node:0 x;
  (* One of the two roots remains: the object must survive. *)
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "still rooted once" 0 r.Bmx_gc.Collect.r_reclaimed;
  Cluster.remove_root c ~node:0 x;
  let r2 = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "now collectable" 1 r2.Bmx_gc.Collect.r_reclaimed

let test_gc_state_roots_match_list_model () =
  (* The root multiset against a plain newest-first list: random adds,
     removals (the newest occurrence goes), replacements and reads over
     six addresses, so removals meet duplicates and a pending removal
     meets a re-add of its address. *)
  let c = Cluster.create ~nodes:1 () in
  let gc = Cluster.gc c in
  let rng = Random.State.make [| 24 |] in
  let addr () = 8 * (1 + Random.State.int rng 6) in
  let rec drop_newest a = function
    | [] -> []
    | x :: rest -> if x = a then rest else x :: drop_newest a rest
  in
  let model = ref [] in
  let agree step =
    let got = Gc_state.roots gc ~node:0 in
    if got <> !model then
      Alcotest.failf "step %d: roots [%s], model [%s]" step
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map string_of_int !model))
  in
  for step = 1 to 20_000 do
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let a = addr () in
        Gc_state.add_root gc ~node:0 a;
        model := a :: !model
    | 4 | 5 | 6 ->
        let a = addr () in
        if Gc_state.remove_root gc ~node:0 a <> List.mem a !model then
          Alcotest.failf "step %d: remove_root %d disagrees" step a;
        model := drop_newest a !model
    | 7 ->
        let l = List.init (Random.State.int rng 8) (fun _ -> addr ()) in
        Gc_state.set_roots gc ~node:0 l;
        model := l
    | _ -> agree step
  done;
  agree 20_001

(* ------------------------------------------------------------- cluster *)

let test_add_node_dynamic () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 9 |] in
  Cluster.add_root c ~node:0 x;
  let n = Cluster.add_node c in
  check_int "new node id" 1 n;
  let xn = Cluster.acquire_read c ~node:n x in
  check_bool "new node reads shared state" true
    (Value.equal (Cluster.read c ~node:n xn 0) (Value.Data 9));
  Cluster.release c ~node:n xn

let test_deterministic_cluster () =
  let run () =
    let c = Cluster.create ~nodes:2 ~seed:5 () in
    let b = Cluster.new_bunch c ~home:0 in
    let h = Graphgen.linked_list c ~node:0 ~bunch:b ~len:20 in
    Cluster.add_root c ~node:0 h;
    ignore (Cluster.bgc c ~node:0 ~bunch:b);
    (h, Net.total_messages (Cluster.net c), Registry.total_bytes (Protocol.registry (Cluster.proto c)))
  in
  check_bool "identical runs" true (run () = run ())

(* ------------------------------------------------------------- tracing *)

let test_token_discipline_audit () =
  let c = Cluster.create ~nodes:3 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  check_bool "fresh cluster disciplined" true (Result.is_ok (Bmx.Audit.check_tokens c));
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  let x2 = Cluster.acquire_read c ~node:2 x in
  Cluster.release c ~node:2 x2;
  check_bool "multiple readers fine" true (Result.is_ok (Bmx.Audit.check_tokens c));
  let xw = Cluster.acquire_write c ~node:2 x in
  Cluster.release c ~node:2 xw;
  check_bool "exclusive writer fine" true (Result.is_ok (Bmx.Audit.check_tokens c));
  (* Corrupt the state deliberately: a second owner. *)
  let proto = Cluster.proto c in
  let uid = Cluster.uid_at c ~node:2 x in
  (match Directory.find (Protocol.directory proto 0) uid with
  | Some r -> r.Directory.is_owner <- true
  | None -> Alcotest.fail "record missing");
  check_bool "audit catches a double owner" true
    (Result.is_error (Bmx.Audit.check_tokens c))

let test_trace_records_protocol_events () =
  let c = Cluster.create ~nodes:2 () in
  Cluster.set_event_trace c true;
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  let x1' = Cluster.acquire_write c ~node:1 x1 in
  Cluster.release c ~node:1 x1';
  ignore (Cluster.bgc c ~node:1 ~bunch:b);
  let events = Trace_event.events (Cluster.evlog c) in
  let grants tok =
    List.exists
      (function
        | Trace_event.Grant_sent { granter = 0; requester = 1; tok = t; _ } ->
            t = tok
        | _ -> false)
      events
  in
  check_bool "read grant traced" true (grants Trace_event.Read);
  check_bool "ownership transfer traced" true (grants Trace_event.Write);
  check_bool "collection traced" true
    (List.exists
       (function Trace_event.Gc_end { node = 1; _ } -> true | _ -> false)
       events)

let () =
  Alcotest.run "coverage"
    [
      ( "dsm edges",
        [
          Alcotest.test_case "release keeps cached consistency" `Quick
            test_release_keeps_cached_consistency;
          Alcotest.test_case "double release harmless" `Quick test_double_release_harmless;
          Alcotest.test_case "centralized invalidation complete" `Quick
            test_centralized_invalidation_complete;
          Alcotest.test_case "alloc counter" `Quick test_alloc_counter_and_owner;
          Alcotest.test_case "read grant downgrades the owner" `Quick
            test_read_grant_downgrades_owner;
        ] );
      ( "memory edges",
        [
          Alcotest.test_case "sealed segments refuse allocation" `Quick
            test_segment_seal_blocks_allocation;
          Alcotest.test_case "registry misses" `Quick test_registry_find_miss;
        ] );
      ( "gc edges",
        [
          Alcotest.test_case "barrier scion placement" `Quick test_barrier_scion_target;
          Alcotest.test_case "BGC on empty bunch" `Quick test_bgc_on_empty_bunch;
          Alcotest.test_case "BGC idempotent at fixpoint" `Quick
            test_bgc_idempotent_when_quiescent;
          Alcotest.test_case "SSPs stable across collections" `Quick
            test_stub_survives_gc_of_live_source;
          Alcotest.test_case "reclaim frees multiple from-spaces" `Quick
            test_reclaim_multiple_from_spaces;
          Alcotest.test_case "GGC subgroup respects external cycles" `Quick
            test_ggc_explicit_subgroup;
          Alcotest.test_case "roots are a multiset" `Quick test_gc_state_root_multiset;
          Alcotest.test_case "roots agree with a list model" `Quick
            test_gc_state_roots_match_list_model;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "dynamic node addition" `Quick test_add_node_dynamic;
          Alcotest.test_case "determinism" `Quick test_deterministic_cluster;
          Alcotest.test_case "trace records protocol events" `Quick
            test_trace_records_protocol_events;
          Alcotest.test_case "token-discipline audit" `Quick test_token_discipline_audit;
        ] );
    ]
