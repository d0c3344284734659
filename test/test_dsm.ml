open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory
module Store = Bmx_memory.Store
module Value = Bmx_memory.Value
module Heap_obj = Bmx_memory.Heap_obj
module Net = Bmx_netsim.Net

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_opt_int = check (Alcotest.option Alcotest.int)

let state c node addr =
  let proto = Cluster.proto c in
  let uid = Cluster.uid_at c ~node addr in
  match Directory.find (Protocol.directory proto node) uid with
  | Some r -> Some r.Directory.state
  | None -> None

let two_nodes () =
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  (c, b)

(* -------------------------------------------------------------- acquire *)

let test_alloc_owner_has_write_token () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  check_bool "creator owns" true (Cluster.owner_of c ~uid:(Cluster.uid_at c ~node:0 a) = Some 0);
  check_bool "write state" true (state c 0 a = Some Directory.Write)

let test_read_acquire_replicates () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 42 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  check_bool "copy cached at N1" true
    (Cluster.cached_at c ~node:1 ~uid:(Cluster.uid_at c ~node:0 a));
  check_bool "reader state" true (state c 1 a1 = Some Directory.Read);
  check_bool "owner downgraded to read" true (state c 0 a = Some Directory.Read);
  check_bool "data visible" true
    (Value.equal (Cluster.read c ~node:1 a1 0) (Value.Data 42));
  Cluster.release c ~node:1 a1

let test_write_acquire_transfers_ownership () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let uid = Cluster.uid_at c ~node:0 a in
  let a1 = Cluster.acquire_write c ~node:1 a in
  check_opt_int "N1 owns now" (Some 1) (Cluster.owner_of c ~uid);
  check_bool "N1 write state" true (state c 1 a1 = Some Directory.Write);
  check_bool "old owner invalid" true (state c 0 a = Some Directory.Invalid);
  Cluster.write c ~node:1 a1 0 (Value.Data 2);
  Cluster.release c ~node:1 a1;
  (* N0 reacquires and sees the new value: the consistency guarantee. *)
  let a0 = Cluster.acquire_read c ~node:0 a in
  check_bool "N0 sees write" true (Value.equal (Cluster.read c ~node:0 a0 0) (Value.Data 2));
  Cluster.release c ~node:0 a0

let test_write_invalidates_readers () =
  let c = Cluster.create ~nodes:4 () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  List.iter
    (fun n ->
      let an = Cluster.acquire_read c ~node:n a in
      Cluster.release c ~node:n an)
    [ 1; 2; 3 ];
  let before = Stats.get (Cluster.stats c) "dsm.app.invalidations" in
  let a3 = Cluster.acquire_write c ~node:3 a in
  Cluster.release c ~node:3 a3;
  check_bool "read copies invalidated" true
    (state c 1 a = Some Directory.Invalid && state c 2 a = Some Directory.Invalid);
  check_bool "invalidation messages counted" true
    (Stats.get (Cluster.stats c) "dsm.app.invalidations" > before)

(* A copyset cycle: the owner's copyset names a reader and the reader's
   names the owner.  The partition pre-flight of a write acquire at the
   owner walks copysets; round the cycle without a visited set it
   overflows the stack, which is bounded here (1M words) so the failure
   comes at once rather than after the 1 GiB default. *)
let test_copyset_cycle_write_acquire () =
  let gc = Gc.get () in
  Gc.set { gc with Gc.stack_limit = 1 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  let c, b = two_nodes () in
  let proto = Cluster.proto c in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  let record n =
    Option.get
      (Directory.find (Protocol.directory proto n) (Cluster.uid_at c ~node:0 a))
  in
  Protocol.set_copyset proto (record 0) (Ids.Node_set.singleton 1);
  Protocol.set_copyset proto (record 1) (Ids.Node_set.singleton 0);
  let a0 = Cluster.acquire_write c ~node:0 a in
  check_bool "owner writes" true (state c 0 a0 = Some Directory.Write);
  check_bool "reader invalidated" true (state c 1 a1 = Some Directory.Invalid);
  Cluster.release c ~node:0 a0

let test_local_reacquire_free () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let msgs_before = Net.total_messages (Cluster.net c) in
  let a' = Cluster.acquire_write c ~node:0 a in
  Cluster.release c ~node:0 a';
  check_int "no messages for local reacquire" msgs_before
    (Net.total_messages (Cluster.net c));
  check_int "local hit counted" 1 (Stats.get (Cluster.stats c) "dsm.app.acquire_local")

let test_held_token_conflicts () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a0 = Cluster.acquire_write c ~node:0 a in
  Alcotest.check_raises "write held blocks write"
    (Failure "Protocol.acquire: write token held elsewhere") (fun () ->
      ignore (Cluster.acquire_write c ~node:1 a));
  Alcotest.check_raises "write held blocks read"
    (Failure "Protocol.acquire: write token held elsewhere") (fun () ->
      ignore (Cluster.acquire_read c ~node:1 a));
  Cluster.release c ~node:0 a0;
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1

let test_read_token_from_reader_distributed () =
  (* In distributed mode a read token can come from any reader; the
     owner need not be involved. *)
  let c = Cluster.create ~nodes:3 ~mode:Protocol.Distributed () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  (* N2's ownerPtr points at N0; but if N2 learned about the object from
     N1 it may be granted by N1.  Either way the data arrives and the
     copyset tree stays rooted at the owner. *)
  let a2 = Cluster.acquire_read c ~node:2 a in
  check_bool "N2 reads" true (Value.equal (Cluster.read c ~node:2 a2 0) (Value.Data 1));
  Cluster.release c ~node:2 a2;
  (* Invalidation from a write must reach every reader through the tree. *)
  let a0 = Cluster.acquire_write c ~node:0 a in
  Cluster.release c ~node:0 a0;
  check_bool "all readers invalidated" true
    (state c 1 a = Some Directory.Invalid && state c 2 a = Some Directory.Invalid)

let test_centralized_mode () =
  let c = Cluster.create ~nodes:3 ~mode:Protocol.Centralized () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 5 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  let a2 = Cluster.acquire_write c ~node:2 a in
  check_opt_int "ownership moved" (Some 2)
    (Cluster.owner_of c ~uid:(Cluster.uid_at c ~node:2 a2));
  Cluster.write c ~node:2 a2 0 (Value.Data 6);
  Cluster.release c ~node:2 a2;
  let a0 = Cluster.acquire_read c ~node:0 a in
  check_bool "value propagated" true
    (Value.equal (Cluster.read c ~node:0 a0 0) (Value.Data 6));
  Cluster.release c ~node:0 a0

let test_ownerptr_chain_and_compression () =
  (* N3 learns about the object early, so its ownerPtr goes stale as
     ownership hops 0 -> 1 -> 2.  Its eventual write acquire is forwarded
     along the chain 0 -> 1 -> 2 and compresses it. *)
  let c = Cluster.create ~nodes:4 () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let uid = Cluster.uid_at c ~node:0 a in
  let a3 = Cluster.acquire_read c ~node:3 a in
  Cluster.release c ~node:3 a3;
  let a1 = Cluster.acquire_write c ~node:1 a in
  Cluster.release c ~node:1 a1;
  let a2 = Cluster.acquire_write c ~node:2 a1 in
  Cluster.release c ~node:2 a2;
  (* N3's ownerPtr still points at N0; the request must be forwarded
     N3 -> N0 -> N1 -> N2, one hop each. *)
  let hops_before = Stats.get (Cluster.stats c) "dsm.app.hops" in
  let a3' = Cluster.acquire_write c ~node:3 a3 in
  Cluster.release c ~node:3 a3';
  check_opt_int "N3 owns" (Some 3) (Cluster.owner_of c ~uid);
  check_int "request forwarded along the chain" 3
    (Stats.get (Cluster.stats c) "dsm.app.hops" - hops_before);
  (* After compression the visited nodes N0 and N1, and the old owner N2,
     point directly at N3, and each keeps its replica alive there through
     an entering ownerPtr. *)
  let proto = Cluster.proto c in
  let entering = Directory.entering (Protocol.directory proto 3) uid in
  List.iter
    (fun v ->
      (match Directory.find (Protocol.directory proto v) uid with
      | Some r ->
          check_int (Printf.sprintf "N%d's ownerPtr names N3" v) 3
            r.Directory.prob_owner
      | None -> Alcotest.failf "N%d lost the record" v);
      check_bool (Printf.sprintf "N%d keeps a replica" v) true
        (Store.addr_of_uid (Protocol.store proto v) uid <> None);
      check_bool (Printf.sprintf "N3 holds an entering entry from N%d" v) true
        (Ids.Node_set.mem v entering))
    [ 0; 1; 2 ]

(* The granter and piggybacked update count of the last grant of [uid] to
   [requester] in the event log. *)
let last_grant c ~requester ~uid =
  List.fold_left
    (fun acc e ->
      match e with
      | Trace_event.Grant_sent { granter; requester = r; uid = u; updates; _ }
        when r = requester && u = uid ->
          Some (granter, updates)
      | _ -> acc)
    None (Trace_event.events (Cluster.evlog c))

(* N2's stale ownerPtr names N1, which holds a read token; the owner is
   N0.  Returns the granter of N2's read and the hops it took. *)
let read_through_reader mode =
  let c = Cluster.create ~nodes:3 ~mode () in
  let b = Cluster.new_bunch c ~home:1 in
  let o = Cluster.alloc c ~node:1 ~bunch:b [| Value.Data 1 |] in
  let uid = Cluster.uid_at c ~node:1 o in
  List.iter
    (fun (node, acquire) ->
      let a = acquire c ~node o in
      Cluster.release c ~node a)
    [ (2, Cluster.acquire_read); (0, Cluster.acquire_write); (1, Cluster.acquire_read) ];
  (match Directory.find (Protocol.directory (Cluster.proto c) 2) uid with
  | Some r -> check_int "N2's ownerPtr names N1" 1 r.Directory.prob_owner
  | None -> Alcotest.fail "N2 lost its record");
  Cluster.set_event_trace c true;
  let hops_before = Stats.get (Cluster.stats c) "dsm.app.hops" in
  let a = Cluster.acquire_read c ~node:2 o in
  Cluster.release c ~node:2 a;
  match last_grant c ~requester:2 ~uid with
  | Some (granter, _) ->
      (granter, Stats.get (Cluster.stats c) "dsm.app.hops" - hops_before)
  | None -> Alcotest.fail "no grant recorded"

(* Distributed copysets: the first read-token holder on the requester's
   ownerPtr chain grants, not the owner (§2.2). *)
let test_distributed_read_stops_at_reader () =
  let granter, hops = read_through_reader Protocol.Distributed in
  check_int "granted by the reader N1" 1 granter;
  check_int "one hop: N2 -> N1" 1 hops

let test_centralized_read_goes_to_owner () =
  let granter, hops = read_through_reader Protocol.Centralized in
  check_int "granted by the owner N0" 0 granter;
  check_int "two hops: N2 -> N1 -> N0" 2 hops

(* ------------------------------------------------------------ tokens/data *)

let test_read_requires_token () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  let a0 = Cluster.acquire_write c ~node:0 a in
  Cluster.write c ~node:0 a0 0 (Value.Data 2);
  Cluster.release c ~node:0 a0;
  (* N1's copy is now inconsistent: strict reads fail, weak reads see
     the stale value (entry consistency's undefined state). *)
  Alcotest.check_raises "strict read without token"
    (Failure "Protocol.read_field: no read token (use ~weak for stale reads)")
    (fun () -> ignore (Cluster.read c ~node:1 a1 0));
  check_bool "weak read sees stale data" true
    (Value.equal (Cluster.read c ~weak:true ~node:1 a1 0) (Value.Data 1))

let test_write_requires_write_token () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Alcotest.check_raises "read token does not allow writes"
    (Failure "Protocol.write_field_raw: no write token") (fun () ->
      Cluster.write c ~node:1 a1 0 (Value.Data 9));
  Cluster.release c ~node:1 a1

let test_ptr_eq_follows_forwarders () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  (* Move the object via BGC (the owner copies it). *)
  Cluster.add_root c ~node:0 a;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let uid = Cluster.uid_at c ~node:0 a in
  let new_addr = Option.get (Store.addr_of_uid (Protocol.store (Cluster.proto c) 0) uid) in
  check_bool "moved" true (a <> new_addr);
  check_bool "old and new compare equal" true (Cluster.ptr_eq c ~node:0 a new_addr);
  let other = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 2 |] in
  check_bool "different objects differ" false (Cluster.ptr_eq c ~node:0 a other);
  check_bool "nil equals nil" true (Cluster.ptr_eq c ~node:0 Addr.null Addr.null);
  check_bool "nil differs from object" false (Cluster.ptr_eq c ~node:0 Addr.null a)

(* ------------------------------------------------- invariants 1 and 2 (§5) *)

let test_invariant1_acquire_returns_fresh_address () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 7 |] in
  Cluster.add_root c ~node:0 a;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  (* N1 acquires using the stale address it knows; the grant must land it
     on a valid, current local address. *)
  let a1 = Cluster.acquire_read c ~node:1 a in
  check_bool "read works at granted address" true
    (Value.equal (Cluster.read c ~node:1 a1 0) (Value.Data 7));
  Cluster.release c ~node:1 a1

let test_invariant2_copyset_forwarding () =
  (* Build a genuine copy-set TREE for object o: N0 (owner) -> N1 -> N2,
     where N2's read token was granted by N1 (its stale ownerPtr pointed
     there).  Then a grant of another object p that references o carries
     o's new location to N1, and N1 must forward it to N2 — without o's
     copy-set ever being invalidated. *)
  let c = Cluster.create ~nodes:3 ~mode:Protocol.Distributed () in
  let b = Cluster.new_bunch c ~home:1 in
  (* o starts at N1 so that N2's first read makes its ownerPtr point at
     N1; ownership then moves to N0. *)
  let o = Cluster.alloc c ~node:1 ~bunch:b [| Value.Data 1 |] in
  let o_uid = Cluster.uid_at c ~node:1 o in
  let o_n2 = Cluster.acquire_read c ~node:2 o in
  Cluster.release c ~node:2 o_n2;
  let o_n0 = Cluster.acquire_write c ~node:0 o in
  Cluster.release c ~node:0 o_n0;
  Cluster.add_root c ~node:0 o_n0;
  (* Rebuild the read tree: N1 reads from owner N0; N2 re-reads through
     its stale ownerPtr (N1), landing in N1's copy-set. *)
  let o_n1 = Cluster.acquire_read c ~node:1 o in
  Cluster.release c ~node:1 o_n1;
  let o_n2 = Cluster.acquire_read c ~node:2 o_n2 in
  Cluster.release c ~node:2 o_n2;
  (* p -> o, owned by N0; the BGC at N0 moves both. *)
  let p = Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref o_n0 |] in
  Cluster.add_root c ~node:0 p;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let fresh = Store.current_addr (Protocol.store (Cluster.proto c) 0) o_n0 in
  check_bool "o moved at N0" true (fresh <> o_n0);
  (* N1 acquires p for the first time: the grant piggybacks o's new
     location (invariant 1); N1 forwards it to its copy-set for o
     (invariant 2), reaching N2 in the background. *)
  let p_n1 = Cluster.acquire_read c ~node:1 p in
  Cluster.release c ~node:1 p_n1;
  let n1_store = Protocol.store (Cluster.proto c) 1 in
  check_opt_int "N1 knows o's new address" (Some fresh)
    (Store.addr_of_uid n1_store o_uid |> Option.map (Store.current_addr n1_store));
  ignore (Cluster.drain c);
  let n2_store = Protocol.store (Cluster.proto c) 2 in
  check_opt_int "N2 was informed transitively" (Some fresh)
    (Store.addr_of_uid n2_store o_uid |> Option.map (Store.current_addr n2_store))

(* N0's BGC moves p and the o it references, so the first copy of p
   shipped to N1 carries k location updates; [ship] sends it and [k]
   reads k from the event log.  The reply counts 32 bytes plus the
   object, and the updates count once, as piggyback. *)
let check_updates_counted_once ~ship ~k =
  let c, b = two_nodes () in
  let o = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let p = Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref o; Value.Data 2 |] in
  let uid = Cluster.uid_at c ~node:0 p in
  Cluster.add_root c ~node:0 p;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  let s0 = Protocol.store (Cluster.proto c) 0 in
  let size =
    match Store.resolve s0 (Option.get (Store.addr_of_uid s0 uid)) with
    | Some (_, obj) -> Heap_obj.size_bytes obj
    | None -> Alcotest.fail "p vanished at N0"
  in
  let stats = Cluster.stats c in
  let grant0 = Stats.get stats "net.bytes.token_grant" in
  let pig0 = Stats.get stats "net.bytes.piggyback" in
  Cluster.set_event_trace c true;
  ship c p;
  let k = k c uid in
  check_bool "the reply carries updates" true (k > 0);
  check_int "token_grant bytes: reply + updates once" (32 + size + (24 * k))
    (Stats.get stats "net.bytes.token_grant" - grant0);
  check_int "piggyback bytes" (24 * k)
    (Stats.get stats "net.bytes.piggyback" - pig0)

let test_grant_counts_updates_once () =
  check_updates_counted_once
    ~ship:(fun c p -> Cluster.release c ~node:1 (Cluster.acquire_read c ~node:1 p))
    ~k:(fun c uid ->
      match last_grant c ~requester:1 ~uid with
      | Some (_, k) -> k
      | None -> Alcotest.fail "no grant recorded")

let test_exiting_ownerptrs () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  let uid = Cluster.uid_at c ~node:0 a in
  let exiting = Protocol.exiting_ownerptrs (Cluster.proto c) ~node:1 ~bunch:b in
  check_bool "N1 exits towards N0" true (List.mem (uid, 0) exiting);
  check_int "owner has no exiting ptr" 0
    (List.length (Protocol.exiting_ownerptrs (Cluster.proto c) ~node:0 ~bunch:b));
  (* Entering side mirrors it. *)
  let entering = Directory.entering (Protocol.directory (Cluster.proto c) 0) uid in
  check_bool "N0 sees entering from N1" true (Ids.Node_set.mem 1 entering)

(* ---------------------------------------------------- fault-driven mode *)

let test_demand_fetch_basics () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 33 |] in
  Cluster.add_root c ~node:0 a;
  let a1 = Cluster.demand_fetch c ~node:1 a in
  (* The copy is present but inconsistent: weak reads only. *)
  check_bool "weak read works" true
    (Value.equal (Cluster.read c ~weak:true ~node:1 a1 0) (Value.Data 33));
  Alcotest.check_raises "strict read still fails"
    (Failure "Protocol.read_field: no read token (use ~weak for stale reads)")
    (fun () -> ignore (Cluster.read c ~node:1 a1 0));
  (* The supplier registered the replica: the object survives the owner's
     BGC even with no root there beyond our fault. *)
  Cluster.remove_root c ~node:0 a;
  Cluster.add_root c ~node:1 a1;
  let r = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "owner copy kept alive by the faulted replica" 0
    r.Bmx_gc.Collect.r_reclaimed;
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_demand_fetch_carries_updates () =
  (* The supplier piggybacks new locations on the fault reply (§5). *)
  let c, b = two_nodes () in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref x |] in
  Cluster.add_root c ~node:0 y;
  let _ = Cluster.bgc c ~node:0 ~bunch:b in
  (* Fault y at N1: its reference to the moved x must be usable. *)
  let y1 = Cluster.demand_fetch c ~node:1 y in
  (match Cluster.read c ~weak:true ~node:1 y1 0 with
  | Value.Ref p ->
      let s1 = Protocol.store (Cluster.proto c) 1 in
      check_bool "referent address resolvable at N1" true
        (Store.resolve s1 p <> None
        || Protocol.uid_of_addr (Cluster.proto c) (Store.current_addr s1 p) <> None)
  | Value.Data _ -> Alcotest.fail "y.f0 should be a pointer");
  check_bool "fault counted" true (Stats.get (Cluster.stats c) "dsm.app.faults" > 0)

(* A fetch reply piggybacks its location updates the way a grant does. *)
let test_demand_fetch_piggyback_counted () =
  check_updates_counted_once
    ~ship:(fun c p -> ignore (Cluster.demand_fetch c ~node:1 p))
    ~k:(fun c _ ->
      List.fold_left
        (fun acc e ->
          match e with
          | Trace_event.Updates_applied { node = 1; uids } -> acc + List.length uids
          | _ -> acc)
        0 (Trace_event.events (Cluster.evlog c)))

let test_demand_fetch_idempotent () =
  let c, b = two_nodes () in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let a1 = Cluster.demand_fetch c ~node:1 a in
  let msgs = Bmx_netsim.Net.total_messages (Cluster.net c) in
  let a1' = Cluster.demand_fetch c ~node:1 a1 in
  check_int "second fault is a local hit" msgs
    (Bmx_netsim.Net.total_messages (Cluster.net c));
  check_int "same address" a1 a1'

(* The O(1) dsm.copyset.max gauge is a histogram maintained at every
   copyset mutation site; drive a workload through grants, invalidations,
   ownership transfers, reclaims and a crash, and after each phase check
   the cached maximum against a brute-force directory scan. *)
let test_copyset_max_gauge () =
  let c = Cluster.create ~nodes:4 ~seed:7 () in
  let proto = Cluster.proto c in
  let scan () =
    let best = ref 0 in
    List.iter
      (fun n ->
        Directory.iter (Protocol.directory proto n) (fun r ->
            let k = Ids.Node_set.cardinal r.Directory.copyset in
            if k > !best then best := k))
      (Protocol.nodes proto);
    !best
  in
  let gauge () =
    match
      Bmx_obs.Metrics.get
        (Bmx_obs.Metrics.snapshot (Cluster.metrics c))
        "dsm.copyset.max"
    with
    | Some (Bmx_obs.Metrics.Gauge v) -> v
    | _ -> Alcotest.fail "dsm.copyset.max gauge missing"
  in
  let agree phase = check_int ("gauge = scan " ^ phase) (scan ()) (gauge ()) in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1; Value.nil |] in
  Cluster.add_root c ~node:0 a;
  agree "after alloc";
  (* Spread read copies: copyset of the owner grows to 3. *)
  List.iter
    (fun n ->
      let a' = Cluster.acquire_read c ~node:n a in
      Cluster.release c ~node:n a')
    [ 1; 2; 3 ];
  agree "after read spread";
  (* A write invalidates every reader: max collapses. *)
  let a' = Cluster.acquire_write c ~node:1 a in
  Cluster.write c ~node:1 a' 0 (Value.Data 2);
  Cluster.release c ~node:1 a';
  agree "after write invalidation";
  (* Regrow, then crash the owner: its directory (and copysets) die. *)
  List.iter
    (fun n ->
      let a' = Cluster.acquire_read c ~node:n a in
      Cluster.release c ~node:n a')
    [ 0; 2 ];
  agree "after regrow";
  Cluster.crash_node c ~node:1;
  agree "after owner crash";
  ignore (Cluster.drain c);
  agree "after drain"

(* ---------------------------------------------- in-place grant install *)

(* A second store holding [node]'s cells: a clone of every object at its
   address, then every forwarder. *)
let replay_store proto ~node =
  let s = Protocol.store proto node in
  let r = Store.create ~registry:(Protocol.registry proto) ~node in
  Store.iter s (fun a c ->
      match c with
      | Store.Object o -> Store.install r a (Heap_obj.clone o)
      | Store.Forwarder _ -> ());
  Store.iter s (fun a c ->
      match c with
      | Store.Forwarder target -> Store.set_forwarder r ~at:a ~target
      | Store.Object _ -> ());
  r

(* The general grant install: a clone at [gaddr], the copy elsewhere
   forwarded to it, its fields rewritten through the forwarders. *)
let reference_install r ~gaddr gobj =
  let prev =
    match Store.uid_addr r gobj.Heap_obj.uid with
    | p -> p
    | exception Not_found -> gaddr
  in
  let obj = Heap_obj.clone gobj in
  Store.install r gaddr obj;
  if prev <> gaddr then Store.set_forwarder r ~at:prev ~target:gaddr;
  ignore (Store.forward_fields r ~obj_addr:gaddr obj)

let cell_addrs st =
  let l = ref [] in
  Store.iter st (fun a _ -> l := a :: !l);
  List.sort compare !l

(* Fields, version and the reference-map bit of every field of every
   object, forwarders, object count and bytes, the uid index and the
   address history of [uids]. *)
let check_same_store ~uids s r =
  check_int "objects" (Store.object_count r) (Store.object_count s);
  check_int "bytes" (Store.objects_bytes r) (Store.objects_bytes s);
  check (Alcotest.list Alcotest.int) "cells" (cell_addrs r) (cell_addrs s);
  List.iter
    (fun a ->
      match (Store.cell s a, Store.cell r a) with
      | Some (Store.Object o), Some (Store.Object p) ->
          check_int "uid" p.Heap_obj.uid o.Heap_obj.uid;
          check_int "version" (Heap_obj.version p) (Heap_obj.version o);
          check_bool "fields" true
            (Heap_obj.fields_copy o = Heap_obj.fields_copy p);
          check_bool "object-map bit" true
            ((Store.find_segment s a).Bmx_memory.Segment.object_map |> fun m ->
             Bitmap.get m a);
          for i = 0 to Heap_obj.num_fields o - 1 do
            let f = Addr.add a (Heap_obj.header_bytes + (i * Addr.word)) in
            let bit st = Bitmap.get (Store.find_segment st a).Bmx_memory.Segment.ref_map f in
            check_bool "reference-map bit" (bit r) (bit s)
          done
      | Some (Store.Forwarder x), Some (Store.Forwarder y) -> check_int "forwarder" y x
      | _ -> Alcotest.failf "cell %d differs" a)
    (cell_addrs s);
  List.iter
    (fun u ->
      check_opt_int "uid index" (Store.addr_of_uid r u) (Store.addr_of_uid s u);
      check (Alcotest.list Alcotest.int) "address history"
        (Store.address_history r u) (Store.address_history s u))
    uids

(* N1 reads x, N0 takes the write token and rewrites every field (a
   pointer becomes data, data a pointer), so N1's copy is stale at the
   address N0 grants.  [stale] may then rearrange N1's store.  N1 reads
   x again; the reference replays N1's store as it was before that grant
   and installs a clone of N0's copy the general way.  Returns whether
   the grant kept N1's handle (installed in place). *)
let grant_against_reference ~stale =
  let c, b = two_nodes () in
  let proto = Cluster.proto c in
  let leaf = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |] in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref leaf; Value.Data 1; Value.nil |] in
  Cluster.release c ~node:1 (Cluster.acquire_read c ~node:1 x);
  let a0 = Cluster.acquire_write c ~node:0 x in
  Cluster.write c ~node:0 a0 0 (Value.Data 5);
  Cluster.write c ~node:0 a0 1 (Value.Ref leaf);
  Cluster.write c ~node:0 a0 2 (Value.Ref x);
  Cluster.release c ~node:0 a0;
  let s1 = Protocol.store proto 1 in
  stale s1 x;
  let r = replay_store proto ~node:1 in
  let before = Store.cell s1 x in
  let v_s = Store.mut_version s1 and v_r = Store.mut_version r in
  let a1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 a1;
  check_int "granted at the same address" x a1;
  reference_install r ~gaddr:x (Store.object_at (Protocol.store proto 0) x);
  let uids = [ Cluster.uid_at c ~node:0 x; Cluster.uid_at c ~node:0 leaf ] in
  check_same_store ~uids s1 r;
  check_int "store version moves as the install's"
    (Store.mut_version r - v_r) (Store.mut_version s1 - v_s);
  match (before, Store.cell s1 x) with
  | Some (Store.Object o), Some (Store.Object o') -> o == o'
  | _ -> false

let test_in_place_install_equals_fresh () =
  check_bool "stale copy overwritten in place" true
    (grant_against_reference ~stale:(fun _ _ -> ()));
  (* Fallback: a forwarder at the granted address (to a cell N1 does not
     hold), and no copy of x anywhere at N1. *)
  check_bool "forwarder at the address: a clone goes in" false
    (grant_against_reference ~stale:(fun s1 x ->
         Store.remove s1 x;
         Store.set_forwarder s1 ~at:x ~target:(x + 4096)));
  (* Fallback: a copy of another object at the address.  [overwrite]
     refuses it and changes nothing, so the grant installs a clone. *)
  let c, b = two_nodes () in
  let proto = Cluster.proto c in
  let y = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 2 |] in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 3 |] in
  let s0 = Protocol.store proto 0 in
  let v = Store.mut_version s0 in
  (match Store.overwrite s0 x ~from:(Store.object_at s0 y) with
  | _ -> Alcotest.fail "overwrote a copy of another object"
  | exception Not_found -> ());
  check_int "nothing changed" v (Store.mut_version s0);
  check_bool "x untouched" true
    (Heap_obj.fields_copy (Store.object_at s0 x) = [| Value.Data 3 |])

let () =
  Alcotest.run "dsm"
    [
      ( "tokens",
        [
          Alcotest.test_case "alloc grants write token" `Quick
            test_alloc_owner_has_write_token;
          Alcotest.test_case "read acquire replicates" `Quick test_read_acquire_replicates;
          Alcotest.test_case "write acquire transfers ownership" `Quick
            test_write_acquire_transfers_ownership;
          Alcotest.test_case "write invalidates readers" `Quick
            test_write_invalidates_readers;
          Alcotest.test_case "local reacquire is free" `Quick test_local_reacquire_free;
          Alcotest.test_case "write acquire across a copyset cycle" `Quick
            test_copyset_cycle_write_acquire;
          Alcotest.test_case "held tokens conflict" `Quick test_held_token_conflicts;
          Alcotest.test_case "read grant from reader (distributed)" `Quick
            test_read_token_from_reader_distributed;
          Alcotest.test_case "centralized copy-sets" `Quick test_centralized_mode;
          Alcotest.test_case "ownerPtr chains compress" `Quick
            test_ownerptr_chain_and_compression;
          Alcotest.test_case "distributed read stops at a reader" `Quick
            test_distributed_read_stops_at_reader;
          Alcotest.test_case "centralized read goes to the owner" `Quick
            test_centralized_read_goes_to_owner;
        ] );
      ( "data",
        [
          Alcotest.test_case "reads need a token" `Quick test_read_requires_token;
          Alcotest.test_case "writes need the write token" `Quick
            test_write_requires_write_token;
          Alcotest.test_case "ptr_eq follows forwarders" `Quick
            test_ptr_eq_follows_forwarders;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "invariant 1: fresh addresses on acquire" `Quick
            test_invariant1_acquire_returns_fresh_address;
          Alcotest.test_case "invariant 2: copy-set forwarding" `Quick
            test_invariant2_copyset_forwarding;
          Alcotest.test_case "grants count piggybacked updates once" `Quick
            test_grant_counts_updates_once;
          Alcotest.test_case "entering/exiting ownerPtrs" `Quick test_exiting_ownerptrs;
        ] );
      ( "fault-driven (§5)",
        [
          Alcotest.test_case "fetch installs an inconsistent copy" `Quick
            test_demand_fetch_basics;
          Alcotest.test_case "fetch carries location updates" `Quick
            test_demand_fetch_carries_updates;
          Alcotest.test_case "fetch replies count their piggyback" `Quick
            test_demand_fetch_piggyback_counted;
          Alcotest.test_case "fetch is idempotent" `Quick test_demand_fetch_idempotent;
          Alcotest.test_case "an in-place install equals a fresh one" `Quick
            test_in_place_install_equals_fresh;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "copyset.max gauge stays exact" `Quick
            test_copyset_max_gauge;
        ] );
    ]
