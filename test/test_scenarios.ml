(* Executable reproductions of the paper's Figures 1-4 (experiments E1-E4). *)

open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory
module Store = Bmx_memory.Store
module Value = Bmx_memory.Value
module Gc_state = Bmx_gc.Gc_state
module Scenario = Bmx_workload.Scenario

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_opt_int = check (Alcotest.option Alcotest.int)

let uid c ~node addr = Cluster.uid_at c ~node addr

(* ------------------------------------------------------------- Figure 1 *)

let test_fig1_tables () =
  let f = Scenario.figure1 () in
  let c = f.Scenario.f1_cluster in
  let gc = Cluster.gc c in
  (* One inter-bunch stub for o3 -> o5, held at N2 (where the reference
     was created), even though o3 is cached on both N1 and N2. *)
  let stubs_n2 = Gc_state.inter_stubs gc ~node:f.f1_n2 ~bunch:f.f1_b1 in
  let stubs_n1 = Gc_state.inter_stubs gc ~node:f.f1_n1 ~bunch:f.f1_b1 in
  check_int "one inter-bunch stub at N2" 1 (List.length stubs_n2);
  check_int "no inter-bunch stub at N1" 0 (List.length stubs_n1);
  let stub = List.hd stubs_n2 in
  check_int "stub target is o5" (uid c ~node:f.f1_n3 f.f1_o5) stub.Bmx_gc.Ssp.is_target_uid;
  check_int "stub's scion lives at N3" f.f1_n3 stub.Bmx_gc.Ssp.is_scion_at;
  (* The matching inter-bunch scion was created at N3 by a scion-message. *)
  let scions_n3 = Gc_state.inter_scions gc ~node:f.f1_n3 ~bunch:f.f1_b2 in
  check_int "one inter-bunch scion at N3" 1 (List.length scions_n3);
  check_bool "stub and scion match" true
    (Bmx_gc.Ssp.inter_stub_matches stub (List.hd scions_n3));
  (* The ownership transfer N2 -> N1 created the intra-bunch SSP:
     stub at N1 (new owner), scion at N2 (old owner holding the stub). *)
  let intra_stubs_n1 = Gc_state.intra_stubs gc ~node:f.f1_n1 ~bunch:f.f1_b1 in
  check_int "one intra-bunch stub at N1" 1 (List.length intra_stubs_n1);
  check_int "intra stub names N2 as holder" f.f1_n2
    (List.hd intra_stubs_n1).Bmx_gc.Ssp.ns_holder;
  let intra_scions_n2 = Gc_state.intra_scions gc ~node:f.f1_n2 ~bunch:f.f1_b1 in
  check_int "one intra-bunch scion at N2" 1 (List.length intra_scions_n2);
  check_int "intra scion names N1 as owner side" f.f1_n1
    (List.hd intra_scions_n2).Bmx_gc.Ssp.xn_owner_side

let test_fig1_tokens () =
  let f = Scenario.figure1 () in
  let c = f.Scenario.f1_cluster in
  let proto = Cluster.proto c in
  let o3_uid = uid c ~node:f.f1_n1 f.f1_o3 in
  (* N1 owns o3 after the transfer; N2 keeps an inconsistent copy. *)
  check_opt_int "owner of o3" (Some f.f1_n1)
    (Protocol.owner_of proto o3_uid);
  (match Directory.find (Protocol.directory proto f.f1_n2) o3_uid with
  | Some r ->
      check_bool "N2 no longer owner of o3" false r.Directory.is_owner;
      check_bool "N2's o3 copy is inconsistent" true
        (r.Directory.state = Directory.Invalid)
  | None -> Alcotest.fail "N2 lost its record of o3");
  check_bool "o3 still cached at N2" true
    (Cluster.cached_at c ~node:f.f1_n2 ~uid:o3_uid);
  (* o5 is owned by N3 and cached nowhere else. *)
  let o5_uid = uid c ~node:f.f1_n3 f.f1_o5 in
  check_opt_int "owner of o5" (Some f.f1_n3)
    (Protocol.owner_of proto o5_uid);
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

(* ------------------------------------------------------------- Figure 2 *)

let test_fig2_bgc_copies_only_owned () =
  let f = Scenario.figure1 () in
  let c = f.Scenario.f1_cluster in
  let proto = Cluster.proto c in
  let o1_uid = uid c ~node:f.f1_n1 f.f1_o1 in
  let o2_uid = uid c ~node:f.f1_n1 f.f1_o2 in
  let o3_uid = uid c ~node:f.f1_n1 f.f1_o3 in
  let o2_at_n1_before = Store.addr_of_uid (Protocol.store proto f.f1_n1) o2_uid in
  let o2_at_n2_before = Store.addr_of_uid (Protocol.store proto f.f1_n2) o2_uid in
  (* BGC of B1 at N2: N2 owns only o2 there (o1 owned by N1, o3
     transferred to N1), so exactly one object is copied. *)
  let report = Cluster.bgc c ~node:f.f1_n2 ~bunch:f.f1_b1 in
  check_int "exactly one object copied" 1 report.Bmx_gc.Collect.r_copied;
  check_int "nothing reclaimed (all live)" 0 report.Bmx_gc.Collect.r_reclaimed;
  let o2_at_n2_after = Store.addr_of_uid (Protocol.store proto f.f1_n2) o2_uid in
  check_bool "o2 moved at N2" true (o2_at_n2_before <> o2_at_n2_after);
  (* o1 and o3 were scanned in place: same addresses. *)
  check_opt_int "o1 unmoved at N2"
    (Store.addr_of_uid (Protocol.store proto f.f1_n2) o1_uid)
    (Store.addr_of_uid (Protocol.store proto f.f1_n2) o1_uid);
  check_bool "o3 still at N2" true (Cluster.cached_at c ~node:f.f1_n2 ~uid:o3_uid);
  (* N1 has NOT been informed: its o2 is still at the old address
     (addresses diverge across replicas; the DSM data stays consistent). *)
  let o2_at_n1_after = Store.addr_of_uid (Protocol.store proto f.f1_n1) o2_uid in
  check_opt_int "N1 still sees o2 at the old address"
    o2_at_n1_before o2_at_n1_after;
  (* Pointers into o2 were updated locally at N2 without any token:
     o1.f0 and o3.f1 now name the new address. *)
  let n2_store = Protocol.store proto f.f1_n2 in
  let o1_at_n2 = Option.get (Store.addr_of_uid n2_store o1_uid) in
  (match Store.resolve n2_store o1_at_n2 with
  | Some (_, obj) -> (
      match Bmx_memory.Heap_obj.get obj 0 with
      | Value.Ref a ->
          check_opt_int "o1.f0 updated at N2"
            o2_at_n2_after (Some a)
      | Value.Data _ -> Alcotest.fail "o1.f0 should be a pointer")
  | None -> Alcotest.fail "o1 missing at N2");
  (* No token was acquired by the collector. *)
  check_int "collector acquired no token" 0
    (Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
    + Stats.get (Cluster.stats c) "dsm.gc.acquire_write");
  (* Mutators on both nodes still work: N1 reads o1 -> o2 (old address,
     resolves through its own replica). *)
  let v = Cluster.read c ~weak:true ~node:f.f1_n1 f.f1_o2 0 in
  check_bool "N1 can still read o2" true (match v with Value.Ref _ -> true | _ -> true);
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

(* ------------------------------------------------------------- Figure 3 *)

let fig3_acquire_and_check case =
  let f = Scenario.figure3 ~case in
  let c = f.Scenario.f3_cluster in
  let proto = Cluster.proto c in
  (* The write-token acquire of o1 by N2 (§5's walkthrough). *)
  let o1_at_n2 = Cluster.acquire_write c ~node:f.f3_n2 f.f3_o1 in
  (* Invariant 1: o1's address and every reference inside it are valid at
     N2 before the acquire returns. *)
  let n2_store = Protocol.store proto f.f3_n2 in
  (match Store.resolve n2_store o1_at_n2 with
  | None -> Alcotest.fail "o1 not resolvable at N2 after acquire"
  | Some (_, obj) -> (
      match Bmx_memory.Heap_obj.get obj 0 with
      | Value.Ref o2_ptr -> (
          match Store.resolve n2_store o2_ptr with
          | Some (_, o2_obj) ->
              check_int "o1's field reaches o2 at N2"
                f.Scenario.f3_o2_uid o2_obj.Bmx_memory.Heap_obj.uid
          | None -> Alcotest.fail "o1's o2-reference dangles at N2")
      | Value.Data _ -> Alcotest.fail "o1.f0 should be a pointer"));
  Cluster.release c ~node:f.f3_n2 o1_at_n2;
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c));
  (* N2 is now the owner and its copy is writable. *)
  check_opt_int "N2 owns o1" (Some f.f3_n2)
    (Protocol.owner_of proto f.Scenario.f3_o1_uid)

let test_fig3_case_a () = fig3_acquire_and_check Scenario.Case_a
let test_fig3_case_b () = fig3_acquire_and_check Scenario.Case_b
let test_fig3_case_c () = fig3_acquire_and_check Scenario.Case_c
let test_fig3_case_d () = fig3_acquire_and_check Scenario.Case_d

let test_fig3_invariant3 () =
  (* Transfer of an object whose old owner holds inter-bunch stubs must
     create the intra-bunch SSP before the grant completes. *)
  let f = Scenario.figure4 () in
  let c = f.Scenario.f4_cluster in
  let gc = Cluster.gc c in
  let stubs_n2 = Gc_state.intra_stubs gc ~node:f.f4_n2 ~bunch:f.f4_bunch in
  check_int "intra stub at the new owner N2" 1 (List.length stubs_n2);
  check_int "intra stub names N3" f.f4_n3 (List.hd stubs_n2).Bmx_gc.Ssp.ns_holder;
  let scions_n3 = Gc_state.intra_scions gc ~node:f.f4_n3 ~bunch:f.f4_bunch in
  check_int "intra scion at the old owner N3" 1 (List.length scions_n3)

let test_fig1_centralized_mode () =
  (* The prototype's centralized copy-sets (§8) must produce the same
     SSP tables as the distributed design. *)
  let f = Scenario.figure1 ~mode:Protocol.Centralized () in
  let c = f.Scenario.f1_cluster in
  let gc = Cluster.gc c in
  check_int "one inter-bunch stub at N2" 1
    (List.length (Gc_state.inter_stubs gc ~node:f.f1_n2 ~bunch:f.f1_b1));
  check_int "one inter-bunch scion at N3" 1
    (List.length (Gc_state.inter_scions gc ~node:f.f1_n3 ~bunch:f.f1_b2));
  check_int "one intra stub at N1" 1
    (List.length (Gc_state.intra_stubs gc ~node:f.f1_n1 ~bunch:f.f1_b1));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_invariant3_third_party_holder () =
  (* Ownership chain: the stub holder is NOT the granter.  o is created
     (with an inter-bunch ref) at N1, moves to N2, then to N3.  The
     second transfer's granter (N2) only has an intra-bunch stub naming
     N1; invariant 3 must give N3 a DIRECT intra SSP to N1 — chains of
     intra SSPs never form (§3.2). *)
  let c = Cluster.create ~nodes:4 () in
  let n1 = 1 and n2 = 2 and n3 = 3 in
  let b = Cluster.new_bunch c ~home:n1 in
  let tb = Cluster.new_bunch c ~home:n1 in
  let target = Cluster.alloc c ~node:n1 ~bunch:tb [| Value.Data 1 |] in
  let o = Cluster.alloc c ~node:n1 ~bunch:b [| Value.Ref target |] in
  let o2 = Cluster.acquire_write c ~node:n2 o in
  Cluster.release c ~node:n2 o2;
  let o3 = Cluster.acquire_write c ~node:n3 o2 in
  Cluster.release c ~node:n3 o3;
  ignore (Cluster.drain c);
  let gc = Cluster.gc c in
  let stubs_n3 = Gc_state.intra_stubs gc ~node:n3 ~bunch:b in
  check_int "one intra stub at the new owner" 1 (List.length stubs_n3);
  check_int "stub points DIRECTLY at the inter-stub holder N1" n1
    (List.hd stubs_n3).Bmx_gc.Ssp.ns_holder;
  check_bool "matching scion at N1" true
    (List.exists
       (fun (s : Bmx_gc.Ssp.intra_scion) -> s.Bmx_gc.Ssp.xn_owner_side = n3)
       (Gc_state.intra_scions gc ~node:n1 ~bunch:b));
  (* The whole chain still protects the inter-bunch target. *)
  Cluster.add_root c ~node:n3 o3;
  ignore (Cluster.collect_until_quiescent c ());
  check_bool "target alive through the chain" true
    (Bmx_util.Ids.Uid_set.mem
       (Cluster.uid_at c ~node:n1 target)
       (Bmx.Audit.cached_anywhere c));
  (* Drop the root: everything unwinds, including at the old holders. *)
  Cluster.remove_root c ~node:n3 o3;
  ignore (Cluster.collect_until_quiescent c ());
  check_int "everything reclaimed" 0 (Bmx.Audit.total_cached_copies c)

let test_invariant3_ignores_unrelated_stubs () =
  (* The granter N2 holds, for the transferred object o, an inter-bunch
     stub (it wrote a cross-bunch reference into o) and an intra-bunch
     stub naming N1 (o reached it from N1, which holds o's original
     inter stub).  Next to them it holds stubs of the same bunch for
     other objects: u's inter stub and w's intra stub.  The transfer to
     N3 must create exactly two intra SSPs, both for o: one towards the
     granter and one directly towards N1. *)
  let c = Cluster.create ~nodes:4 () in
  let n1 = 1 and n2 = 2 and n3 = 3 in
  let b = Cluster.new_bunch c ~home:n1 in
  let tb = Cluster.new_bunch c ~home:n1 in
  let target = Cluster.alloc c ~node:n1 ~bunch:tb [| Value.Data 1 |] in
  let target2 = Cluster.alloc c ~node:n1 ~bunch:tb [| Value.Data 2 |] in
  let o = Cluster.alloc c ~node:n1 ~bunch:b [| Value.Ref target; Value.nil |] in
  let w = Cluster.alloc c ~node:n1 ~bunch:b [| Value.Ref target |] in
  let o2 = Cluster.acquire_write c ~node:n2 o in
  Cluster.write c ~node:n2 o2 1 (Value.Ref target2);
  Cluster.release c ~node:n2 o2;
  let w2 = Cluster.acquire_write c ~node:n2 w in
  Cluster.release c ~node:n2 w2;
  let _u = Cluster.alloc c ~node:n2 ~bunch:b [| Value.Ref target |] in
  ignore (Cluster.drain c);
  let gc = Cluster.gc c in
  let o_uid = uid c ~node:n1 o in
  check_int "granter holds two inter stubs of the bunch" 2
    (List.length (Gc_state.inter_stubs gc ~node:n2 ~bunch:b));
  check_int "granter holds two intra stubs of the bunch" 2
    (List.length (Gc_state.intra_stubs gc ~node:n2 ~bunch:b));
  let created () = Stats.get (Cluster.stats c) "gc.intra_ssp.created" in
  let created0 = created () in
  let o3 = Cluster.acquire_write c ~node:n3 o2 in
  Cluster.release c ~node:n3 o3;
  ignore (Cluster.drain c);
  check_int "exactly two intra SSPs created" 2 (created () - created0);
  let stubs_n3 = Gc_state.intra_stubs gc ~node:n3 ~bunch:b in
  check_bool "both new stubs are for o" true
    (List.for_all (fun (s : Bmx_gc.Ssp.intra_stub) -> s.Bmx_gc.Ssp.ns_uid = o_uid) stubs_n3);
  check (Alcotest.list Alcotest.int) "stub holders: N1 directly, and the granter"
    [ n1; n2 ]
    (List.sort compare
       (List.map (fun (s : Bmx_gc.Ssp.intra_stub) -> s.Bmx_gc.Ssp.ns_holder) stubs_n3));
  let scions_for_n3 node =
    List.filter
      (fun (s : Bmx_gc.Ssp.intra_scion) ->
        s.Bmx_gc.Ssp.xn_owner_side = n3 && s.Bmx_gc.Ssp.xn_uid = o_uid)
      (Gc_state.intra_scions gc ~node ~bunch:b)
  in
  check_int "matching scion at the granter" 1 (List.length (scions_for_n3 n2));
  check_int "matching scion at N1" 1 (List.length (scions_for_n3 n1));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

(* ------------------------------------------------------------- Figure 4 *)

let test_fig4_deletion_chain () =
  let f = Scenario.figure4 () in
  let c = f.Scenario.f4_cluster in
  let cached node = Cluster.cached_at c ~node ~uid:f.Scenario.f4_o1_uid in
  check_bool "o1 on N1" true (cached f.f4_n1);
  check_bool "o1 on N2" true (cached f.f4_n2);
  check_bool "o1 on N3" true (cached f.f4_n3);
  (* While the root at N1 lives, no round of collection may reclaim any
     replica of o1 (the intra SSP and entering ownerPtrs protect them). *)
  ignore (Cluster.collect_until_quiescent c ());
  check_bool "o1 survives everywhere while rooted at N1" true
    (cached f.f4_n1 && cached f.f4_n2 && cached f.f4_n3);
  check_bool "target object survives" true
    (Bmx_util.Ids.Uid_set.mem f.f4_target_uid (Bmx.Audit.cached_anywhere c));
  (* Drop the only root: the §6.2 chain must reclaim o1 at N1, then N2,
     then N3, and finally the inter-bunch target. *)
  Cluster.remove_root c ~node:f.f4_n1 f.f4_o1;
  ignore (Cluster.collect_until_quiescent c ());
  check_bool "o1 reclaimed at N1" false (cached f.f4_n1);
  check_bool "o1 reclaimed at N2" false (cached f.f4_n2);
  check_bool "o1 reclaimed at N3" false (cached f.f4_n3);
  check_bool "inter-bunch target reclaimed too" false
    (Bmx_util.Ids.Uid_set.mem f.f4_target_uid (Bmx.Audit.cached_anywhere c));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let () =
  Alcotest.run "scenarios"
    [
      ( "figure1",
        [
          Alcotest.test_case "stub and scion tables" `Quick test_fig1_tables;
          Alcotest.test_case "token states and owners" `Quick test_fig1_tokens;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "BGC copies only locally-owned objects" `Quick
            test_fig2_bgc_copies_only_owned;
        ] );
      ( "figure3",
        [
          Alcotest.test_case "case a: no GC anywhere" `Quick test_fig3_case_a;
          Alcotest.test_case "case b: granter moved both" `Quick test_fig3_case_b;
          Alcotest.test_case "case c: granter moved o1 only" `Quick test_fig3_case_c;
          Alcotest.test_case "case d: requester moved o2" `Quick test_fig3_case_d;
          Alcotest.test_case "invariant 3 creates intra SSP" `Quick
            test_fig3_invariant3;
          Alcotest.test_case "figure 1 under centralized copy-sets" `Quick
            test_fig1_centralized_mode;
          Alcotest.test_case "invariant 3: third-party stub holder" `Quick
            test_invariant3_third_party_holder;
          Alcotest.test_case "invariant 3: unrelated stubs make no SSP" `Quick
            test_invariant3_ignores_unrelated_stubs;
        ] );
      ( "figure4",
        [
          Alcotest.test_case "cross-replica deletion chain" `Quick
            test_fig4_deletion_chain;
        ] );
    ]
