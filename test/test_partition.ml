(* End-to-end partition and storage-corruption regression tests.

   The contract under a network partition is CP-flavoured (§2.2's tokens
   are volatile leases, but a partition does not kill them): both sides
   keep computing and collecting their locally-owned objects, while any
   operation whose correctness needs a peer on the far side — moving a
   write token, invalidating a remote copy, adopting ownership — is
   refused until the partition heals.  Healing must therefore never
   reveal two owners of the same object, and no object reachable on
   either side may be lost to a collection that ran during the split.

   The storage half: a corrupted RVM log recovers to its last
   verifiable commit-terminated prefix, the fsck pass names exactly the
   cells that truncation cost, and a demand fetch from a surviving
   replica restores them — corruption may lose data, but never
   silently. *)

open Bmx_util
module Net = Bmx_netsim.Net
module Cluster = Bmx.Cluster
module Persist = Bmx.Persist
module Audit = Bmx.Audit
module Protocol = Bmx_dsm.Protocol
module Rvm = Bmx_rvm.Rvm
module Value = Bmx_memory.Value
module Lint = Bmx_check.Lint
module Races = Bmx_check.Races

(* BMX_CERTIFY=1 additionally replays each checked cluster's event
   trace through the happens-before certifier, as in test_faults. *)
let certify_soaks = Sys.getenv_opt "BMX_CERTIFY" <> None

let certify_trace ?(ctx = "") c =
  let cert = Races.check_log (Cluster.evlog c) in
  if not (Races.ok cert) then
    Alcotest.failf "%scertifier: %s" ctx
      (String.concat "; "
         (List.map Races.finding_to_string cert.Races.findings))

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let refused f =
  try
    f ();
    false
  with Failure _ -> true

let stat c name = Stats.get (Cluster.stats c) name

let assert_clean ?(ctx = "") c =
  (match Audit.check_safety c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%ssafety audit: %s" ctx m);
  (match Audit.check_tokens c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%stoken audit: %s" ctx m);
  (match Lint.check_all (Cluster.proto c) with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%slinter: %s" ctx (Lint.violation_to_string v));
  if certify_soaks then certify_trace ~ctx c

(* ------------------------------------------------- split-brain safety *)

let test_split_brain_write_refused () =
  let c = Cluster.create ~nodes:4 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1; Value.nil |] in
  Cluster.add_root c ~node:0 a;
  (* Node 2 becomes a read-copy holder across the future cut. *)
  let a2 = Cluster.acquire_read c ~node:2 a in
  ignore (Cluster.read c ~node:2 a2 0);
  Cluster.release c ~node:2 a2;
  ignore (Cluster.drain c);
  Cluster.partition c ~groups:[ [ 0; 1 ]; [ 2; 3 ] ];
  let uid = Cluster.uid_at c ~node:0 a in
  (* The minority side cannot steal the write token: the owner is merely
     unreachable, not dead, and granting here would make two owners
     visible at heal. *)
  check_bool "cross-cut write acquire refused" true
    (refused (fun () -> ignore (Cluster.acquire_write c ~node:2 a2)));
  (* The owner side cannot take it either: node 2's read copy would
     survive the invalidation it can no longer be sent. *)
  check_bool "owner-side write acquire refused while holder is cut" true
    (refused (fun () -> ignore (Cluster.acquire_write c ~node:0 a)));
  check (Alcotest.option Alcotest.int) "ownership never moved" (Some 0)
    (Cluster.owner_of c ~uid);
  (* Weak reads of the locally cached copy still work on both sides —
     availability degrades to inconsistent reads, not to a halt. *)
  ignore (Cluster.read c ~weak:true ~node:2 a2 0);
  ignore (Cluster.read c ~weak:true ~node:0 a 0);
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  (* Post-heal the transfer goes through exactly once. *)
  let a2' = Cluster.acquire_write c ~node:2 a2 in
  Cluster.write c ~node:2 a2' 0 (Value.Data 2);
  Cluster.release c ~node:2 a2';
  ignore (Cluster.drain c);
  check (Alcotest.option Alcotest.int) "exactly one owner after heal"
    (Some 2)
    (Cluster.owner_of c ~uid);
  check_bool "no reachable object lost" true
    (Ids.Uid_set.is_empty (Audit.lost_objects c));
  assert_clean c

let test_asymmetric_cut_refuses_rpcs () =
  let c = Cluster.create ~nodes:3 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 a;
  ignore (Cluster.drain c);
  (* Only the reply direction dies.  A synchronous token exchange needs
     both directions, so the acquire is refused just like a full cut. *)
  Cluster.cut_link c ~src:0 ~dst:2;
  check_bool "pair counts as unreachable" false (Cluster.reachable c 2 0);
  check_bool "acquire refused across a half-cut" true
    (refused (fun () -> ignore (Cluster.acquire_read c ~node:2 a)));
  Cluster.heal_link c ~src:0 ~dst:2;
  let a2 = Cluster.acquire_read c ~node:2 a in
  ignore (Cluster.read c ~node:2 a2 0);
  Cluster.release c ~node:2 a2;
  ignore (Cluster.drain c);
  ignore (Cluster.settle c);
  assert_clean c

let test_adoption_deferred_until_heal () =
  let c = Cluster.create ~nodes:3 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 a;
  let uid = Cluster.uid_at c ~node:0 a in
  (* Node 2 holds a replica that will sit on the far side of the cut. *)
  let a2 = Cluster.acquire_read c ~node:2 a in
  ignore (Cluster.read c ~node:2 a2 0);
  Cluster.release c ~node:2 a2;
  ignore (Cluster.drain c);
  let disk = Persist.create_disk () in
  ignore (Persist.checkpoint ~gc_roots:true c ~node:0 ~bunch:b disk);
  Cluster.crash_node c ~node:0;
  (* The owner restarts inside a partition that hides the surviving
     replica: recovery must not adopt — node 2's copy (and any token it
     could still be granted from a third party) would be invisible to
     the new owner. *)
  Cluster.partition c ~groups:[ [ 0; 1 ]; [ 2 ] ];
  Cluster.restart_node c ~node:0;
  ignore (Persist.recover_node c ~node:0 [ disk ]);
  check_int "adoption deferred, not forced" 1
    (stat c "persist.adopt_deferred_partition");
  check (Alcotest.option Alcotest.int) "object stays unowned for now" None
    (Cluster.owner_of c ~uid);
  (* Nothing lost meanwhile: copies exist on both sides. *)
  check_bool "no object lost during the split" true
    (Ids.Uid_set.is_empty (Audit.lost_objects c));
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  (* The post-heal recovery pass can now see the whole cluster and
     adopts cleanly — one owner, not two. *)
  ignore (Persist.restore c ~node:0 disk);
  check (Alcotest.option Alcotest.int) "adopted exactly once after heal"
    (Some 0)
    (Cluster.owner_of c ~uid);
  ignore (Cluster.settle c);
  assert_clean c

(* The long fault soak's seed 428, reduced: N1 takes o's write token,
   N2 checkpoints a replica, and o is then reclaimed everywhere.  N2
   crashes and recovers the stale image while cut off from N1.  No owner
   survived to split from, so the adoption is legal and the linter must
   stay quiet, although the last write grant went to N1. *)
let test_adoption_after_reclamation_clean () =
  let c = Cluster.create ~nodes:3 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 a;
  let uid = Cluster.uid_at c ~node:0 a in
  let a1 = Cluster.acquire_write c ~node:1 a in
  Cluster.write c ~node:1 a1 0 (Value.Data 2);
  Cluster.release c ~node:1 a1;
  let a2 = Cluster.acquire_read c ~node:2 a in
  ignore (Cluster.read c ~node:2 a2 0);
  Cluster.release c ~node:2 a2;
  Cluster.add_root c ~node:2 a2;
  let disk = Persist.create_disk () in
  ignore (Persist.checkpoint c ~node:2 ~bunch:b disk);
  Cluster.remove_root c ~node:0 a;
  Cluster.remove_root c ~node:2 a2;
  ignore (Cluster.collect_until_quiescent c ());
  check (Alcotest.option Alcotest.int) "no owner left" None
    (Cluster.owner_of c ~uid);
  check_bool "no copy left" false
    (List.exists (fun node -> Cluster.cached_at c ~node ~uid) [ 0; 1; 2 ]);
  Cluster.crash_node c ~node:2;
  Cluster.partition c ~groups:[ [ 0; 1 ]; [ 2 ] ];
  Cluster.restart_node c ~node:2;
  ignore (Persist.recover_node c ~node:2 [ disk ]);
  check (Alcotest.option Alcotest.int) "adopted by the recovering node"
    (Some 2) (Cluster.owner_of c ~uid);
  match Lint.check_log (Cluster.evlog c) with
  | [] -> ()
  | v :: _ -> Alcotest.failf "linter: %s" (Lint.violation_to_string v)

(* The split-brain guard itself: the recorded owner is up, merely cut
   off, so adoption must refuse before it touches any state.  Recovery
   never gets here ([Persist.restore] adopts only when no owner is
   recorded or the recorded one is down), so the call is direct. *)
let test_adoption_refused_while_owner_cut_off () =
  let c = Cluster.create ~nodes:2 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 a;
  let uid = Cluster.uid_at c ~node:0 a in
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  Cluster.add_root c ~node:1 a1;
  ignore (Cluster.drain c);
  let proto = Cluster.proto c in
  let record node =
    let r = Bmx_dsm.Directory.record (Protocol.directory proto node) uid in
    ( r.Bmx_dsm.Directory.is_owner,
      r.Bmx_dsm.Directory.prob_owner,
      r.Bmx_dsm.Directory.state,
      Ids.Node_set.elements r.Bmx_dsm.Directory.copyset )
  in
  let before = (record 0, record 1) in
  Cluster.partition c ~groups:[ [ 0 ]; [ 1 ] ];
  Alcotest.check_raises "the recorded-owner guard refuses"
    (Failure "Protocol.adopt_ownership: recorded owner unreachable (partition?)")
    (fun () -> Protocol.adopt_ownership proto ~node:1 ~uid);
  check (Alcotest.option Alcotest.int) "owner unchanged" (Some 0)
    (Cluster.owner_of c ~uid);
  check_bool "both directory records unchanged" true
    ((record 0, record 1) = before);
  let adopted = ref 0 in
  Trace_event.iter (Cluster.evlog c) (fun _ ev ->
      match ev with Trace_event.Owner_adopted _ -> incr adopted | _ -> ());
  check_int "no Owner_adopted logged" 0 !adopted

(* ------------------------------------------- GC degradation under cut *)

let test_gc_continues_on_both_sides () =
  let c = Cluster.create ~nodes:4 ~trace_events:true () in
  let b0 = Cluster.new_bunch c ~home:0 in
  let b1 = Cluster.new_bunch c ~home:2 in
  (* Live anchors on both sides. *)
  let keep0 = Cluster.alloc c ~node:0 ~bunch:b0 [| Value.Data 0; Value.nil |] in
  Cluster.add_root c ~node:0 keep0;
  let keep1 = Cluster.alloc c ~node:2 ~bunch:b1 [| Value.Data 1; Value.nil |] in
  Cluster.add_root c ~node:2 keep1;
  (* A cross-cut reference: keep1 (owned on the far side) points at y in
     b0, protected only by its scion at node 0. *)
  let y = Cluster.alloc c ~node:0 ~bunch:b0 [| Value.Data 9 |] in
  Cluster.add_root c ~node:0 y;
  let k1 = Cluster.acquire_write c ~node:2 keep1 in
  Cluster.write c ~node:2 k1 1 (Value.Ref y);
  Cluster.release c ~node:2 k1;
  ignore (Cluster.drain c);
  Cluster.remove_root c ~node:0 y;
  let yuid = Cluster.uid_at c ~node:0 y in
  (* Plain local garbage on each side. *)
  let g0 = Cluster.alloc c ~node:0 ~bunch:b0 [| Value.Data 2 |] in
  Cluster.add_root c ~node:0 g0;
  let g1 = Cluster.alloc c ~node:2 ~bunch:b1 [| Value.Data 3 |] in
  Cluster.add_root c ~node:2 g1;
  ignore (Cluster.drain c);
  Cluster.remove_root c ~node:0 g0;
  Cluster.remove_root c ~node:2 g1;
  let acquires_before =
    stat c "dsm.gc.acquire_read" + stat c "dsm.gc.acquire_write"
  in
  Cluster.partition c ~groups:[ [ 0; 1 ]; [ 2; 3 ] ];
  (* Both sides keep collecting their locally-owned garbage during the
     split. *)
  let reclaimed = ref 0 in
  for _ = 1 to 4 do
    reclaimed := !reclaimed + Cluster.gc_round c
  done;
  check_bool "local garbage reclaimed on both sides" true (!reclaimed >= 2);
  (* The collector stayed token-free even while partitioned (§5). *)
  check_int "gc acquired no tokens under partition" acquires_before
    (stat c "dsm.gc.acquire_read" + stat c "dsm.gc.acquire_write");
  (* The cross-cut-referenced object survives: its only reference lives
     on the far side, and quarantine errs conservative. *)
  check_bool "cross-partition-referenced object survives" true
    (Ids.Uid_set.mem yuid (Audit.cached_anywhere c));
  check_bool "no reachable object lost during the split" true
    (Ids.Uid_set.is_empty (Audit.lost_objects c));
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.settle c);
  check_bool "still cached after heal + full collection" true
    (Ids.Uid_set.mem yuid (Audit.cached_anywhere c));
  (* Now sever the one reference keeping y alive; the healed cluster's
     cleaner chain must converge and reclaim it. *)
  let k1' = Cluster.acquire_write c ~node:2 keep1 in
  Cluster.write c ~node:2 k1' 1 Value.nil;
  Cluster.release c ~node:2 k1';
  ignore (Cluster.drain c);
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.settle c);
  check_bool "unreferenced object reclaimed after heal" false
    (Ids.Uid_set.mem yuid (Audit.cached_anywhere c));
  check_int "wire empty" 0 (Net.pending (Cluster.net c));
  assert_clean c

let test_partition_during_gc_flip () =
  (* Cut the network while a collection's stub tables are still in
     flight: the undelivered tables ride out the cut (or are deferred to
     reachable destinations only) and the cleaner quarantines anything
     from an unreachable sender — §5's verdict must hold on the trace
     all the same. *)
  let c = Cluster.create ~nodes:4 ~trace_events:true () in
  let b0 = Cluster.new_bunch c ~home:0 in
  let b1 = Cluster.new_bunch c ~home:2 in
  let x = Cluster.alloc c ~node:0 ~bunch:b0 [| Value.Data 0; Value.nil |] in
  Cluster.add_root c ~node:0 x;
  let y = Cluster.alloc c ~node:2 ~bunch:b1 [| Value.Data 1 |] in
  Cluster.add_root c ~node:2 y;
  let x' = Cluster.acquire_write c ~node:0 x in
  Cluster.write c ~node:0 x' 1 (Value.Ref y);
  Cluster.release c ~node:0 x';
  ignore (Cluster.drain c);
  (* Collect with tables left undrained, then cut mid-flight. *)
  ignore (Cluster.bgc c ~node:0 ~bunch:b0);
  Cluster.partition c ~groups:[ [ 0; 1 ]; [ 2; 3 ] ];
  ignore (Cluster.drain c);
  ignore (Cluster.gc_round c);
  check_bool "nothing lost with tables in flight across the cut" true
    (Ids.Uid_set.is_empty (Audit.lost_objects c));
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.settle c);
  check_bool "referenced object survives the whole episode" true
    (Ids.Uid_set.mem (Cluster.uid_at c ~node:2 y) (Audit.cached_anywhere c));
  assert_clean c

let test_partition_during_ownership_transfer () =
  (* Partition immediately after a write-token transfer, before the
     background location updates drain: the far side must neither see
     two owners nor lose the object once the links heal. *)
  let c = Cluster.create ~nodes:4 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 a;
  let a3 = Cluster.acquire_read c ~node:3 a in
  Cluster.release c ~node:3 a3;
  ignore (Cluster.drain c);
  let uid = Cluster.uid_at c ~node:0 a in
  (* Transfer ownership 0 -> 1, then cut before the addr updates land. *)
  let a1 = Cluster.acquire_write c ~node:1 a in
  Cluster.write c ~node:1 a1 0 (Value.Data 2);
  Cluster.release c ~node:1 a1;
  Cluster.partition c ~groups:[ [ 0; 1 ]; [ 2; 3 ] ];
  ignore (Cluster.drain c);
  check (Alcotest.option Alcotest.int) "one owner during the split" (Some 1)
    (Cluster.owner_of c ~uid);
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  ignore (Cluster.drain c);
  check (Alcotest.option Alcotest.int) "one owner after heal" (Some 1)
    (Cluster.owner_of c ~uid);
  (* The stale side can reach the new owner again. *)
  let a3' = Cluster.acquire_read c ~node:3 a in
  check (Alcotest.string) "post-heal read sees the new value" "ok"
    (match Cluster.read c ~node:3 a3' 0 with
    | Value.Data 2 -> "ok"
    | _ -> "stale");
  Cluster.release c ~node:3 a3';
  ignore (Cluster.drain c);
  ignore (Cluster.settle c);
  assert_clean c

(* --------------------------------------- corruption, fsck and refetch *)

let test_corruption_fsck_and_refetch () =
  let c = Cluster.create ~nodes:3 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0; Value.nil |] in
  Cluster.add_root c ~node:0 a;
  let disk = Persist.create_disk () in
  ignore (Persist.checkpoint ~gc_roots:true c ~node:0 ~bunch:b disk);
  let len1 = Rvm.log_length disk in
  (* A second generation: a new object X whose authoritative copy moves
     to node 2, with node 0 keeping a replica; plus a pointer a -> X. *)
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 7 |] in
  let x2 = Cluster.acquire_write c ~node:2 x in
  Cluster.write c ~node:2 x2 0 (Value.Data 8);
  Cluster.release c ~node:2 x2;
  Cluster.add_root c ~node:2 x2;
  ignore (Cluster.drain c);
  let x0 = Cluster.demand_fetch c ~node:0 x in
  let a' = Cluster.acquire_write c ~node:0 a in
  Cluster.write c ~node:0 a' 1 (Value.Ref x0);
  Cluster.release c ~node:0 a';
  ignore (Cluster.drain c);
  let xuid = Cluster.uid_at c ~node:0 x0 in
  let auid = Cluster.uid_at c ~node:0 a in
  ignore (Persist.checkpoint ~gc_roots:true c ~node:0 ~bunch:b disk);
  (* Bit rot strikes the first record of the second checkpoint: the
     whole second generation becomes unverifiable. *)
  Persist.corrupt_disk c ~node:0 disk (Persist.Flip_bits len1);
  check_int "fault accounted" 1 (stat c "rvm.faults_injected");
  Cluster.crash_node c ~node:0;
  Cluster.restart_node c ~node:0;
  ignore (Persist.recover_node c ~node:0 [ disk ]);
  check_bool "recovery dropped the unverifiable suffix" true
    (stat c "rvm.records_dropped" > 0);
  (* The first generation survived: a is back (stale contents). *)
  check_bool "prefix object restored" true
    (Bmx_memory.Store.addr_of_uid (Protocol.store (Cluster.proto c) 0) auid
    <> None);
  (* fsck names exactly the truncated cell that has no local copy. *)
  let fsck = Persist.verify_bunch c ~node:0 ~bunch:b disk in
  check_int "one cell missing" 1 (List.length fsck.Persist.f_missing);
  let missing_addr, missing_uid = List.hd fsck.Persist.f_missing in
  check (Alcotest.option Alcotest.int) "fsck identifies the lost object"
    (Some xuid) missing_uid;
  (* Never silently: the authoritative copy survived at node 2, so the
     audit does not count X lost even before the refetch. *)
  check_bool "nothing silently lost" true
    (Ids.Uid_set.is_empty (Audit.lost_objects c));
  (* Refetch from the surviving owner repairs the replica. *)
  ignore (Cluster.demand_fetch c ~node:0 missing_addr);
  let fsck2 = Persist.verify_bunch c ~node:0 ~bunch:b disk in
  check_int "fsck clean after refetch" 0 (List.length fsck2.Persist.f_missing);
  ignore (Cluster.drain c);
  ignore (Cluster.settle c);
  assert_clean c

(* A corruption soak: random faults against multi-generation logs.  The
   gate is honesty, not immunity — recovery may drop data, but every
   reachable object is either still cached somewhere, or named by the
   fsck report; nothing vanishes silently. *)
let corruption_soak_one seed =
  let rng = Rng.make (seed * 104729) in
  let c = Cluster.create ~nodes:3 ~seed ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let disk = Persist.create_disk () in
  let objs = ref [] in
  for gen = 1 to 3 do
    for _ = 1 to 2 do
      let a =
        Cluster.alloc c ~node:0 ~bunch:b
          [| Value.Data (100 * gen); Value.nil |]
      in
      Cluster.add_root c ~node:0 a;
      (* Half the objects gain a surviving replica + owner elsewhere. *)
      if Rng.int rng 100 < 50 then begin
        let a2 = Cluster.acquire_write c ~node:2 a in
        Cluster.write c ~node:2 a2 0 (Value.Data (100 * gen + 1));
        Cluster.release c ~node:2 a2;
        Cluster.add_root c ~node:2 a2
      end;
      objs := a :: !objs
    done;
    ignore (Cluster.drain c);
    ignore (Persist.checkpoint ~gc_roots:true c ~node:0 ~bunch:b disk)
  done;
  let len = Rvm.log_length disk in
  let fault =
    match Rng.int rng 3 with
    | 0 -> Persist.Flip_bits (Rng.int rng len)
    | 1 -> Persist.Drop_record (Rng.int rng len)
    | _ -> Persist.Truncate_mid_record
  in
  Persist.corrupt_disk c ~node:0 disk fault;
  Cluster.crash_node c ~node:0;
  Cluster.restart_node c ~node:0;
  ignore (Persist.recover_node c ~node:0 [ disk ]);
  let fsck = Persist.verify_bunch c ~node:0 ~bunch:b disk in
  (* Refetch whatever still has an owner somewhere. *)
  List.iter
    (fun (addr, uid) ->
      match uid with
      | Some uid when Cluster.owner_of c ~uid <> None ->
          ignore (Cluster.demand_fetch c ~node:0 addr)
      | _ -> ())
    fsck.Persist.f_missing;
  ignore (Cluster.drain c);
  ignore (Cluster.settle c);
  (* Anything the audit counts lost must have been named by the fsck —
     corruption is allowed to cost data, never to hide the cost. *)
  let named =
    List.fold_left
      (fun s (_, uid) ->
        match uid with Some u -> Ids.Uid_set.add u s | None -> s)
      Ids.Uid_set.empty fsck.Persist.f_missing
  in
  let lost = Audit.lost_objects c in
  if not (Ids.Uid_set.subset lost named) then
    Alcotest.failf "seed %d: silent loss: %s" seed
      (String.concat ","
         (List.map Ids.Uid.to_string
            (Ids.Uid_set.elements (Ids.Uid_set.diff lost named))));
  (match Audit.check_tokens c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "seed %d: token audit: %s" seed m);
  (match Lint.check_all (Cluster.proto c) with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "seed %d: linter: %s" seed (Lint.violation_to_string v));
  if certify_soaks then certify_trace ~ctx:(Printf.sprintf "seed %d: " seed) c

(* BMX_SOAK_SEEDS overrides the seed count, as in test_faults (CI
   shards and bisection runs). *)
let soak_seeds =
  match Sys.getenv_opt "BMX_SOAK_SEEDS" with
  | Some s -> int_of_string s
  | None -> 12

let test_corruption_soak () =
  for seed = 1 to soak_seeds do
    corruption_soak_one seed
  done

let () =
  Alcotest.run "partition"
    [
      ( "split-brain",
        [
          Alcotest.test_case "cross-cut write transfer refused" `Quick
            test_split_brain_write_refused;
          Alcotest.test_case "asymmetric cut refuses rpcs" `Quick
            test_asymmetric_cut_refuses_rpcs;
          Alcotest.test_case "adoption deferred until heal" `Quick
            test_adoption_deferred_until_heal;
          Alcotest.test_case "adoption after reclamation clean" `Quick
            test_adoption_after_reclamation_clean;
          Alcotest.test_case "adoption refused while owner cut off" `Quick
            test_adoption_refused_while_owner_cut_off;
        ] );
      ( "gc-degradation",
        [
          Alcotest.test_case "gc continues on both sides" `Quick
            test_gc_continues_on_both_sides;
          Alcotest.test_case "partition during gc flip" `Quick
            test_partition_during_gc_flip;
          Alcotest.test_case "partition during ownership transfer" `Quick
            test_partition_during_ownership_transfer;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "fsck and refetch" `Quick
            test_corruption_fsck_and_refetch;
          Alcotest.test_case "corruption soak" `Slow test_corruption_soak;
        ] );
    ]
