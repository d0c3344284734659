(* The experiment harness: one table per figure (E1-E4) and per claim
   (E5-E13) of the paper.  See DESIGN.md §3 for the index and
   EXPERIMENTS.md for expected-vs-measured. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory
module Store = Bmx_memory.Store
module Value = Bmx_memory.Value
module Net = Bmx_netsim.Net
module Gc_state = Bmx_gc.Gc_state
module Scenario = Bmx_workload.Scenario
module Graphgen = Bmx_workload.Graphgen
module Driver = Bmx_workload.Driver
module Locking_gc = Bmx_baseline.Locking_gc
module Refcount = Bmx_baseline.Refcount
open Harness

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  let f = Scenario.figure1 () in
  let c = f.Scenario.f1_cluster in
  let gc = Cluster.gc c in
  let t =
    Table.create ~title:"E1 (Figure 1): stub/scion tables after setup"
      ~columns:[ "node"; "table"; "entry" ]
  in
  List.iter
    (fun node ->
      List.iter
        (fun bunch ->
          List.iter
            (fun s ->
              Table.add_row t
                [ Ids.Node.to_string node; "inter-stub"; Fmt.str "%a" Bmx_gc.Ssp.pp_inter_stub s ])
            (Gc_state.inter_stubs gc ~node ~bunch);
          List.iter
            (fun s ->
              Table.add_row t
                [ Ids.Node.to_string node; "inter-scion"; Fmt.str "%a" Bmx_gc.Ssp.pp_inter_scion s ])
            (Gc_state.inter_scions gc ~node ~bunch);
          List.iter
            (fun s ->
              Table.add_row t
                [ Ids.Node.to_string node; "intra-stub"; Fmt.str "%a" Bmx_gc.Ssp.pp_intra_stub s ])
            (Gc_state.intra_stubs gc ~node ~bunch);
          List.iter
            (fun s ->
              Table.add_row t
                [ Ids.Node.to_string node; "intra-scion"; Fmt.str "%a" Bmx_gc.Ssp.pp_intra_scion s ])
            (Gc_state.intra_scions gc ~node ~bunch))
        [ f.f1_b1; f.f1_b2 ])
    [ f.f1_n1; f.f1_n2; f.f1_n3 ];
  let t2 =
    Table.create ~title:"E1 (Figure 1): token state per object per node"
      ~columns:[ "object"; "N1"; "N2"; "N3" ]
  in
  let proto = Cluster.proto c in
  let state_of node addr =
    match Store.resolve (Protocol.store proto node) addr with
    | None -> (
        match Protocol.uid_of_addr proto addr with
        | Some uid when Store.addr_of_uid (Protocol.store proto node) uid <> None ->
            "cached"
        | _ -> "-")
    | Some (_, obj) -> (
        match Directory.find (Protocol.directory proto node) obj.Bmx_memory.Heap_obj.uid with
        | Some r ->
            Directory.token_state_to_string r.Directory.state
            ^ (if r.Directory.is_owner then ",o" else "")
        | None -> "?")
  in
  List.iter
    (fun (name, addr) ->
      Table.add_row t2
        [ name; state_of f.f1_n1 addr; state_of f.f1_n2 addr; state_of f.f1_n3 addr ])
    [ ("o1", f.f1_o1); ("o2", f.f1_o2); ("o3", f.f1_o3); ("o5", f.f1_o5) ];
  [ t; t2 ]

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  let f = Scenario.figure1 () in
  let c = f.Scenario.f1_cluster in
  let proto = Cluster.proto c in
  let uid_of a = Cluster.uid_at c ~node:f.f1_n1 a in
  let addr_at node u =
    match Store.addr_of_uid (Protocol.store proto node) u with
    | Some a -> Addr.to_string a
    | None -> "-"
  in
  let before =
    List.map
      (fun (n, a) -> (n, addr_at f.f1_n1 (uid_of a), addr_at f.f1_n2 (uid_of a)))
      [ ("o1", f.f1_o1); ("o2", f.f1_o2); ("o3", f.f1_o3) ]
  in
  let report, ms = time_ms (fun () -> Cluster.bgc c ~node:f.f1_n2 ~bunch:f.f1_b1) in
  let t =
    Table.create ~title:"E2 (Figure 2): BGC at N2 copies only locally-owned o2"
      ~columns:[ "object"; "N1 before"; "N2 before"; "N1 after"; "N2 after"; "moved at N2" ]
  in
  List.iter
    (fun (n, a1b, a2b) ->
      let u = uid_of (match n with "o1" -> f.f1_o1 | "o2" -> f.f1_o2 | _ -> f.f1_o3) in
      let a1a = addr_at f.f1_n1 u and a2a = addr_at f.f1_n2 u in
      Table.add_row t [ n; a1b; a2b; a1a; a2a; bool_cell (a2b <> a2a) ])
    before;
  let t2 =
    Table.create ~title:"E2: collection profile (claim: owner-only copying, no tokens)"
      ~columns:[ "metric"; "value"; "paper expectation" ]
  in
  Table.add_rowf t2 "objects copied|%d|1 (only o2 is owned at N2)" report.Bmx_gc.Collect.r_copied;
  Table.add_rowf t2 "objects scanned in place|%d|o1 and o3 (not owned)" report.Bmx_gc.Collect.r_scanned_in_place;
  Table.add_rowf t2 "local reference updates|%d|pointers into o2 rewritten, no token" report.Bmx_gc.Collect.r_ref_updates;
  Table.add_rowf t2 "collector token acquires|%d|0 (never interferes)" (gc_token_traffic c);
  Table.add_rowf t2 "collector-caused invalidations|%d|0" (gc_invalidations c);
  Table.add_rowf t2 "wall time (ms)|%.3f|-" ms;
  [ t; t2 ]

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  let t =
    Table.create
      ~title:"E3 (Figure 3 / §5): write-token acquire of o1 by N2, cases a-d"
      ~columns:
        [ "case"; "grant msgs"; "piggybacked updates"; "o1 valid at N2"; "o2 reachable at N2"; "N2 owns o1" ]
  in
  List.iter
    (fun (name, case) ->
      let f = Scenario.figure3 ~case in
      let c = f.Scenario.f3_cluster in
      let proto = Cluster.proto c in
      let before = snapshot c in
      let o1' = Cluster.acquire_write c ~node:f.f3_n2 f.f3_o1 in
      let grants = delta ~before c "net.sent.token_grant" in
      let piggy = delta ~before c "net.piggyback.token_grant" in
      let s2 = Protocol.store proto f.f3_n2 in
      let o1_ok = Store.resolve s2 o1' <> None in
      let o2_ok =
        match Store.resolve s2 o1' with
        | Some (_, obj) -> (
            match Bmx_memory.Heap_obj.get obj 0 with
            | Value.Ref p -> (
                match Store.resolve s2 p with
                | Some (_, o2) -> o2.Bmx_memory.Heap_obj.uid = f.f3_o2_uid
                | None -> false)
            | Value.Data _ -> false)
        | None -> false
      in
      Cluster.release c ~node:f.f3_n2 o1';
      let owns = Protocol.owner_of proto f.f3_o1_uid = Some f.f3_n2 in
      Table.add_row t
        [
          name;
          string_of_int grants;
          string_of_int piggy;
          bool_cell o1_ok;
          bool_cell o2_ok;
          bool_cell owns;
        ])
    [
      ("(a) no GC", Scenario.Case_a);
      ("(b) granter moved o1+o2", Scenario.Case_b);
      ("(c) granter moved o1", Scenario.Case_c);
      ("(d) requester moved o2", Scenario.Case_d);
    ];
  [ t ]

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  let f = Scenario.figure4 () in
  let c = f.Scenario.f4_cluster in
  let t =
    Table.create
      ~title:"E4 (Figure 4 / §6.2): intra-bunch SSP deletion chain after the root drops"
      ~columns:[ "step"; "o1@N1"; "o1@N2"; "o1@N3"; "target alive"; "intra SSP" ]
  in
  let gc = Cluster.gc c in
  let row step =
    let cached n = bool_cell (Cluster.cached_at c ~node:n ~uid:f.f4_o1_uid) in
    let target =
      bool_cell (Ids.Uid_set.mem f.f4_target_uid (Bmx.Audit.cached_anywhere c))
    in
    let ssp =
      bool_cell
        (Gc_state.intra_scions gc ~node:f.f4_n3 ~bunch:f.f4_bunch
         |> List.exists (fun (s : Bmx_gc.Ssp.intra_scion) -> s.Bmx_gc.Ssp.xn_uid = f.f4_o1_uid))
    in
    Table.add_row t [ step; cached f.f4_n1; cached f.f4_n2; cached f.f4_n3; target; ssp ]
  in
  row "initial (rooted at N1)";
  ignore (Cluster.collect_until_quiescent c ());
  row "after full GC (still rooted)";
  Cluster.remove_root c ~node:f.f4_n1 f.f4_o1;
  row "root dropped";
  let rec rounds k =
    if k > 6 then ()
    else begin
      let n = Cluster.gc_round c in
      row (Printf.sprintf "gc round %d (reclaimed %d)" k n);
      if Bmx.Audit.total_cached_copies c > 0 then rounds (k + 1)
    end
  in
  rounds 1;
  [ t ]

(* ------------------------------------------------------------------ E5 *)

(* Explicit-update mode (the §4.4 alternative to piggybacking): after a
   collection, the new locations recorded by the from-space forwarders
   are pushed to every replica holder immediately, as dedicated
   messages. *)
let push_updates_explicitly c ~node ~bunch =
  let updates = Bmx_gc.Reclaim.address_changes (Cluster.gc c) ~node ~bunch in
  if updates <> [] then
    List.iter
      (fun dst ->
        if dst <> node then
          Protocol.send_location_updates (Cluster.proto c) ~src:node ~dst updates)
      (Protocol.bunch_replica_nodes (Cluster.proto c) bunch)

let run_with_collector collector =
  let d = Driver.setup { Driver.default with ops = 1200; seed = 11 } in
  let c = Driver.cluster d in
  for _ = 1 to 4 do
    Driver.run_ops d ~ops:300 ();
    List.iter
      (fun bunch ->
        List.iter
          (fun node ->
            (match collector with
            | `Bgc | `Bgc_explicit -> ignore (Cluster.bgc c ~node ~bunch)
            | `Msweep ->
                ignore (Bmx_baseline.Msweep_gc.run (Cluster.gc c) ~node ~bunch)
            | `Locking -> ignore (Locking_gc.run (Cluster.gc c) ~node ~bunch));
            if collector = `Bgc_explicit then push_updates_explicitly c ~node ~bunch)
          (Protocol.bunch_replica_nodes (Cluster.proto c) bunch))
      (Protocol.bunches (Cluster.proto c));
    ignore (Cluster.drain c)
  done;
  c

let e5 () =
  let t =
    Table.create
      ~title:
        "E5 (§4.1/§8): GC/DSM interference under a mixed workload (4 nodes, 4 bunches, 1200 ops, 4 GC waves)"
      ~columns:
        [ "collector"; "gc token acquires"; "gc invalidations"; "gc ownerPtr hops"; "app invalidations"; "safety" ]
  in
  List.iter
    (fun (name, collector) ->
      let c = run_with_collector collector in
      Table.add_row t
        [
          name;
          string_of_int (gc_token_traffic c);
          string_of_int (gc_invalidations c);
          string_of_int (Stats.get (Cluster.stats c) "dsm.gc.hops");
          string_of_int (Stats.get (Cluster.stats c) "dsm.app.invalidations");
          bool_cell (Result.is_ok (Bmx.Audit.check_safety c));
        ])
    [
      ("BMX BGC (paper)", `Bgc);
      ("token-acquiring copier (Le Sergent-style)", `Locking);
      ("strongly consistent mark&sweep (Kordale-style)", `Msweep);
    ];
  [ t ]

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  let t =
    Table.create
      ~title:"E6 (§4.4/§8): message counts by kind for the same workload + collections"
      ~columns:
        [ "collector"; "token req"; "token grant"; "invalidate"; "stub tables"; "addr updates"; "scion msgs"; "piggybacked"; "total msgs" ]
  in
  List.iter
    (fun (name, collector) ->
      let c = run_with_collector collector in
      let k = kind_count c in
      Table.add_row t
        [
          name;
          string_of_int (k Net.Token_request);
          string_of_int (k Net.Token_grant);
          string_of_int (k Net.Invalidate);
          string_of_int (k Net.Stub_table);
          string_of_int (k Net.Addr_update);
          string_of_int (k Net.Scion_message);
          string_of_int (Stats.get (Cluster.stats c) "net.piggyback.token_grant");
          string_of_int (Net.total_messages (Cluster.net c));
        ])
    [
      ("BMX BGC, piggyback (paper)", `Bgc);
      ("BMX BGC + explicit updates", `Bgc_explicit);
      ("token-acquiring copier", `Locking);
    ];
  [ t ]

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  let t =
    Table.create
      ~title:
        "E7 (§4.1): mutator pause vs heap size — BGC pause is the flip (root \
         enumeration); the copy/scan runs concurrently (O'Toole); the \
         strongly-consistent collector stops the mutators for the whole \
         token sweep + copy"
      ~columns:
        [ "live objects"; "flip pause ms"; "concurrent BGC work ms"; "STW pause ms"; "STW/flip" ]
  in
  List.iter
    (fun objects ->
      (* BGC side: the mutator-visible pause is the flip — enumerating the
         roots (mutator stacks, scions, entering ownerPtrs, §4.1). *)
      let c1, b1, _ = replicated_bunch ~objects ~replicas:1 () in
      let gc1 = Cluster.gc c1 in
      let proto1 = Cluster.proto c1 in
      let (), flip_ms =
        time_ms (fun () ->
            ignore (Gc_state.roots gc1 ~node:0);
            ignore (Gc_state.inter_scions gc1 ~node:0 ~bunch:b1);
            ignore (Gc_state.intra_scions gc1 ~node:0 ~bunch:b1);
            ignore (Directory.entering_uids (Protocol.directory proto1 0)))
      in
      let _, bgc_ms = time_ms (fun () -> Cluster.bgc c1 ~node:0 ~bunch:b1) in
      (* STW side: identical heap and replication; pause = everything. *)
      let c2, b2, _ = replicated_bunch ~objects ~replicas:1 () in
      let _, stw_ms =
        time_ms (fun () -> Locking_gc.run (Cluster.gc c2) ~node:1 ~bunch:b2)
      in
      Table.add_row t
        [
          string_of_int objects;
          Printf.sprintf "%.4f" flip_ms;
          Printf.sprintf "%.3f" bgc_ms;
          Printf.sprintf "%.3f" stw_ms;
          Printf.sprintf "%.0fx" (stw_ms /. max flip_ms 0.0001);
        ])
    [ 1000; 4000; 16000 ];
  [ t ]

(* ------------------------------------------------------------------ E8 *)

let e8 () =
  let t =
    Table.create
      ~title:
        "E8 (§8 cost property): BGC cost at one node as the bunch is replicated on k nodes"
      ~columns:
        [ "replicas"; "BGC ms"; "BGC msgs"; "BGC gc-tokens"; "locking ms"; "locking msgs"; "locking gc-tokens" ]
  in
  List.iter
    (fun replicas ->
      let bgc_row =
        let c, b, _ = replicated_bunch ~objects:128 ~replicas () in
        let m0 = Net.total_messages (Cluster.net c) in
        let _, ms = time_ms (fun () -> Cluster.bgc c ~node:0 ~bunch:b) in
        ignore (Cluster.drain c);
        (ms, Net.total_messages (Cluster.net c) - m0, gc_token_traffic c)
      in
      let lock_row =
        let c, b, _ = replicated_bunch ~objects:128 ~replicas () in
        let m0 = Net.total_messages (Cluster.net c) in
        let _, ms = time_ms (fun () -> Locking_gc.run (Cluster.gc c) ~node:0 ~bunch:b) in
        ignore (Cluster.drain c);
        (ms, Net.total_messages (Cluster.net c) - m0, gc_token_traffic c)
      in
      let bms, bm, bt = bgc_row and lms, lm, lt = lock_row in
      Table.add_row t
        [
          string_of_int replicas;
          Printf.sprintf "%.3f" bms;
          string_of_int bm;
          string_of_int bt;
          Printf.sprintf "%.3f" lms;
          string_of_int lm;
          string_of_int lt;
        ])
    [ 0; 1; 2; 4; 7 ];
  [ t ]

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  let make () =
    let c = Cluster.create ~nodes:2 () in
    let b1 = Cluster.new_bunch c ~home:0 in
    let b2 = Cluster.new_bunch c ~home:0 in
    let live = Graphgen.linked_list c ~node:0 ~bunch:b1 ~len:40 in
    Cluster.add_root c ~node:0 live;
    let _acyclic_garbage = Graphgen.linked_list c ~node:0 ~bunch:b1 ~len:60 in
    let _intra_ring = Graphgen.ring c ~node:0 ~bunch:b1 ~len:30 in
    let _cross_ring = Graphgen.cross_bunch_ring c ~node:0 ~bunches:[ b1; b2 ] ~len:30 in
    c
  in
  let t =
    Table.create
      ~title:
        "E9 (§6/§7): garbage reclaimed by category (40 live, 60 acyclic garbage, 30-cycle intra-bunch, 30-cycle inter-bunch)"
      ~columns:[ "collector"; "reclaimed"; "garbage left"; "live survivors"; "note" ]
  in
  (* BMX: BGC rounds then GGC. *)
  let c = make () in
  let bgc_reclaimed = Cluster.collect_until_quiescent c () in
  let after_bgc = Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c) in
  Table.add_rowf t "BGC rounds only|%d|%d|%d|intra-bunch cycles die; inter-bunch cycle needs GGC"
    bgc_reclaimed after_bgc
    (Ids.Uid_set.cardinal (Bmx.Audit.union_reachable c));
  let ggc_r = Cluster.ggc c ~node:0 in
  ignore (Cluster.drain c);
  ignore (Cluster.collect_until_quiescent c ());
  Table.add_rowf t "+ GGC at N0|%d|%d|%d|inter-bunch cycle reclaimed (§7)"
    (bgc_reclaimed + ggc_r.Bmx_gc.Collect.r_reclaimed)
    (Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c))
    (Ids.Uid_set.cardinal (Bmx.Audit.union_reachable c));
  (* Reference counting. *)
  let c2 = make () in
  let o = Refcount.analyze c2 () in
  Table.add_rowf t "ref-counting (Bevan)|%d|%d|%d|cycles never reclaimed (%d stuck in cycles)"
    o.Refcount.rc_reclaimed
    (Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c2) - o.Refcount.rc_reclaimed)
    (Ids.Uid_set.cardinal (Bmx.Audit.union_reachable c2))
    o.Refcount.rc_cycle_garbage;
  [ t ]

(* ----------------------------------------------------------------- E10 *)

let e10 () =
  let t =
    Table.create
      ~title:
        "E10 (§6.1): tolerance to message loss — idempotent tables (resend) vs inc/dec counting"
      ~columns:
        [ "loss %"; "BMX rounds to collect"; "BMX lost-live"; "BMX leaked"; "RC leaked"; "RC freed-live" ]
  in
  List.iter
    (fun loss ->
      (* BMX side: a dead remote chain; stub tables dropped with
         probability [loss]; each round resends. *)
      let c = Cluster.create ~nodes:2 () in
      let b1 = Cluster.new_bunch c ~home:0 in
      let b2 = Cluster.new_bunch c ~home:1 in
      let tail = Cluster.alloc c ~node:1 ~bunch:b2 [| Value.Data 1 |] in
      let head = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref tail |] in
      Cluster.add_root c ~node:0 head;
      ignore (Cluster.drain c);
      let _dead = Graphgen.linked_list c ~node:0 ~bunch:b1 ~len:50 in
      Cluster.remove_root c ~node:0 head;
      let rng = Rng.make (loss + 99) in
      Net.set_fault (Cluster.net c) ~kind:Net.Stub_table
        ~drop:(float_of_int loss /. 100.) ~dup:0.1 ~rng;
      let rounds = ref 0 in
      while Bmx.Audit.total_cached_copies c > 0 && !rounds < 40 do
        incr rounds;
        ignore (Cluster.gc_round c)
      done;
      let lost = Ids.Uid_set.cardinal (Bmx.Audit.lost_objects c) in
      let leaked = Bmx.Audit.total_cached_copies c in
      (* RC side: same shape. *)
      let c2 = Cluster.create ~nodes:1 () in
      let b = Cluster.new_bunch c2 ~home:0 in
      let _dead = Graphgen.linked_list c2 ~node:0 ~bunch:b ~len:52 in
      let live = Graphgen.linked_list c2 ~node:0 ~bunch:b ~len:10 in
      Cluster.add_root c2 ~node:0 live;
      let o =
        Refcount.analyze c2 ~loss_prob:(float_of_int loss /. 100.) ~dup_prob:0.1
          ~rng:(Rng.make (loss + 7)) ()
      in
      Table.add_row t
        [
          string_of_int loss;
          (if leaked = 0 then string_of_int !rounds else Printf.sprintf ">%d" !rounds);
          string_of_int lost;
          string_of_int leaked;
          string_of_int o.Refcount.rc_leaked;
          string_of_int o.Refcount.rc_premature;
        ])
    [ 0; 10; 25; 50 ];
  [ t ]

(* ----------------------------------------------------------------- E13 *)

let e13 () =
  let module Rvm = Bmx_rvm.Rvm in
  let t =
    Table.create ~title:"E13 (§2.1/§8): RVM recovery around a collection"
      ~columns:[ "scenario"; "objects before"; "objects after recovery"; "heap intact" ]
  in
  let run crash_mid =
    let c = Cluster.create ~nodes:1 () in
    let b = Cluster.new_bunch c ~home:0 in
    let head = Graphgen.linked_list c ~node:0 ~bunch:b ~len:25 in
    Cluster.add_root c ~node:0 head;
    let store = Protocol.store (Cluster.proto c) 0 in
    let disk = Rvm.create ~copy:(fun (a, o) -> (a, Bmx_memory.Heap_obj.clone o)) () in
    Rvm.begin_tx disk;
    List.iter (fun (a, o) -> Rvm.set disk a (a, o)) (Store.objects_of_bunch store b);
    Rvm.commit disk;
    (* The collection runs inside a transaction mirroring the heap moves:
       from-space keys retired, to-space keys written (§8's from/to-space
       files). *)
    let old_keys = Rvm.fold disk ~init:[] ~f:(fun a _ acc -> a :: acc) in
    let _ = Cluster.bgc c ~node:0 ~bunch:b in
    Rvm.begin_tx disk;
    List.iter (Rvm.delete disk) old_keys;
    List.iter (fun (a, o) -> Rvm.set disk a (a, o)) (Store.objects_of_bunch store b);
    if crash_mid then Rvm.crash_mid_commit disk else Rvm.commit disk;
    if not crash_mid then Rvm.crash disk;
    ignore (Rvm.recover disk);
    Rvm.cardinal disk
  in
  let committed = run false in
  Table.add_row t
    [ "crash after committed GC"; "25"; string_of_int committed; bool_cell (committed >= 25) ];
  let torn = run true in
  Table.add_row t
    [ "crash mid-commit (torn log)"; "25"; string_of_int torn; bool_cell (torn = 25) ];
  [ t ]

(* ----------------------------------------------------------------- E14 *)

let e14 () =
  let t =
    Table.create
      ~title:
        "E14 (ablation §1 motivation): OO7-style design-database traversals \
         with structural churn and per-wave collection"
      ~columns:
        [ "collector"; "T1 ms"; "T2 ms"; "reclaimed"; "gc tokens"; "gc invalidations" ]
  in
  List.iter
    (fun (name, collector) ->
      let c = Cluster.create ~nodes:2 () in
      let m = Bmx_workload.Oo7.build c ~node:0 Bmx_workload.Oo7.default in
      let _, t1_ms = time_ms (fun () -> ignore (Bmx_workload.Oo7.t1 m ~node:1)) in
      let _, t2_ms = time_ms (fun () -> ignore (Bmx_workload.Oo7.t2 m ~node:1)) in
      ignore (Bmx_workload.Oo7.churn m ~node:0);
      let garbage_before = Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c) in
      List.iter
        (fun bunch ->
          List.iter
            (fun node ->
              ignore
                (match collector with
                | `Bgc -> Cluster.bgc c ~node ~bunch
                | `Locking -> Locking_gc.run (Cluster.gc c) ~node ~bunch))
            (Protocol.bunch_replica_nodes (Cluster.proto c) bunch))
        (Protocol.bunches (Cluster.proto c));
      ignore (Cluster.drain c);
      (* Ownership churn from the locking sweep can pin garbage behind
         stale entering entries for a round; settle both sides the same
         way before measuring what the wave achieved. *)
      ignore (Cluster.collect_until_quiescent c ());
      let garbage_after = Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c) in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.2f" t1_ms;
          Printf.sprintf "%.2f" t2_ms;
          string_of_int (garbage_before - garbage_after);
          string_of_int (gc_token_traffic c);
          string_of_int (gc_invalidations c);
        ])
    [ ("BMX BGC", `Bgc); ("token-acquiring copier", `Locking) ];
  [ t ]

(* ----------------------------------------------------------------- E15 *)

let e15 () =
  let t =
    Table.create
      ~title:
        "E15 (ablation, §2.2 vs §8): distributed vs centralized copy-sets \
         under the mixed workload"
      ~columns:
        [ "copy-set mode"; "ownerPtr hops"; "token requests"; "invalidations"; "total msgs"; "survivors" ]
  in
  List.iter
    (fun (name, mode) ->
      let d = Driver.setup { Driver.default with ops = 1500; seed = 19; mode } in
      Driver.run_ops d ();
      let c = Driver.cluster d in
      ignore (Cluster.collect_until_quiescent c ());
      Table.add_row t
        [
          name;
          string_of_int (Stats.get (Cluster.stats c) "dsm.app.hops");
          string_of_int (kind_count c Net.Token_request);
          string_of_int (Stats.get (Cluster.stats c) "dsm.app.invalidations");
          string_of_int (Net.total_messages (Cluster.net c));
          string_of_int (Ids.Uid_set.cardinal (Bmx.Audit.union_reachable c));
        ])
    [
      ("distributed (paper §2.2)", Protocol.Distributed);
      ("centralized (prototype §8)", Protocol.Centralized);
    ];
  [ t ]

(* ----------------------------------------------------------------- E16 *)

let e16 () =
  let t =
    Table.create
      ~title:
        "E16 (ablation, §4.4): lazy vs eager propagation of new locations"
      ~columns:
        [ "update policy"; "refs fixed by GC"; "refs fixed on acquire/sweep"; "piggybacked"; "total msgs" ]
  in
  List.iter
    (fun (name, update_policy) ->
      let d =
        Driver.setup { Driver.default with ops = 1200; seed = 23; update_policy }
      in
      Driver.run_ops d ~ops:600 ();
      ignore (Cluster.gc_round (Driver.cluster d));
      Driver.run_ops d ~ops:600 ();
      let c = Driver.cluster d in
      ignore (Cluster.collect_until_quiescent c ());
      Table.add_row t
        [
          name;
          string_of_int (Stats.get (Cluster.stats c) "gc.ref_updates");
          string_of_int (Stats.get (Cluster.stats c) "dsm.ref_fixes");
          string_of_int (Stats.get (Cluster.stats c) "net.piggyback.token_grant");
          string_of_int (Net.total_messages (Cluster.net c));
        ])
    [ ("lazy (paper §4.4)", Protocol.Lazy); ("eager sweep", Protocol.Eager) ];
  [ t ]

(* ----------------------------------------------------------------- E17 *)

(* §10: "evaluating the impact of the consistency granularity on our
   approach".  Two nodes repeatedly write DISJOINT objects that happen to
   share segments.  Fine grain: tokens per object, no conflict.  Coarse
   grain (modelled): a writer acquires the write token of every object in
   the target's segment — false sharing turns into invalidation traffic. *)
let e17 () =
  let t =
    Table.create
      ~title:"E17 (§10): consistency granularity — per-object vs per-segment tokens"
      ~columns:
        [ "granularity"; "acquires"; "invalidations"; "token requests"; "total msgs" ]
  in
  let run coarse =
    let c = Cluster.create ~nodes:2 () in
    let b = Cluster.new_bunch c ~home:0 in
    let objs =
      Array.init 32 (fun i -> Cluster.alloc c ~node:0 ~bunch:b [| Value.Data i |])
    in
    Array.iter (fun a -> Cluster.add_root c ~node:0 a) objs;
    let proto = Cluster.proto c in
    let write_obj node i =
      let addr = objs.(i) in
      if coarse then begin
        (* Acquire the whole segment's objects (the registry knows which
           objects share the target's segment). *)
        let seg_range =
          match Bmx_memory.Registry.find (Protocol.registry proto) addr with
          | Some e -> e.Bmx_memory.Registry.range
          | None -> assert false
        in
        Array.iter
          (fun a ->
            if Addr.Range.contains seg_range a then begin
              let a' = Protocol.acquire proto ~node a `Write in
              Protocol.release proto ~node a'
            end)
          objs
      end;
      let a = Cluster.acquire_write c ~node addr in
      Cluster.write c ~node a 0 (Value.Data (i * 2));
      Cluster.release c ~node a
    in
    (* Node 0 writes the even objects, node 1 the odd ones: disjoint data,
       shared segments. *)
    for round = 1 to 10 do
      ignore round;
      for i = 0 to 31 do
        write_obj (i mod 2) i
      done
    done;
    c
  in
  List.iter
    (fun (name, coarse) ->
      let c = run coarse in
      Table.add_row t
        [
          name;
          string_of_int (Stats.get (Cluster.stats c) "dsm.app.acquire_write");
          string_of_int (Stats.get (Cluster.stats c) "dsm.app.invalidations");
          string_of_int (kind_count c Net.Token_request);
          string_of_int (Net.total_messages (Cluster.net c));
        ])
    [ ("per-object (BMX)", false); ("per-segment (modelled)", true) ];
  [ t ]

(* ----------------------------------------------------------------- E18 *)

let e18 () =
  let t =
    Table.create
      ~title:
        "E18 (§1): heap footprint under churn — copying collection with \
         from-space reuse vs strongly consistent mark&sweep (no compaction)"
      ~columns:[ "churn cycles"; "copying KiB"; "mark&sweep KiB"; "ratio" ]
  in
  let non_free c b =
    List.fold_left
      (fun acc seg ->
        if seg.Bmx_memory.Segment.role = Bmx_memory.Segment.Free then acc
        else acc + Addr.Range.size seg.Bmx_memory.Segment.range)
      0
      (Store.segments_of_bunch (Protocol.store (Cluster.proto c) 0) b)
  in
  let footprint collector cycles =
    let c = Cluster.create ~nodes:1 () in
    let b = Cluster.new_bunch c ~home:0 in
    let anchor = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |] in
    Cluster.add_root c ~node:0 anchor;
    for _ = 1 to cycles do
      let _junk = Graphgen.linked_list c ~node:0 ~bunch:b ~len:3000 in
      (match collector with
      | `Copying ->
          ignore (Cluster.bgc c ~node:0 ~bunch:b);
          ignore (Cluster.reclaim_from_space c ~node:0 ~bunch:b)
      | `Msweep ->
          ignore (Bmx_baseline.Msweep_gc.run (Cluster.gc c) ~node:0 ~bunch:b));
      ignore (Cluster.drain c)
    done;
    non_free c b
  in
  List.iter
    (fun cycles ->
      let cp = footprint `Copying cycles and ms = footprint `Msweep cycles in
      Table.add_row t
        [
          string_of_int cycles;
          string_of_int (cp / 1024);
          string_of_int (ms / 1024);
          Printf.sprintf "%.1fx" (float_of_int ms /. float_of_int (max cp 1));
        ])
    [ 2; 4; 8 ];
  (* Economical collections under steady churn: 20 000 rooted 16-byte
     objects, [pct]% of them (the youngest) replaced per cycle, then an
     economical BGC, reclaim_from_space and a drain.  The evacuation rule
     reads only byte totals, so which objects die does not change the
     figures. *)
  let econ =
    Table.create
      ~title:
        "E18 (§1): economical collections under churn — 20 000 rooted \
         objects, 40 cycles of replace + economical BGC + \
         reclaim_from_space"
      ~columns:
        [ "churn"; "live KiB"; "max footprint KiB"; "copies/cycle"; "evacuations" ]
  in
  let churn_run pct =
    let n = 20_000 and cycles = 40 in
    let k = n * pct / 100 in
    let c = Cluster.create ~nodes:1 () in
    let b = Cluster.new_bunch c ~home:0 in
    let store = Protocol.store (Cluster.proto c) 0 in
    let alloc j =
      let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data j; Value.nil |] in
      Cluster.add_root c ~node:0 a;
      Cluster.uid_at c ~node:0 a
    in
    let uids = Array.init n alloc in
    let copied = ref 0 and evacuations = ref 0 and peak = ref (non_free c b) in
    for _ = 1 to cycles do
      for j = n - 1 downto n - k do
        Cluster.remove_root c ~node:0 (Store.uid_addr store uids.(j))
      done;
      for j = n - k to n - 1 do
        uids.(j) <- alloc j
      done;
      let r = Cluster.bgc ~economical:true c ~node:0 ~bunch:b in
      copied := !copied + r.Bmx_gc.Collect.r_copied;
      if r.Bmx_gc.Collect.r_copied > 0 then incr evacuations;
      ignore (Cluster.reclaim_from_space c ~node:0 ~bunch:b);
      ignore (Cluster.drain c);
      peak := max !peak (non_free c b)
    done;
    Table.add_row econ
      [
        Printf.sprintf "%d%%" pct;
        string_of_int (n * 16 / 1024);
        string_of_int (!peak / 1024);
        string_of_int (!copied / cycles);
        string_of_int !evacuations;
      ]
  in
  List.iter churn_run [ 5; 20 ];
  [ t; econ ]

(* ----------------------------------------------------------------- E19 *)

let e19 () =
  let t =
    Table.create
      ~title:
        "E19 (§6): virtual-time latency — token-acquire and GC-pause \
         percentiles from the span layer (µsteps; as printed by 'bmxctl \
         report')"
      ~columns:[ "span"; "n"; "p50"; "p90"; "p99"; "max" ]
  in
  let cfg =
    {
      Driver.default with
      nodes = 4;
      bunches = 4;
      objects_per_bunch = 48;
      ops = 1500;
      seed = 11;
    }
  in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  Cluster.set_event_trace c true;
  Driver.run_ops d ();
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.settle c);
  let report =
    Bmx_obs.Report.of_iter
      ~metrics:(Cluster.metrics c)
      (Bmx_util.Trace_event.iter (Cluster.evlog c))
  in
  let families = [ "token_acquire.read"; "token_acquire.write"; "gc.pause" ] in
  let json_rows =
    List.filter_map
      (fun fam ->
        match Bmx_obs.Report.latency report fam with
        | None ->
            Table.add_row t [ fam; "0"; "-"; "-"; "-"; "-" ];
            None
        | Some s ->
            let f v = Printf.sprintf "%.0f" v in
            Table.add_row t
              [
                fam;
                string_of_int s.Bmx_obs.Metrics.s_count;
                f s.Bmx_obs.Metrics.s_p50;
                f s.Bmx_obs.Metrics.s_p90;
                f s.Bmx_obs.Metrics.s_p99;
                f s.Bmx_obs.Metrics.s_max;
              ];
            Some
              ( fam,
                Bmx_obs.Json.Obj
                  [
                    ("n", Bmx_obs.Json.Int s.Bmx_obs.Metrics.s_count);
                    ("p50", Bmx_obs.Json.Float s.Bmx_obs.Metrics.s_p50);
                    ("p90", Bmx_obs.Json.Float s.Bmx_obs.Metrics.s_p90);
                    ("p99", Bmx_obs.Json.Float s.Bmx_obs.Metrics.s_p99);
                    ("max", Bmx_obs.Json.Float s.Bmx_obs.Metrics.s_max);
                  ] ))
      families
  in
  (* Machine-readable line for the perf-trajectory scraper. *)
  Printf.printf "BENCH %s\n"
    (Bmx_obs.Json.to_string
       (Bmx_obs.Json.Obj
          [
            ("experiment", Bmx_obs.Json.String "e19");
            ("unit", Bmx_obs.Json.String "virtual_usteps");
            ( "gc_token_acquires",
              Bmx_obs.Json.Int (Bmx_obs.Report.gc_token_acquires report) );
            ("latency", Bmx_obs.Json.Obj json_rows);
          ]));
  [ t ]

let all () =
  List.concat
    [
      e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 ();
      e13 (); e14 (); e15 (); e16 (); e17 (); e18 (); e19 ();
    ]
