(* The scion cleaner (§6): FIFO ordering, idempotence, loss tolerance. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Net = Bmx_netsim.Net
module Value = Bmx_memory.Value
module Gc_state = Bmx_gc.Gc_state
module Scion_cleaner = Bmx_gc.Scion_cleaner
module Directory = Bmx_dsm.Directory
module Ssp = Bmx_gc.Ssp
module Driver = Bmx_workload.Driver

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A two-node setup with a cross-node inter-bunch SSP: y(B1)@N0 -> x(B2)@N1,
   stub at N0, scion at N1. *)
let cross_node_ssp () =
  let c = Cluster.create ~nodes:2 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:1 in
  let x = Cluster.alloc c ~node:1 ~bunch:b2 [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref x |] in
  Cluster.add_root c ~node:0 y;
  ignore (Cluster.drain c);
  (c, b1, b2, x, y)

let test_scion_survives_while_stub_lives () =
  let c, b1, b2, _x, _y = cross_node_ssp () in
  let _ = Cluster.bgc c ~node:0 ~bunch:b1 in
  ignore (Cluster.drain c);
  check_int "scion still there" 1
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2));
  let r = Cluster.bgc c ~node:1 ~bunch:b2 in
  check_int "target alive" 0 r.Bmx_gc.Collect.r_reclaimed

let test_scion_removed_when_stub_gone () =
  let c, b1, b2, _x, y = cross_node_ssp () in
  Cluster.remove_root c ~node:0 y;
  let _ = Cluster.bgc c ~node:0 ~bunch:b1 in
  ignore (Cluster.drain c);
  check_int "scion removed at N1" 0
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2));
  let r = Cluster.bgc c ~node:1 ~bunch:b2 in
  check_int "target reclaimed" 1 r.Bmx_gc.Collect.r_reclaimed

let test_stale_table_ignored () =
  let c, _b1, b2, x, _y = cross_node_ssp () in
  let gc = Cluster.gc c in
  let x_uid = Cluster.uid_at c ~node:1 x in
  (* Deliver a fabricated EMPTY table with a stale sequence number: the
     cleaner must ignore it and keep the scion. *)
  ignore x_uid;
  let b1 = 0 in
  let empty =
    {
      Scion_cleaner.tm_sender = 0;
      tm_bunch = b1;
      tm_body =
        Scion_cleaner.Full
          {
            fb_inter = Gc_state.Inter_edges.empty;
            fb_intra = Gc_state.Intra_edges.empty;
            fb_exiting = [];
          };
    }
  in
  (* First deliver with a high seq so the stream position advances. *)
  let real_stubs = Gc_state.inter_stub_keys gc ~node:0 ~bunch:b1 in
  let full =
    {
      empty with
      Scion_cleaner.tm_body =
        Scion_cleaner.Full
          {
            fb_inter = real_stubs;
            fb_intra = Gc_state.Intra_edges.empty;
            fb_exiting = [];
          };
    }
  in
  Scion_cleaner.receive gc ~at:1 ~seq:10 full;
  check_int "scion kept by fresh full table" 1
    (List.length (Gc_state.inter_scions gc ~node:1 ~bunch:b2));
  (* Now a stale empty table (seq 5 < 10): must be ignored. *)
  Scion_cleaner.receive gc ~at:1 ~seq:5 empty;
  check_int "stale table ignored" 1
    (List.length (Gc_state.inter_scions gc ~node:1 ~bunch:b2));
  check_bool "stale counted" true
    (Stats.get (Cluster.stats c) "gc.cleaner.stale_ignored" > 0);
  (* A duplicate of the fresh table (same seq) is also ignored: idempotent. *)
  Scion_cleaner.receive gc ~at:1 ~seq:10 full;
  check_int "duplicate ignored" 1
    (List.length (Gc_state.inter_scions gc ~node:1 ~bunch:b2))

let test_loss_tolerance_with_resend () =
  (* Drop every stub-table message of the first BGC; the scion survives
     (no unsafety); re-running the BGC resends and the cleaner converges. *)
  let c, b1, b2, _x, y = cross_node_ssp () in
  Cluster.remove_root c ~node:0 y;
  let rng = Rng.make 3 in
  Net.set_fault (Cluster.net c) ~kind:Net.Stub_table ~drop:1.0 ~dup:0.0 ~rng;
  let _ = Cluster.bgc c ~node:0 ~bunch:b1 in
  ignore (Cluster.drain c);
  check_int "scion survives the loss (conservative)" 1
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2));
  (* Transport heals; the next BGC's tables repair everything. *)
  Net.clear_faults (Cluster.net c);
  let _ = Cluster.bgc c ~node:0 ~bunch:b1 in
  ignore (Cluster.drain c);
  check_int "scion removed after resend" 0
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2));
  let r = Cluster.bgc c ~node:1 ~bunch:b2 in
  check_int "garbage finally reclaimed" 1 r.Bmx_gc.Collect.r_reclaimed;
  check_bool "safety throughout" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_duplication_tolerance () =
  let c, b1, b2, _x, _y = cross_node_ssp () in
  let rng = Rng.make 3 in
  Net.set_fault (Cluster.net c) ~kind:Net.Stub_table ~drop:0.0 ~dup:1.0 ~rng;
  let _ = Cluster.bgc c ~node:0 ~bunch:b1 in
  ignore (Cluster.drain c);
  check_int "duplicated tables harmless" 1
    (List.length (Gc_state.inter_scions (Cluster.gc c) ~node:1 ~bunch:b2));
  check_bool "safety" true (Result.is_ok (Bmx.Audit.check_safety c))

let test_entering_reconciliation () =
  (* N1 caches a replica of x owned by N0.  When N1's BGC stops listing
     the exiting ownerPtr, the cleaner at N0 drops the entering entry and
     x can die. *)
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let x_uid = Cluster.uid_at c ~node:0 x in
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  Cluster.add_root c ~node:1 x1;
  (* N1's BGC advertises the exiting ownerPtr; N0 keeps x alive. *)
  let _ = Cluster.bgc c ~node:1 ~bunch:b in
  ignore (Cluster.drain c);
  check_bool "entering entry at N0" true
    (Ids.Node_set.mem 1 (Directory.entering (Protocol.directory (Cluster.proto c) 0) x_uid));
  let r0 = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "x alive at owner" 0 r0.Bmx_gc.Collect.r_reclaimed;
  (* Drop N1's root; its BGC reclaims the replica and stops exiting. *)
  Cluster.remove_root c ~node:1 x1;
  let r1 = Cluster.bgc c ~node:1 ~bunch:b in
  check_int "replica reclaimed at N1" 1 r1.Bmx_gc.Collect.r_reclaimed;
  ignore (Cluster.drain c);
  check_bool "entering entry gone at N0" false
    (Ids.Node_set.mem 1 (Directory.entering (Protocol.directory (Cluster.proto c) 0) x_uid));
  let r0' = Cluster.bgc c ~node:0 ~bunch:b in
  check_int "x reclaimed at owner" 1 r0'.Bmx_gc.Collect.r_reclaimed

(* One node, [n] objects of B1 each pointing into B2: every edge is a
   local cross-bunch SSP, stub and scion both at N0, so each BGC of B1
   checks N0's own scions against the table it rebuilt. *)
let local_ssps ~n =
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let ys =
    List.init n (fun i ->
        let x = Cluster.alloc c ~node:0 ~bunch:b2 [| Value.Data i |] in
        let y = Cluster.alloc c ~node:0 ~bunch:b1 [| Value.Ref x |] in
        Cluster.add_root c ~node:0 y;
        y)
  in
  ignore (Cluster.drain c);
  (c, b1, b2, ys)

let stat c name = Stats.get (Cluster.stats c) name

let test_own_tables_unchanged () =
  let c, b1, b2, _ys = local_ssps ~n:4 in
  let gc = Cluster.gc c in
  ignore (Cluster.bgc c ~node:0 ~bunch:b1);
  ignore (Cluster.bgc c ~node:0 ~bunch:b1);
  check_int "re-collecting removes no scion" 4
    (List.length (Gc_state.inter_scions gc ~node:0 ~bunch:b2));
  check_int "and counts none removed" 0 (stat c "gc.cleaner.inter_scions_removed");
  check_bool "no mirror of the node's own tables" true
    (match Gc_state.mirror gc ~node:0 ~sender:0 ~bunch:b1 with
    | _ -> false
    | exception Not_found -> true)

let test_own_dropped_edge_retires_scion () =
  let c, b1, b2, ys = local_ssps ~n:4 in
  let gc = Cluster.gc c in
  ignore (Cluster.bgc c ~node:0 ~bunch:b1);
  check_int "four local scions" 4
    (List.length (Gc_state.inter_scions gc ~node:0 ~bunch:b2));
  (* Drop one cross-bunch edge; the next BGC of B1 regenerates its stub
     table without it. *)
  let y = Cluster.acquire_write c ~node:0 (List.hd ys) in
  Cluster.write c ~node:0 y 0 (Value.Data 0);
  Cluster.release c ~node:0 y;
  ignore (Cluster.bgc c ~node:0 ~bunch:b1);
  check_int "its scion is retired" 3
    (List.length (Gc_state.inter_scions gc ~node:0 ~bunch:b2));
  let r = Cluster.bgc c ~node:0 ~bunch:b2 in
  check_int "and its target reclaimed" 1 r.Bmx_gc.Collect.r_reclaimed

let test_own_tables_after_crash () =
  let c = Cluster.create ~nodes:2 () in
  let b1 = Cluster.new_bunch c ~home:1 in
  let b2 = Cluster.new_bunch c ~home:1 in
  let populate () =
    for i = 1 to 4 do
      let x = Cluster.alloc c ~node:1 ~bunch:b2 [| Value.Data i |] in
      let y = Cluster.alloc c ~node:1 ~bunch:b1 [| Value.Ref x |] in
      Cluster.add_root c ~node:1 y
    done;
    ignore (Cluster.drain c)
  in
  populate ();
  ignore (Cluster.bgc c ~node:1 ~bunch:b1);
  ignore (Cluster.bgc c ~node:1 ~bunch:b1);
  Cluster.crash_node c ~node:1;
  Cluster.restart_node c ~node:1;
  populate ();
  let resyncs = stat c "gc.cleaner.resyncs" in
  ignore (Cluster.bgc c ~node:1 ~bunch:b1);
  ignore (Cluster.bgc c ~node:1 ~bunch:b1);
  check_int "collecting after the crash pulls no resync" resyncs
    (stat c "gc.cleaner.resyncs")

(* Collect.run times its phases back to back, and only receives at
   message delivery charge the reconcile counter themselves, so the
   phase counters of one collection never add up to more than its
   elapsed time.  A thousand local SSPs make the collection's tables
   long enough that a double charge of the reconcile phase would show. *)
let test_phase_timers_not_double_charged () =
  let c, b1, _b2, _ys = local_ssps ~n:1000 in
  let module P = Perfcount in
  let before = P.snapshot () in
  let t0 = Sys.time () in
  ignore (Cluster.bgc c ~node:0 ~bunch:b1);
  let elapsed_ns = (Sys.time () -. t0) *. 1e9 in
  let d = P.diff ~before ~after:(P.snapshot ()) in
  let phases =
    d.P.s_gc_ns_trace + d.P.s_gc_ns_flip + d.P.s_gc_ns_copy + d.P.s_gc_ns_scan
    + d.P.s_gc_ns_reconcile
  in
  check_bool
    (Printf.sprintf "phase sum %d ns <= elapsed %.0f ns" phases elapsed_ns)
    true
    (float_of_int phases <= elapsed_ns)

let test_destinations () =
  let c, b1, _b2, _x, _y = cross_node_ssp () in
  let gc = Cluster.gc c in
  let dests =
    Scion_cleaner.destinations gc ~node:0 ~bunch:b1
      ~holders:(Gc_state.stub_holders gc ~node:0 ~bunch:b1)
      ~exiting:[]
  in
  check_bool "scion holder N1 is a destination" true (List.mem 1 dests);
  check_bool "never includes self" false (List.mem 0 dests)

(* ---------------------------------------------------------------- *)
(* Key encoding: fulls ship each stub table's distinct edges, and the
   stream's (sender, bunch) supplies the rest of every match key.

   The key views replace a scan of the stub records, so they are checked
   against it: on a random workload with collector waves, every (node,
   bunch) table's edges must be the sorted, deduplicated edges of its
   records, with matching O(1) counts, and rebuilt with the table's node
   and bunch they must be its records' global match keys.  Once the
   collector is quiescent, every mirror's edges, rebuilt with the
   mirror's sender and bunch, must be exactly the match keys of the
   sender's current stub records, and the mirror must hold the sender's
   current exiting entries whose owner is the mirror's node. *)

let driver_run () =
  let d =
    Driver.setup
      {
        Driver.default with
        nodes = 4;
        bunches = 4;
        objects_per_bunch = 40;
        cross_bunch_prob = 0.3;
        write_prob = 0.5;
        seed = 11;
      }
  in
  (d, Driver.cluster d)

let check_key_views c =
  let gc = Cluster.gc c in
  List.iter
    (fun node ->
      List.iter
        (fun bunch ->
          let inter = Gc_state.inter_stubs gc ~node ~bunch in
          let intra = Gc_state.intra_stubs gc ~node ~bunch in
          let scanned_inter =
            List.sort_uniq compare (List.map Ssp.inter_stub_edge inter)
          in
          let scanned_intra =
            List.sort_uniq compare (List.map Ssp.intra_stub_edge intra)
          in
          let where = Printf.sprintf "N%d bunch %d" node bunch in
          let inter_edges =
            Gc_state.Inter_edges.elements (Gc_state.inter_stub_keys gc ~node ~bunch)
          in
          let intra_edges =
            Gc_state.Intra_edges.elements (Gc_state.intra_stub_keys gc ~node ~bunch)
          in
          check_bool (where ^ ": inter edges = scan") true
            (List.sort compare inter_edges = scanned_inter);
          check_bool (where ^ ": intra edges = scan") true
            (List.sort compare intra_edges = scanned_intra);
          check_bool (where ^ ": rebuilt inter keys = scan") true
            (List.sort compare
               (List.map (Ssp.inter_key_of_edge ~sender:node ~bunch) inter_edges)
            = List.sort_uniq compare (List.map Ssp.inter_stub_key inter));
          check_bool (where ^ ": rebuilt intra keys = scan") true
            (List.sort compare
               (List.map (Ssp.intra_key_of_edge ~bunch) intra_edges)
            = List.sort_uniq compare (List.map Ssp.intra_stub_key intra));
          check_int (where ^ ": inter key count")
            (List.length scanned_inter)
            (Gc_state.inter_key_count gc ~node ~bunch);
          check_int (where ^ ": intra key count")
            (List.length scanned_intra)
            (Gc_state.intra_key_count gc ~node ~bunch);
          check_int (where ^ ": inter stub count") (List.length inter)
            (Gc_state.inter_stub_count gc ~node ~bunch);
          check_int (where ^ ": intra stub count") (List.length intra)
            (Gc_state.intra_stub_count gc ~node ~bunch))
        (Protocol.bunches (Cluster.proto c)))
    (Cluster.nodes c)

let test_key_views_match_scan () =
  let d, c = driver_run () in
  let gc = Cluster.gc c in
  for _ = 1 to 5 do
    Driver.run_ops d ~ops:120 ();
    check_key_views c;
    ignore (Cluster.gc_round c);
    check_key_views c
  done;
  ignore (Cluster.collect_until_quiescent c ());
  check_key_views c;
  let nodes = Cluster.nodes c and bunches = Protocol.bunches (Cluster.proto c) in
  let mirrors = ref 0 and shared = ref 0 and addressed = ref 0 in
  List.iter
    (fun at ->
      List.iter
        (fun sender ->
          List.iter
            (fun bunch ->
              match Gc_state.mirror gc ~node:at ~sender ~bunch with
              | exception Not_found -> ()
              | _ when at = sender ->
                  Alcotest.failf "N%d mirrors its own tables of bunch %d" at bunch
              | m ->
                  incr mirrors;
                  let keys iter =
                    let l = ref [] in
                    iter m (fun k -> l := k :: !l);
                    List.sort compare !l
                  in
                  let where =
                    Printf.sprintf "N%d's mirror of N%d bunch %d" at sender bunch
                  in
                  (* The reference is the sender's stub records, not its
                     edge views: an edge rebuilt with the wrong stream
                     fails here. *)
                  let want_inter =
                    List.sort_uniq compare
                      (List.map Ssp.inter_stub_key
                         (Gc_state.inter_stubs gc ~node:sender ~bunch))
                  in
                  check_bool (where ^ ": rebuilt inter keys") true
                    (List.sort compare
                       (List.map
                          (Ssp.inter_key_of_edge ~sender ~bunch)
                          (keys Gc_state.mirror_iter_inter))
                    = want_inter);
                  check_bool (where ^ ": rebuilt intra keys") true
                    (List.sort compare
                       (List.map (Ssp.intra_key_of_edge ~bunch)
                          (keys Gc_state.mirror_iter_intra))
                    = List.sort_uniq compare
                        (List.map Ssp.intra_stub_key
                           (Gc_state.intra_stubs gc ~node:sender ~bunch)));
                  (* Only the owner reads an exiting entry, so a mirror
                     holds just the sender's entries naming its node. *)
                  let want_exiting =
                    List.filter_map
                      (fun (uid, owner) -> if owner = at then Some uid else None)
                      (Gc_state.current_exiting gc ~node:sender ~bunch)
                  in
                  check_bool (where ^ ": exiting addressed here") true
                    (keys Gc_state.mirror_iter_exiting
                    = List.sort compare want_exiting);
                  if want_exiting <> [] then incr addressed;
                  if want_inter <> [] then incr shared)
            bunches)
        nodes)
    nodes;
  check_bool "mirrors were compared" true (!mirrors > 0);
  check_bool "some mirrored inter tables are non-empty" true (!shared > 0);
  check_bool "some mirrors hold exiting entries" true (!addressed > 0)

(* Two stub records that differ only in volatile detail (the target's
   address) share one edge: the table keeps both records, but a full
   ships the edge once.  Every integer is a varint: the header's kind,
   sender, bunch and three section lengths take a byte each, and the
   edge (uid 100, uid 200) one byte and two. *)
let test_shared_key_ships_once () =
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 in
  let tb = Cluster.new_bunch c ~home:1 in
  let stub addr =
    {
      Ssp.is_src_bunch = b;
      is_src_uid = 100;
      is_created_at = 0;
      is_target_uid = 200;
      is_target_bunch = tb;
      is_target_addr = addr;
      is_scion_at = 1;
    }
  in
  Gc_state.add_inter_stub gc ~node:0 (stub Addr.null);
  Gc_state.add_inter_stub gc ~node:0 (stub (Addr.add Addr.null Addr.word));
  check_int "both records kept" 2 (Gc_state.inter_stub_count gc ~node:0 ~bunch:b);
  let keys = Gc_state.inter_stub_keys gc ~node:0 ~bunch:b in
  check_bool "one edge" true
    (Gc_state.Inter_edges.elements keys = [ Ssp.inter_stub_edge (stub Addr.null) ]);
  let full =
    {
      Scion_cleaner.tm_sender = 0;
      tm_bunch = b;
      tm_body =
        Scion_cleaner.Full
          { fb_inter = keys; fb_intra = Gc_state.Intra_edges.empty; fb_exiting = [] };
    }
  in
  let bytes = 6 + (1 + 2) in
  check_int "msg_bytes of the full" bytes (Scion_cleaner.msg_bytes full);
  (* The first broadcast is first contact, so N1 gets a full. *)
  ignore
    (Scion_cleaner.broadcast gc ~node:0 ~bunch:b
       ~holders:(Gc_state.stub_holders gc ~node:0 ~bunch:b)
       ~exiting:[]);
  ignore (Cluster.drain c);
  let stats = Cluster.stats c in
  check_int "one full sent" 1 (Stats.get stats "gc.cleaner.full_sent");
  check_int "full wire bytes" bytes (Stats.get stats "tables.full_wire_bytes");
  let mirrored = ref [] in
  Gc_state.mirror_iter_inter (Gc_state.mirror gc ~node:1 ~sender:0 ~bunch:b)
    (fun k -> mirrored := k :: !mirrored);
  check_bool "the receiver mirrors the one edge" true
    (!mirrored = Gc_state.Inter_edges.elements keys)

(* Nothing on the wire names a stub's holder, so a table may hold only
   stubs its node created: filing one anywhere else is refused, and the
   table stays as it was. *)
let test_misfiled_stub_refused () =
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 in
  let tb = Cluster.new_bunch c ~home:1 in
  let stub =
    {
      Ssp.is_src_bunch = b;
      is_src_uid = 100;
      is_created_at = 1;
      is_target_uid = 200;
      is_target_bunch = tb;
      is_target_addr = Addr.null;
      is_scion_at = 0;
    }
  in
  check_bool "filing N1's stub at N0 raises Invalid_argument" true
    (match Gc_state.add_inter_stub gc ~node:0 stub with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_int "N0's table is untouched" 0 (Gc_state.inter_stub_count gc ~node:0 ~bunch:b);
  Gc_state.add_inter_stub gc ~node:1 stub;
  check_int "its creator files it" 1 (Gc_state.inter_stub_count gc ~node:1 ~bunch:b)

(* One edge at two holders.  N0 and N1 each hold a stub with the same
   edge in their tables for one bunch, and N2 holds a scion for each, so
   the two match keys differ only in the holder; N0 also holds a stub
   of a second bunch, with its scion at N2 too.  No message names a
   stub's holder or source bunch, so only the sweep's sender and bunch
   filters keep N0's stream from judging N1's scion or the other
   bunch's.  N0 drops the edge and broadcasts: N2 must lose N0's scion
   and keep the other two.  [stubs] files a holder's stub and [scions]
   the matching scion at N2. *)
let edge_at_two_holders ~stubs ~scions =
  let c = Cluster.create ~nodes:3 () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let tb = Cluster.new_bunch c ~home:2 in
  let broadcast ~node ~bunch ~holders =
    ignore (Scion_cleaner.broadcast gc ~node ~bunch ~holders ~exiting:[]);
    ignore (Cluster.drain c)
  in
  List.iter
    (fun holder ->
      stubs gc ~holder ~bunch:b ~tb;
      scions gc ~holder ~bunch:b ~tb)
    [ 0; 1 ];
  stubs gc ~holder:0 ~bunch:b2 ~tb;
  scions gc ~holder:0 ~bunch:b2 ~tb;
  List.iter
    (fun (node, bunch) ->
      broadcast ~node ~bunch ~holders:(Gc_state.stub_holders gc ~node ~bunch))
    [ (0, b); (1, b); (0, b2) ];
  let scions_at_n2 =
    List.fold_left
      (fun n bunch ->
        n
        + List.length (Gc_state.inter_scions gc ~node:2 ~bunch)
        + List.length (Gc_state.intra_scions gc ~node:2 ~bunch))
      0 [ b; b2; tb ]
  in
  check_int "every scion survives the first tables" 3 scions_at_n2;
  let holders = Gc_state.stub_holders gc ~node:0 ~bunch:b in
  Gc_state.retain_stubs gc ~node:0 ~bunch:b ~inter:(fun _ -> false)
    ~intra:(fun _ -> false);
  broadcast ~node:0 ~bunch:b ~holders;
  (gc, b, b2, tb)

let test_inter_edge_at_two_holders () =
  let stubs gc ~holder ~bunch ~tb =
    Gc_state.add_inter_stub gc ~node:holder
      {
        Ssp.is_src_bunch = bunch;
        is_src_uid = 100 + bunch;
        is_created_at = holder;
        is_target_uid = 200;
        is_target_bunch = tb;
        is_target_addr = Addr.null;
        is_scion_at = 2;
      }
  in
  let scion ~holder ~bunch ~tb =
    {
      Ssp.xs_src_bunch = bunch;
      xs_src_uid = 100 + bunch;
      xs_src_node = holder;
      xs_target_uid = 200;
      xs_target_bunch = tb;
    }
  in
  let scions gc ~holder ~bunch ~tb =
    Gc_state.add_inter_scion gc ~node:2 (scion ~holder ~bunch ~tb)
  in
  let gc, b, b2, tb = edge_at_two_holders ~stubs ~scions in
  let held s = List.mem s (Gc_state.inter_scions gc ~node:2 ~bunch:tb) in
  check_bool "N0's scion is gone" false (held (scion ~holder:0 ~bunch:b ~tb));
  check_bool "N1's scion for the same edge stays" true
    (held (scion ~holder:1 ~bunch:b ~tb));
  check_bool "N0's scion of the other bunch stays" true
    (held (scion ~holder:0 ~bunch:b2 ~tb))

let test_intra_edge_at_two_holders () =
  let stubs gc ~holder ~bunch ~tb:_ =
    Gc_state.add_intra_stub gc ~node:holder
      { Ssp.ns_bunch = bunch; ns_uid = 300 + bunch; ns_holder = 2 }
  in
  let scion ~holder ~bunch =
    { Ssp.xn_bunch = bunch; xn_uid = 300 + bunch; xn_owner_side = holder }
  in
  let scions gc ~holder ~bunch ~tb:_ =
    Gc_state.add_intra_scion gc ~node:2 (scion ~holder ~bunch)
  in
  let gc, b, b2, _ = edge_at_two_holders ~stubs ~scions in
  let held bunch s = List.mem s (Gc_state.intra_scions gc ~node:2 ~bunch) in
  check_bool "N0's scion is gone" false (held b (scion ~holder:0 ~bunch:b));
  check_bool "N1's scion for the same edge stays" true
    (held b (scion ~holder:1 ~bunch:b));
  check_bool "N0's scion of the other bunch stays" true
    (held b2 (scion ~holder:0 ~bunch:b2))

(* Exiting entries are addressed by owner.  N0 exits four objects,
   three it believes N1 owns and one N2 owns: N1's full carries three
   bare uids and N2's one, and each receiver enters only its own.  The
   next round changes only N2's entries; N1 still gets its delta, but
   the delta is empty for it and takes the no-op path.  Every integer
   is a varint: each uid, node, bunch, basis seq and section length
   here is under 128 and takes one byte, except the stubs' targets
   (200–209), which take two.  A full writes its edges in target order,
   each as its target's difference from the edge before and its source:
   the first edge's target (200) and source (100) take 2 + 1 bytes, and
   every later one's difference (1) and source a byte each. *)
let test_exiting_addressed_by_owner () =
  let c = Cluster.create ~nodes:3 () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 in
  let tb = Cluster.new_bunch c ~home:1 in
  (* Ten stub records make the table outweigh the round's churn, so the
     second round goes out as deltas. *)
  for i = 0 to 9 do
    Gc_state.add_inter_stub gc ~node:0
      {
        Ssp.is_src_bunch = b;
        is_src_uid = 100 + i;
        is_created_at = 0;
        is_target_uid = 200 + i;
        is_target_bunch = tb;
        is_target_addr = Addr.null;
        is_scion_at = 1;
      }
  done;
  let broadcast exiting =
    ignore
      (Scion_cleaner.broadcast gc ~node:0 ~bunch:b
         ~holders:(Gc_state.stub_holders gc ~node:0 ~bunch:b)
         ~exiting);
    ignore (Cluster.drain c)
  in
  let mirrored at =
    let l = ref [] in
    (match Gc_state.mirror gc ~node:at ~sender:0 ~bunch:b with
    | m -> Gc_state.mirror_iter_exiting m (fun uid -> l := uid :: !l)
    | exception Not_found -> ());
    List.sort compare !l
  in
  let entering at uid =
    Directory.is_entering_from (Protocol.directory (Cluster.proto c) at) ~uid
      ~from:0
  in
  (* A full's header: kind, sender, bunch and three section lengths. *)
  let full_header = 6 and keys = (2 + 1) + (9 * (1 + 1)) in
  broadcast [ (10, 1); (11, 1); (12, 1); (20, 2) ];
  check_int "first contact: two fulls" 2 (stat c "gc.cleaner.full_sent");
  check_int "full wire bytes: key tables plus a byte per addressed uid"
    ((2 * (full_header + keys)) + 4)
    (stat c "tables.full_wire_bytes");
  check_bool "N1 mirrors its three uids" true (mirrored 1 = [ 10; 11; 12 ]);
  check_bool "N2 mirrors its one" true (mirrored 2 = [ 20 ]);
  check_bool "N1 enters its objects" true (entering 1 10 && entering 1 12);
  check_bool "and not N2's" false (entering 1 20);
  check_bool "N2 enters its object" true (entering 2 20);
  let noop = stat c "gc.cleaner.noop_tables" in
  let full_bytes = stat c "tables.full_bytes" in
  broadcast [ (10, 1); (11, 1); (12, 1); (21, 2) ];
  check_int "then two deltas" 2 (stat c "gc.cleaner.delta_sent");
  (* A delta's header: kind, sender, bunch, basis and six section
     lengths. *)
  let delta_header = 10 in
  check_int "delta wire bytes: N1's is a bare header, N2's flips two uids"
    (delta_header + (delta_header + 2))
    (stat c "tables.delta_wire_bytes");
  check_int "the full counterfactual is per destination"
    (full_header + keys + 3 + (full_header + keys + 1))
    (stat c "tables.full_bytes" - full_bytes);
  check_int "N1's delta is a no-op" (noop + 1)
    (stat c "gc.cleaner.noop_tables");
  check_bool "N1's mirror is unchanged" true (mirrored 1 = [ 10; 11; 12 ]);
  check_bool "N2's mirror follows its flips" true (mirrored 2 = [ 21 ]);
  check_bool "N2 enters the new object" true (entering 2 21)

(* Owner-addressed exiting entries on a real workload, with stub-table
   messages dropped and duplicated through quiescence.  A sender's
   exiting journal changes only inside its collections, so a snapshot at
   every collection's end holds every entry any table could carry.
   After each table message is delivered, every mirror at its receiver
   may hold only uids the sender journalled with the receiver as owner.
   Once the faults clear and every node collects every bunch again, no
   entry owned by a live node may be missing from that node's mirror. *)
let test_exiting_reaches_only_owner () =
  let d, c = driver_run () in
  let gc = Cluster.gc c in
  let net = Cluster.net c in
  let nodes = Cluster.nodes c and bunches = Protocol.bunches (Cluster.proto c) in
  let journalled = Hashtbl.create 256 in
  let evlog = Cluster.evlog c in
  Trace_event.set_enabled evlog true;
  Trace_event.add_tap evlog (fun _ e ->
      match e with
      | Trace_event.Gc_end { node; _ } ->
          List.iter
            (fun bunch ->
              List.iter
                (fun (uid, owner) ->
                  Hashtbl.replace journalled (node, bunch, owner, uid) ())
                (Gc_state.current_exiting gc ~node ~bunch))
            bunches
      | _ -> ());
  let delivered = ref 0 and mirrored = ref 0 in
  Net.set_handler net (fun env ->
      env.Net.payload env.Net.seq;
      if env.Net.kind = Net.Stub_table then begin
        incr delivered;
        let at = env.Net.dst and sender = env.Net.src in
        List.iter
          (fun bunch ->
            match Gc_state.mirror gc ~node:at ~sender ~bunch with
            | m ->
                Gc_state.mirror_iter_exiting m (fun uid ->
                    incr mirrored;
                    if not (Hashtbl.mem journalled (sender, bunch, at, uid)) then
                      Alcotest.failf
                        "N%d's mirror of N%d bunch %d holds u%d, never sent to it"
                        at sender bunch uid)
            | exception Not_found -> ())
          bunches
      end);
  Net.set_fault net ~kind:Net.Stub_table ~drop:0.1 ~dup:0.2 ~rng:(Rng.make 5);
  for _ = 1 to 4 do
    Driver.run_ops d ~ops:120 ();
    ignore (Cluster.gc_round c)
  done;
  ignore (Cluster.collect_until_quiescent c ());
  Net.clear_faults net;
  List.iter
    (fun node -> List.iter (fun bunch -> ignore (Cluster.bgc c ~node ~bunch)) bunches)
    nodes;
  ignore (Cluster.drain c);
  let checked = ref 0 in
  List.iter
    (fun sender ->
      List.iter
        (fun bunch ->
          List.iter
            (fun (uid, owner) ->
              if owner <> sender && not (Net.is_down net owner) then begin
                incr checked;
                match Gc_state.mirror gc ~node:owner ~sender ~bunch with
                | m when Gc_state.mirror_has_exiting m uid -> ()
                | _ | (exception Not_found) ->
                    Alcotest.failf "N%d's mirror of N%d bunch %d misses u%d" owner
                      sender bunch uid
              end)
            (Gc_state.current_exiting gc ~node:sender ~bunch))
        bunches)
    nodes;
  let get = Stats.get (Cluster.stats c) in
  let kind = Net.kind_to_string Net.Stub_table in
  check_bool "tables were dropped" true (get ("net.dropped." ^ kind) > 0);
  check_bool "and duplicated" true (get ("net.duplicated." ^ kind) > 0);
  check_bool "tables were delivered" true (!delivered > 0);
  check_bool "mirrors held exiting entries" true (!mirrored > 0);
  check_bool "live owners' entries were checked" true (!checked > 0)

(* The wire format: every integer a message carries is a varint, and a
   full's edges are gap-coded in set order.  Two messages are the same
   if their streams and bodies are, a full's edge sets compared by
   elements. *)
let same_msg (a : Scion_cleaner.table_msg) (b : Scion_cleaner.table_msg) =
  a.tm_sender = b.tm_sender && a.tm_bunch = b.tm_bunch
  &&
  match (a.tm_body, b.tm_body) with
  | Full x, Full y ->
      Gc_state.Inter_edges.elements x.fb_inter
      = Gc_state.Inter_edges.elements y.fb_inter
      && Gc_state.Intra_edges.elements x.fb_intra
         = Gc_state.Intra_edges.elements y.fb_intra
      && x.fb_exiting = y.fb_exiting
  | (Delta _ as x), (Delta _ as y) -> x = y
  | Full _, Delta _ | Delta _, Full _ -> false

(* Ids at each edge of a varint's byte lengths, and the largest. *)
let boundary_ids = [ 0; 127; 128; 16_383; 16_384; max_int ]

let full_msg ~sender ~bunch ~inter ~intra ~exiting =
  {
    Scion_cleaner.tm_sender = sender;
    tm_bunch = bunch;
    tm_body =
      Scion_cleaner.Full
        {
          fb_inter = Gc_state.Inter_edges.of_list inter;
          fb_intra = Gc_state.Intra_edges.of_list intra;
          fb_exiting = exiting;
        };
  }

let delta_msg ~sender ~bunch ~basis ~inter ~intra ~exiting =
  {
    Scion_cleaner.tm_sender = sender;
    tm_bunch = bunch;
    tm_body =
      Scion_cleaner.Delta
        {
          db_basis = basis;
          db_add_inter = inter;
          db_del_inter = List.rev inter;
          db_add_intra = intra;
          db_del_intra = [];
          db_add_exiting = exiting;
          db_del_exiting = List.rev exiting;
        };
  }

let hex b =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

(* Fulls and deltas whose every field sits at a boundary decode to
   themselves, and [msg_bytes] is the encoding's length.  Their edge
   sections pair every boundary id with every other, so each target
   (and each intra uid) has six edges, a full's differences run from 0
   to [max_int], and the intra section's first edge is (0, 0): two zero
   integers after the section's (0, 0) start.

   One full is written out by hand: its header (kind, sender, bunch: 0
   each), then four inter edges in target order — (5, 300) as the
   target 300 (ac 02) and the source 5; (9, 300) as a zero difference
   and 9 − 5; (2, 301) as the difference 1 and the source 2; (7, 20 000)
   as 19 699 (f3 99 01) and 7 — then three intra edges in uid order —
   (0, 0) as 0 and 0, (0, 3) as 0 and 3, (200, 1) as 200 (c8 01) and 1 —
   and one exiting uid, 16 384 (80 80 01).  Its edges take 18 bytes;
   each as its two ids they took 20. *)
let test_codec_round_trip () =
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) boundary_ids) boundary_ids
  in
  let msgs =
    List.concat_map
      (fun id ->
        [
          full_msg ~sender:id ~bunch:id ~inter:pairs ~intra:pairs
            ~exiting:boundary_ids;
          delta_msg ~sender:id ~bunch:id ~basis:id ~inter:pairs ~intra:pairs
            ~exiting:boundary_ids;
          full_msg ~sender:id ~bunch:id ~inter:[] ~intra:[] ~exiting:[];
          delta_msg ~sender:id ~bunch:id ~basis:id ~inter:[] ~intra:[] ~exiting:[];
        ])
      boundary_ids
  in
  List.iteri
    (fun i m ->
      let b = Scion_cleaner.encode m in
      check_int (Printf.sprintf "message %d: msg_bytes is the length" i)
        (Bytes.length b) (Scion_cleaner.msg_bytes m);
      check_bool (Printf.sprintf "message %d decodes to itself" i) true
        (same_msg m (Scion_cleaner.decode b)))
    msgs;
  let by_hand =
    full_msg ~sender:0 ~bunch:0
      ~inter:[ (7, 20_000); (2, 301); (9, 300); (5, 300) ]
      ~intra:[ (200, 1); (0, 3); (0, 0) ]
      ~exiting:[ 16_384 ]
  in
  let b = Scion_cleaner.encode by_hand in
  check Alcotest.string "a full written out by hand"
    "00 00 00 04 ac 02 05 00 04 01 02 f3 99 01 07 03 00 00 00 03 c8 01 01 01 80 80 01"
    (hex b);
  check_int "its msg_bytes" (Bytes.length b) (Scion_cleaner.msg_bytes by_hand);
  check_bool "it decodes to itself" true (same_msg by_hand (Scion_cleaner.decode b))

(* The encoding is unsigned: a negative integer anywhere in a message
   ([Ids.Node.invalid] as a sender, a negative uid) never reaches the
   wire, and a message that is not one is refused.  So is a full whose
   edges do not ascend: after a section's first edge, two zero integers
   repeat the edge before, and an id rebuilt past [max_int] would wrap
   below it. *)
let test_codec_refusals () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let refused name m =
    raises (name ^ ": encode") (fun () -> Scion_cleaner.encode m);
    raises (name ^ ": msg_bytes") (fun () -> Scion_cleaner.msg_bytes m)
  in
  refused "invalid sender"
    (full_msg ~sender:Ids.Node.invalid ~bunch:0 ~inter:[] ~intra:[] ~exiting:[]);
  refused "negative inter source"
    (full_msg ~sender:0 ~bunch:0 ~inter:[ (-1, 5) ] ~intra:[] ~exiting:[]);
  refused "negative exiting uid"
    (delta_msg ~sender:0 ~bunch:0 ~basis:1 ~inter:[] ~intra:[] ~exiting:[ -7 ]);
  refused "negative basis"
    (delta_msg ~sender:0 ~bunch:0 ~basis:(-1) ~inter:[] ~intra:[] ~exiting:[]);
  let good =
    Scion_cleaner.encode
      (full_msg ~sender:1 ~bunch:2 ~inter:[ (3, 4) ] ~intra:[] ~exiting:[])
  in
  raises "unknown kind" (fun () ->
      Scion_cleaner.decode (Bytes.of_string "\x02\x00\x00"));
  (* A full from stream (0, 0) whose inter section is the given edge
     integers, two an edge, then whose intra section is [intra]'s. *)
  let full_of ?(intra = []) inter =
    let buf = Buffer.create 32 in
    List.iter (Varint.write buf) [ 0; 0; 0; List.length inter / 2 ];
    List.iter (Varint.write buf) inter;
    List.iter (Varint.write buf) ((List.length intra / 2) :: intra);
    Varint.write buf 0;
    Buffer.to_bytes buf
  in
  check_bool "a first edge at (0, 0) is read" true
    (same_msg
       (Scion_cleaner.decode (full_of ~intra:[ 0; 0 ] [ 0; 0 ]))
       (full_msg ~sender:0 ~bunch:0 ~inter:[ (0, 0) ] ~intra:[ (0, 0) ] ~exiting:[]));
  (* (3, 4), then two zero integers: the same edge again. *)
  raises "a repeated inter edge" (fun () -> Scion_cleaner.decode (full_of [ 4; 3; 0; 0 ]));
  raises "a repeated intra edge" (fun () ->
      Scion_cleaner.decode (full_of ~intra:[ 0; 0; 0; 0 ] []));
  (* (0, [max_int]), then a target one higher: it would wrap below its
     predecessor. *)
  raises "a descending edge" (fun () ->
      Scion_cleaner.decode (full_of [ max_int; 0; 1; 0 ]));
  (* (max_int − 5, 1), then a source 10 higher on the same target. *)
  raises "an overflowing difference" (fun () ->
      Scion_cleaner.decode (full_of [ 1; max_int - 5; 0; 10 ]));
  raises "trailing bytes" (fun () ->
      Scion_cleaner.decode (Bytes.cat good (Bytes.make 1 '\x00')));
  raises "truncated" (fun () ->
      Scion_cleaner.decode (Bytes.sub good 0 (Bytes.length good - 1)))

(* Sends are priced from sums (the tables' byte sums and the round's
   delta), and [msg_bytes] prices a message from its body.  On a
   fault-free workload through quiescence, every delivered table message
   must encode to [msg_bytes] bytes and decode back to itself, and the
   bodies must add up to the bytes the sends accounted.  The
   tables a wave sends one peer ride in one wire message: every table
   sent is delivered, in fewer messages, and no wave sends a pair more
   than one. *)
let test_one_price () =
  let d, c = driver_run () in
  let net = Cluster.net c in
  let delivered = ref 0 and tapped = ref 0 and priced = ref 0 in
  let pairs = Hashtbl.create 16 in
  Net.set_handler net (fun env ->
      env.Net.payload env.Net.seq;
      if env.Net.kind = Net.Stub_table then begin
        incr delivered;
        Hashtbl.replace pairs (env.Net.src, env.Net.dst) ()
      end);
  (* A wave run from an empty queue delivers, fault-free, only the tables
     it sent, in at least one wire message per pair it reached: exactly
     one each when the counts match. *)
  let wave () =
    ignore (Cluster.drain c);
    Hashtbl.reset pairs;
    let before = Net.sent net Net.Stub_table in
    let reclaimed = Cluster.gc_round c in
    check_int "one stub-table wire message per pair and wave"
      (Hashtbl.length pairs)
      (Net.sent net Net.Stub_table - before);
    reclaimed
  in
  Fun.protect
    ~finally:(fun () -> Scion_cleaner.set_delivery_tap None)
    (fun () ->
      Scion_cleaner.set_delivery_tap
        (Some
           (fun ~at:_ msg ->
             incr tapped;
             let b = Scion_cleaner.encode msg in
             if Bytes.length b <> Scion_cleaner.msg_bytes msg then
               Alcotest.failf "a table encodes to %d bytes, msg_bytes says %d"
                 (Bytes.length b) (Scion_cleaner.msg_bytes msg);
             if not (same_msg msg (Scion_cleaner.decode b)) then
               Alcotest.fail "a delivered table does not decode to itself";
             priced := !priced + Scion_cleaner.msg_bytes msg));
      for _ = 1 to 4 do
        Driver.run_ops d ~ops:120 ();
        ignore (wave ())
      done;
      (* Quiescence as [Cluster.collect_until_quiescent] decides it:
         nodes + 1 rounds in a row that reclaim nothing. *)
      let quiet = List.length (Cluster.nodes c) + 1 in
      let rec quiesce zeros rounds =
        if zeros < quiet && rounds > 0 then
          quiesce (if wave () = 0 then zeros + 1 else 0) (rounds - 1)
      in
      quiesce 0 (10 + (3 * quiet)));
  let get = Stats.get (Cluster.stats c) in
  let tables = get "gc.cleaner.full_sent" + get "gc.cleaner.delta_sent" in
  check_bool "tables were delivered" true (!delivered > 0);
  check_int "the tap saw every delivery" !delivered !tapped;
  check_int "the tap saw every table sent" tables !tapped;
  check_bool "in fewer wire messages" true
    (Net.sent net Net.Stub_table < tables);
  check_bool "fulls and deltas were sent" true
    (get "gc.cleaner.full_sent" > 0 && get "gc.cleaner.delta_sent" > 0);
  check_int "no resync pulls" 0 (get "tables.resync_bytes");
  check_int "sum of msg_bytes = full + delta wire bytes"
    (get "tables.full_wire_bytes" + get "tables.delta_wire_bytes")
    !priced

(* The ledger splits the cleaner's wire by encoding: fulls, deltas and
   resync pulls.  Fault-free, their sum is what the network carried as
   stub tables, and [tables.delta_bytes] is that sum.  A receiver restart
   wipes its mirrors, so the sender's next delta to it resyncs.  It also
   splits the same bytes by section: headers, inter-bunch edges,
   intra-bunch edges and exiting uids, which add up to
   [tables.delta_bytes] too. *)
let test_ledger_splits_wire () =
  let d, c = driver_run () in
  for _ = 1 to 4 do
    Driver.run_ops d ~ops:120 ();
    ignore (Cluster.gc_round c)
  done;
  Cluster.crash_node c ~node:1;
  Cluster.restart_node c ~node:1;
  ignore (Cluster.gc_round c);
  let stats = Cluster.stats c in
  let get = Stats.get stats in
  let full = get "tables.full_wire_bytes"
  and delta = get "tables.delta_wire_bytes"
  and resync = get "tables.resync_bytes" in
  check_bool "fulls sent" true (full > 0);
  check_bool "deltas sent" true (delta > 0);
  check_bool "resyncs pulled" true (resync > 0);
  check_int "full + delta + resync = net stub_table bytes"
    (get ("net.bytes." ^ Net.kind_to_string Net.Stub_table))
    (full + delta + resync);
  check_int "tables.delta_bytes is the sum" (full + delta + resync)
    (get "tables.delta_bytes");
  let sections =
    List.map
      (fun s -> (s, get ("tables.bytes." ^ s)))
      [ "header"; "inter"; "intra"; "exiting" ]
  in
  List.iter
    (fun (s, bytes) -> check_bool ("some " ^ s ^ " bytes") true (bytes > 0))
    sections;
  check_int "header + inter + intra + exiting = tables.delta_bytes"
    (get "tables.delta_bytes")
    (List.fold_left (fun n (_, bytes) -> n + bytes) 0 sections)

(* Scion tables keep no journal: only stub tables read one.  Adding and
   removing [n] fresh inter-bunch scions at a node must leave nothing
   behind, so a second cycle does not grow the GC state.  A scion table
   that journalled its key flips would keep every key it ever held,
   about [n] more bindings per cycle, until its node crashed. *)
let test_scion_tables_keep_no_journal () =
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let sb = Cluster.new_bunch c ~home:1 in
  let tb = Cluster.new_bunch c ~home:0 in
  let n = 500 in
  let cycle k =
    for i = (k * n) to ((k + 1) * n) - 1 do
      Gc_state.add_inter_scion gc ~node:0
        {
          Ssp.xs_src_bunch = sb;
          xs_src_uid = 1 + i;
          xs_src_node = 1;
          xs_target_uid = 100_001 + i;
          xs_target_bunch = tb;
        }
    done;
    check_int "every scion removed" n
      (Gc_state.remove_inter_scions_from gc ~node:0 ~src:1 (fun _ -> true));
    check_int "view empty" 0 (List.length (Gc_state.inter_scions gc ~node:0 ~bunch:tb));
    Obj.reachable_words (Obj.repr gc)
  in
  let first = cycle 0 in
  let growth = cycle 1 - first in
  check_bool
    (Printf.sprintf "second cycle grew the GC state by %d words" growth)
    true (growth <= 64)

let () =
  Alcotest.run "scion_cleaner"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "scion survives while stub lives" `Quick
            test_scion_survives_while_stub_lives;
          Alcotest.test_case "scion removed when stub gone" `Quick
            test_scion_removed_when_stub_gone;
          Alcotest.test_case "entering ownerPtr reconciliation" `Quick
            test_entering_reconciliation;
          Alcotest.test_case "destinations" `Quick test_destinations;
          Alcotest.test_case "scion tables keep no journal" `Quick
            test_scion_tables_keep_no_journal;
        ] );
      ( "robustness (§6.1)",
        [
          Alcotest.test_case "stale and duplicate tables ignored" `Quick
            test_stale_table_ignored;
          Alcotest.test_case "loss tolerated, repaired by resend" `Quick
            test_loss_tolerance_with_resend;
          Alcotest.test_case "duplication harmless" `Quick test_duplication_tolerance;
        ] );
      ( "own tables",
        [
          Alcotest.test_case "unchanged bunch removes no scion" `Quick
            test_own_tables_unchanged;
          Alcotest.test_case "dropped local edge retires scion" `Quick
            test_own_dropped_edge_retires_scion;
          Alcotest.test_case "no resync after a crash" `Quick
            test_own_tables_after_crash;
          Alcotest.test_case "phase timers not double-charged" `Quick
            test_phase_timers_not_double_charged;
        ] );
      ( "key encoding",
        [
          Alcotest.test_case "key views match the stub scan" `Quick
            test_key_views_match_scan;
          Alcotest.test_case "a shared key ships once" `Quick
            test_shared_key_ships_once;
          Alcotest.test_case "exiting entries addressed by owner" `Quick
            test_exiting_addressed_by_owner;
          Alcotest.test_case "exiting entries reach only their owner" `Quick
            test_exiting_reaches_only_owner;
          Alcotest.test_case "ledger splits wire by encoding" `Quick
            test_ledger_splits_wire;
          Alcotest.test_case "a stub filed away from its creator is refused"
            `Quick test_misfiled_stub_refused;
          Alcotest.test_case "one inter edge at two holders" `Quick
            test_inter_edge_at_two_holders;
          Alcotest.test_case "one intra edge at two holders" `Quick
            test_intra_edge_at_two_holders;
          Alcotest.test_case "one price on both paths" `Quick test_one_price;
        ] );
      ( "wire format",
        [
          Alcotest.test_case "boundary ids round-trip" `Quick
            test_codec_round_trip;
          Alcotest.test_case "negative ids and malformed bytes refused" `Quick
            test_codec_refusals;
        ] );
    ]
