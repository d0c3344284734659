(* Equivalence of the indexed stub tables and the delta-reassembled
   mirrors with plain list semantics.

   A reference model maintains the sender's stub tables as naive lists
   with the documented semantics: adds prepend-if-absent, and a BGC's
   table reconstruction filters the list in place.  A replace is a
   retain followed by adds, the sequence BGCs and the write barrier
   produce, so the model's view order follows from those two rules.
   Random op sequences — adds, replaces, broadcast rounds (some with
   every table message dropped), and crash/restart of either side —
   drive the real implementation, and after every op the indexed
   accessors must agree with the model exactly.  After every cleanly delivered round the receiver's mirror
   (rebuilt from fulls and one-round deltas, healed by pull-resyncs
   after losses and restarts) must cover precisely the stubs the model
   holds, and reassemble exactly the model's exiting list.

   A second source bunch from the same sender has its own stubs, aimed
   at the same targets as the first's, so the receiver's per-(sender,
   target) claim counts must add up across two mirrors.  After every op
   — fulls, deltas, resyncs, losses and crashes alike —
   [Gc_state.mirror_claims_target] must agree, for every pool target,
   with the brute-force fold over the receiver's mirrors that it
   replaced.  Not decrementing the counts when a full replaces an
   existing mirror (in [Gc_state.mirror_reset]) fails this test, and so
   does keeping a presence set instead of counts.  So does an in-place
   retain ([Gc_state.t_retain]) that skips [t_index_remove] (a dropped
   stub lingers in the [inter_stubs_with_src] index) or [t_key_decr]
   (its key is never journalled as deleted, and the mirror keeps
   covering it). *)

open Bmx_util
module Cluster = Bmx.Cluster
module Net = Bmx_netsim.Net
module Gc_state = Bmx_gc.Gc_state
module Scion_cleaner = Bmx_gc.Scion_cleaner
module Ssp = Bmx_gc.Ssp

let sender = 0
let receiver = 1
let pool_size = 6

type op =
  | Add_inter of int  (* pool index *)
  | Add_intra of int
  | Add_inter2 of int  (* second source bunch *)
  | Replace of bool array * bool array
      (* presence masks over the pools: retain the masked entries, then
         add the masked ones the table lacks *)
  | Replace2 of bool array
  | Round of bool array * bool  (* exiting mask, drop all table messages? *)
  | Crash_receiver
  | Crash_sender

let pp_mask m =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list m))

let pp_op = function
  | Add_inter i -> Printf.sprintf "Add_inter %d" i
  | Add_intra i -> Printf.sprintf "Add_intra %d" i
  | Add_inter2 i -> Printf.sprintf "Add_inter2 %d" i
  | Replace (a, b) -> Printf.sprintf "Replace (%s, %s)" (pp_mask a) (pp_mask b)
  | Replace2 a -> Printf.sprintf "Replace2 %s" (pp_mask a)
  | Round (m, drop) ->
      Printf.sprintf "Round (%s, drop=%b)" (pp_mask m) drop
  | Crash_receiver -> "Crash_receiver"
  | Crash_sender -> "Crash_sender"

let gen_mask = QCheck.Gen.(array_size (return pool_size) bool)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Add_inter i) (int_bound (pool_size - 1)));
        (3, map (fun i -> Add_intra i) (int_bound (pool_size - 1)));
        (2, map (fun i -> Add_inter2 i) (int_bound (pool_size - 1)));
        (2, map2 (fun a b -> Replace (a, b)) gen_mask gen_mask);
        (1, map (fun a -> Replace2 a) gen_mask);
        ( 6,
          map2
            (fun m d -> Round (m, d))
            gen_mask
            (frequency [ (4, return false); (1, return true) ]) );
        (1, return Crash_receiver);
        (1, return Crash_sender);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 8 40) gen_op)

let masked pool mask =
  Array.to_list pool
  |> List.filteri (fun i _ -> mask.(i))

let sorted l = List.sort compare l

(* Aggregated across every generated sequence, so the suite can assert
   the interesting paths (delta sends, loss-triggered resyncs) really
   ran — a property that only ever exercised full tables would pass
   vacuously. *)
let total_deltas = ref 0
let total_fulls = ref 0
let total_resyncs = ref 0

let prop_indexed_tables_match_lists =
  QCheck.Test.make ~name:"indexed tables + delta mirrors = list semantics"
    ~count:150 arb_ops (fun ops ->
      let c = Cluster.create ~nodes:2 () in
      let g = Cluster.gc c in
      let b = Cluster.new_bunch c ~home:sender in
      let tb = Cluster.new_bunch c ~home:sender in
      let b2 = Cluster.new_bunch c ~home:sender in
      let fault_rng = Rng.make 7 in
      (* Fixed pools of distinct records; every scion side lives at the
         receiver so it stays in the broadcast destination set whenever
         anything is published. *)
      let inter_pool =
        Array.init pool_size (fun i ->
            {
              Ssp.is_src_bunch = b;
              is_src_uid = 100 + i;
              is_created_at = sender;
              is_target_uid = 200 + i;
              is_target_bunch = tb;
              is_target_addr = Addr.null;
              is_scion_at = receiver;
            })
      in
      let inter_pool2 =
        Array.init pool_size (fun i ->
            { (inter_pool.(i)) with Ssp.is_src_bunch = b2; is_src_uid = 500 + i })
      in
      let intra_pool =
        Array.init pool_size (fun i ->
            { Ssp.ns_bunch = b; ns_uid = 300 + i; ns_holder = receiver })
      in
      let exiting_pool =
        Array.init pool_size (fun i -> (400 + i, receiver))
      in
      (* The reference model: the sender's tables with list semantics. *)
      let m_inter = ref [] and m_intra = ref [] and m_exiting = ref [] in
      let m_inter2 = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let mirror bunch = Gc_state.mirror g ~node:receiver ~sender ~bunch in
      let model_add m s = if not (List.mem s !m) then m := s :: !m in
      let model_replace m wanted =
        m := List.filter (fun s -> List.mem s wanted) !m;
        List.iter (model_add m) wanted
      in
      let replace ~bunch ~inter ~intra =
        Gc_state.retain_stubs g ~node:sender ~bunch
          ~inter:(fun s -> List.mem s inter)
          ~intra:(fun s -> List.mem s intra);
        List.iter (Gc_state.add_inter_stub g ~node:sender) inter;
        List.iter (Gc_state.add_intra_stub g ~node:sender) intra
      in
      let check_views op =
        let vi = Gc_state.inter_stubs g ~node:sender ~bunch:b in
        if vi <> !m_inter then
          fail "after %s: inter view has %d entries, model %d" (pp_op op)
            (List.length vi) (List.length !m_inter);
        if Gc_state.inter_stubs g ~node:sender ~bunch:b2 <> !m_inter2 then
          fail "after %s: second bunch's inter view diverges" (pp_op op);
        let vn = Gc_state.intra_stubs g ~node:sender ~bunch:b in
        if vn <> !m_intra then
          fail "after %s: intra view has %d entries, model %d" (pp_op op)
            (List.length vn) (List.length !m_intra);
        for i = 0 to pool_size - 1 do
          let uid = 100 + i in
          let got =
            sorted (Gc_state.inter_stubs_with_src g ~node:sender ~bunch:b ~uid)
          in
          let want =
            sorted (List.filter (fun s -> s.Ssp.is_src_uid = uid) !m_inter)
          in
          if got <> want then
            fail "after %s: inter_stubs_with_src %d diverges" (pp_op op) uid;
          let uid = 300 + i in
          let got =
            sorted (Gc_state.intra_stubs_for_uid g ~node:sender ~bunch:b ~uid)
          in
          let want =
            sorted (List.filter (fun s -> s.Ssp.ns_uid = uid) !m_intra)
          in
          if got <> want then
            fail "after %s: intra_stubs_for_uid %d diverges" (pp_op op) uid
        done
      in
      (* The oracle is the scan the claim counts replaced: every mirror
         the receiver holds from the sender, every inter key in it. *)
      let check_claims op =
        for i = 0 to pool_size - 1 do
          let target = 200 + i in
          let scanned = ref false in
          List.iter
            (fun bunch ->
              match mirror bunch with
              | None -> ()
              | Some m ->
                  Gc_state.mirror_iter_inter m (fun (_, _, _, t) ->
                      if t = target then scanned := true))
            [ b; b2 ];
          let indexed =
            Gc_state.mirror_claims_target g ~node:receiver ~sender target
          in
          if indexed <> !scanned then
            fail "after %s: claims on target %d = %b, mirror scan %b"
              (pp_op op) target indexed !scanned
        done
      in
      let check_mirror op =
        (* Only meaningful if this round actually addressed the receiver
           (after a sender crash the destination set can be empty until
           tables repopulate). *)
        if List.mem receiver (Gc_state.last_broadcast_dests g ~node:sender ~bunch:b)
        then begin
          Array.iteri
            (fun i stub ->
              let scion =
                {
                  Ssp.xs_src_bunch = b;
                  xs_src_uid = 100 + i;
                  xs_src_node = sender;
                  xs_target_uid = 200 + i;
                  xs_target_bunch = tb;
                }
              in
              let covered =
                match mirror b with
                | None -> false
                | Some m -> Gc_state.mirror_has_inter m (Ssp.inter_scion_key scion)
              in
              let want =
                List.exists (fun s -> Ssp.inter_stub_matches s scion) !m_inter
              in
              if covered <> want then
                fail "after %s: mirror inter coverage of uid %d = %b, model %b"
                  (pp_op op) stub.Ssp.is_src_uid covered want)
            inter_pool;
          Array.iteri
            (fun i _ ->
              let scion =
                { Ssp.xn_bunch = b; xn_uid = 300 + i; xn_owner_side = sender }
              in
              let covered =
                match mirror b with
                | None -> false
                | Some m ->
                    Gc_state.mirror_has_intra m
                      (Ssp.intra_scion_key ~holder:receiver scion)
              in
              let want =
                List.exists
                  (fun s -> Ssp.intra_stub_matches ~holder:receiver s scion)
                  !m_intra
              in
              if covered <> want then
                fail "after %s: mirror intra coverage of uid %d = %b, model %b"
                  (pp_op op) (300 + i) covered want)
            intra_pool;
          let got = ref [] in
          Option.iter
            (fun m -> Gc_state.mirror_iter_exiting m (fun e -> got := e :: !got))
            (mirror b);
          let got = sorted !got in
          if got <> sorted !m_exiting then
            fail "after %s: mirror exiting has %d entries, model %d" (pp_op op)
              (List.length got) (List.length !m_exiting)
        end
      in
      List.iter
        (fun op ->
          (match op with
          | Add_inter i ->
              let s = inter_pool.(i) in
              Gc_state.add_inter_stub g ~node:sender s;
              model_add m_inter s
          | Add_intra i ->
              let s = intra_pool.(i) in
              Gc_state.add_intra_stub g ~node:sender s;
              model_add m_intra s
          | Add_inter2 i ->
              let s = inter_pool2.(i) in
              Gc_state.add_inter_stub g ~node:sender s;
              model_add m_inter2 s
          | Replace (mi, mn) ->
              let inter = masked inter_pool mi in
              let intra = masked intra_pool mn in
              replace ~bunch:b ~inter ~intra;
              model_replace m_inter inter;
              model_replace m_intra intra
          | Replace2 mask ->
              let inter = masked inter_pool2 mask in
              replace ~bunch:b2 ~inter ~intra:[];
              model_replace m_inter2 inter
          | Round (mask, drop) ->
              let exiting = masked exiting_pool mask in
              if drop then
                Net.set_fault (Cluster.net c) ~kind:Net.Stub_table ~drop:1.0
                  ~dup:0.0 ~rng:fault_rng;
              (* The Collect call convention: tables already retained,
                 broadcast, then record the exiting list for the next
                 round's destination set. *)
              ignore
                (Scion_cleaner.broadcast g ~node:sender ~bunch:b
                   ~old_inter:!m_inter ~old_intra:!m_intra ~exiting);
              Gc_state.record_exiting g ~node:sender ~bunch:b exiting;
              m_exiting := exiting;
              ignore
                (Scion_cleaner.broadcast g ~node:sender ~bunch:b2
                   ~old_inter:!m_inter2 ~old_intra:[] ~exiting:[]);
              ignore (Cluster.drain c);
              if drop then Net.clear_faults (Cluster.net c)
              else check_mirror op
          | Crash_receiver ->
              Cluster.crash_node c ~node:receiver;
              Cluster.restart_node c ~node:receiver
          | Crash_sender ->
              Cluster.crash_node c ~node:sender;
              Cluster.restart_node c ~node:sender;
              m_inter := [];
              m_intra := [];
              m_inter2 := [];
              m_exiting := []);
          check_views op;
          check_claims op)
        ops;
      (* One final clean round: whatever losses or crashes the sequence
         ended on, a single delivered message must restore the mirror to
         the truth (basis mismatches pull a resync synchronously). *)
      let exiting = !m_exiting in
      ignore
        (Scion_cleaner.broadcast g ~node:sender ~bunch:b ~old_inter:!m_inter
           ~old_intra:!m_intra ~exiting);
      Gc_state.record_exiting g ~node:sender ~bunch:b exiting;
      ignore
        (Scion_cleaner.broadcast g ~node:sender ~bunch:b2 ~old_inter:!m_inter2
           ~old_intra:[] ~exiting:[]);
      ignore (Cluster.drain c);
      let final = Round (Array.make pool_size false, false) in
      check_mirror final;
      check_claims final;
      let stat name = Stats.get (Cluster.stats c) name in
      total_deltas := !total_deltas + stat "gc.cleaner.delta_sent";
      total_fulls := !total_fulls + stat "gc.cleaner.full_sent";
      total_resyncs := !total_resyncs + stat "gc.cleaner.resyncs";
      if stat "dsm.gc.acquire_read" + stat "dsm.gc.acquire_write" <> 0 then
        fail "table maintenance acquired a DSM token";
      true)

let test_paths_exercised () =
  Alcotest.(check bool)
    "delta messages were sent" true (!total_deltas > 0);
  Alcotest.(check bool) "full tables were sent" true (!total_fulls > 0);
  Alcotest.(check bool)
    "losses triggered mirror resyncs" true (!total_resyncs > 0)

let pinned_to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260807 |]) t

let () =
  Alcotest.run "delta_tables"
    [
      ( "equivalence",
        [
          pinned_to_alcotest prop_indexed_tables_match_lists;
          Alcotest.test_case "delta/full/resync paths exercised" `Quick
            test_paths_exercised;
        ] );
    ]
