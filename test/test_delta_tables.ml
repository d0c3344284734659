(* Equivalence of the indexed stub tables and the delta-reassembled
   mirrors with plain list semantics.

   A reference model maintains the sender's stub tables as naive lists
   with the documented semantics: adds add-if-absent, and a BGC's table
   reconstruction filters the list.  A replace is a retain followed by
   adds, the sequence BGCs and the write barrier produce.  Random op
   sequences — adds, replaces, broadcast rounds (some with every table
   message dropped, some left in flight for a later round's drain), and
   crash/restart of either side — drive the real implementation, and
   after every op the accessors must agree with the model: a table has
   no order, so the list accessors are compared as multisets (a stub
   listed twice fails), the indexed ones exactly.  After every drain
   that delivered the last round, the receiver's mirror (rebuilt from
   fulls and one-round deltas, healed by pull-resyncs after losses and
   restarts) must cover precisely the stubs the model holds.  So must
   it after a drain that resynced the mirror even if the last round was
   dropped: the pull observes the current tables, and its basis is the
   sender's latest send, so any older delta still in flight resyncs
   again.  Taking the triggering message's own seq as the basis instead
   applies the next in-flight delta on top of the pulled tables, and
   fails this test.

   The exiting pool names two owners, the receiver and a third node, and
   only an entry's owner may be sent it: after every delivered table
   message, a destination's mirror may hold only uids it owns, and after
   every clean round each owner's mirror must hold exactly the model's
   entries naming it.  Shipping the whole list to every destination
   fails this test.

   A second source bunch from the same sender has its own stubs, aimed
   at the same targets as the first's, so a target can be claimed
   through either of two mirrors.  After every op — fulls, deltas,
   resyncs, losses and crashes alike — [Gc_state.mirror_claims_target]
   must agree, for every pool target, with the brute-force fold over
   the receiver's mirrors; the query names the targets' bunch, as the
   cleaner's does.  Probing only one of the sender's mirrors
   (whichever the fold visits last, say) fails this test, and so does
   skipping a mirror other than the query bunch's (the first source
   bunch's, say), and so does
   ordering the edges source-major (the least edge at or above the
   target then need not target it; the first bunch's sources run
   opposite to their targets for this).  So does a drop
   ([Gc_state.t_drop]) that skips the index (a dropped stub lingers in
   the [inter_stubs_with_src] index) or the edge count ([t_edge]: its
   edge is never journalled as deleted, and the mirror keeps covering
   it).

   After every op the sets and wire-byte sums a full is built and priced
   from must match a scan: each stub table's kept set
   ([inter_stub_keys]/[intra_stub_keys]) must be the sorted distinct
   edges of its records, its [inter_key_bytes]/[intra_key_bytes] the
   gap-coded size of that sorted list (the rule written out here, not
   [Gc_state]'s), and each owner's [exiting_bytes_to] the varint size of
   its uids.  A read folds the table's journal into the set, so each
   check folds the flips of one op (a replace flips several edges at
   once) into the set the check before it left; a fold into an empty
   set (at the start, after a sender crash, or once every edge has
   gone) sorts the table's edges instead.  The pools' ids and their
   differences sit on both sides of the varint byte lengths, and two
   pool edges of each kind share a major id.  Pricing an inserted or
   deleted edge without re-pricing its successor against its new
   predecessor fails this test, and so does a fold that flips an edge
   the set already agrees about (a journal folded twice counts its
   edges twice), a sorted build whose walk prices every edge from
   (0, 0), or an exiting sum not lowered where [note_exiting] drops a
   uid.

   A round's destinations come from the holders of the sender's stubs
   before the round ([Gc_state.stub_holders]) and its earlier
   destinations.  After every round each broadcast record's [bs_dests]
   must equal the formula the cleaner used when it read the stub lists
   and the journalled exiting owners instead: replicas, holders of the
   old and new stubs, owners in the new and the previous exiting lists
   and the previous destinations, minus the sender. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Gc_state = Bmx_gc.Gc_state
module Scion_cleaner = Bmx_gc.Scion_cleaner
module Ssp = Bmx_gc.Ssp

let sender = 0
let receiver = 1
let third = 2
let pool_size = 6

type op =
  | Add_inter of int  (* pool index *)
  | Add_intra of int
  | Add_inter2 of int  (* second source bunch *)
  | Replace of bool array * bool array
      (* presence masks over the pools: retain the masked entries, then
         add the masked ones the table lacks *)
  | Replace2 of bool array
  | Round of bool array * fate
      (* exiting mask (receiver's half, then the third node's) *)
  | Crash_receiver
  | Crash_sender

(* What happens to a round's table messages: delivered by a drain right
   after the round, dropped (the drain then delivers only earlier rounds
   still in flight), or held in flight until a later round's drain. *)
and fate = Deliver | Drop | Hold

let pp_mask m =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list m))

let pp_op = function
  | Add_inter i -> Printf.sprintf "Add_inter %d" i
  | Add_intra i -> Printf.sprintf "Add_intra %d" i
  | Add_inter2 i -> Printf.sprintf "Add_inter2 %d" i
  | Replace (a, b) -> Printf.sprintf "Replace (%s, %s)" (pp_mask a) (pp_mask b)
  | Replace2 a -> Printf.sprintf "Replace2 %s" (pp_mask a)
  | Round (m, fate) ->
      Printf.sprintf "Round (%s, %s)" (pp_mask m)
        (match fate with Deliver -> "deliver" | Drop -> "drop" | Hold -> "hold")
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
            (array_size (return (2 * pool_size)) bool)
            (frequency [ (3, return Deliver); (1, return Drop); (2, return Hold) ]) );
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

(* Pool ids: ids and their differences on both sides of the varint byte
   lengths (2^7, 2^14), and two edges of each kind sharing a major id
   (inter edges are target-major, intra edges uid-major). *)
let inter_sources = [| 16_400; 300; 200; 40; 20; 3 |]
let inter_targets = [| 130; 200; 200; 260; 16_000; 16_500 |]
let intra_uids = [| 70; 130; 200; 16_300; 16_300; 40_000 |]

(* The gap rule, written out from its definition: a list of edges sorted
   by (major, minor), each edge the varints of its major id's difference
   from the edge before and its minor id's difference if the majors are
   equal, its minor id otherwise; the first edge after (0, 0). *)
let gap_coded ~major ~minor edges =
  let sorted =
    List.sort_uniq (fun a b -> compare (major a, minor a) (major b, minor b)) edges
  in
  let bytes, _ =
    List.fold_left
      (fun (n, (pj, pn)) e ->
        let j = major e and m = minor e in
        let d = j - pj in
        (n + Varint.size d + Varint.size (if d = 0 then m - pn else m), (j, m)))
      (0, (0, 0)) sorted
  in
  (sorted, bytes)

let prop_indexed_tables_match_lists =
  QCheck.Test.make ~name:"indexed tables + delta mirrors = list semantics"
    ~count:150 arb_ops (fun ops ->
      let c = Cluster.create ~nodes:3 () in
      let g = Cluster.gc c in
      let b = Cluster.new_bunch c ~home:sender in
      let tb = Cluster.new_bunch c ~home:sender in
      let b2 = Cluster.new_bunch c ~home:sender in
      let fault_rng = Rng.make 7 in
      (* Fixed pools of distinct records; every scion side lives at the
         receiver so it stays in the broadcast destination set whenever
         anything is published.  The first bunch's sources run opposite
         to their targets, so a mirror sorted by source is not sorted by
         target. *)
      let inter_pool =
        Array.init pool_size (fun i ->
            {
              Ssp.is_src_bunch = b;
              is_src_uid = inter_sources.(i);
              is_created_at = sender;
              is_target_uid = inter_targets.(i);
              is_target_bunch = tb;
              is_target_addr = Addr.null;
              is_scion_at = receiver;
            })
      in
      let inter_pool2 =
        Array.init pool_size (fun i ->
            { (inter_pool.(i)) with Ssp.is_src_bunch = b2; is_src_uid = 500 + i })
      in
      (* One intra edge is held at the third node, beside the
         receiver's edge of the same uid. *)
      let intra_pool =
        Array.init pool_size (fun i ->
            {
              Ssp.ns_bunch = b;
              ns_uid = intra_uids.(i);
              ns_holder = (if i = 4 then third else receiver);
            })
      in
      let exiting_pool =
        Array.init (2 * pool_size) (fun i ->
            (400 + i, if i < pool_size then receiver else third))
      in
      (* The reference model: the sender's tables with list semantics. *)
      let m_inter = ref [] and m_intra = ref [] and m_exiting = ref [] in
      let m_inter2 = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let mirror bunch = Gc_state.mirror g ~node:receiver ~sender ~bunch in
      let mirrored_exiting ~at bunch =
        let got = ref [] in
        (match Gc_state.mirror g ~node:at ~sender ~bunch with
        | m -> Gc_state.mirror_iter_exiting m (fun uid -> got := uid :: !got)
        | exception Not_found -> ());
        sorted !got
      in
      let owned_by at =
        sorted
          (List.filter_map
             (fun (uid, owner) -> if owner = at then Some uid else None)
             !m_exiting)
      in
      (* The nodes whose mirror of [b] resynced during the current drain:
         the tap names the stream a delivery is about, the counter tells
         whether processing it pulled a resync. *)
      let resynced = Hashtbl.create 2 and tapped = ref None in
      let resyncs () = Stats.get (Cluster.stats c) "gc.cleaner.resyncs" in
      Scion_cleaner.set_delivery_tap
        (Some (fun ~at msg -> tapped := Some (at, msg.Scion_cleaner.tm_bunch)));
      (* Every table message, once processed, may have left only uids its
         destination owns in the destination's mirrors. *)
      Net.set_handler (Cluster.net c) (fun env ->
          let before = resyncs () in
          env.Net.payload env.Net.seq;
          let at = env.Net.dst in
          if resyncs () > before && !tapped = Some (at, b) then
            Hashtbl.replace resynced at ();
          if env.Net.kind = Net.Stub_table && env.Net.src = sender then begin
            List.iter
              (fun uid ->
                if not (Array.mem (uid, at) exiting_pool) then
                  fail "N%d's mirror holds exiting uid %d, which it does not own"
                    at uid)
              (mirrored_exiting ~at b);
            if mirrored_exiting ~at b2 <> [] then
              fail "N%d's mirror of a bunch with no exiting entries holds some" at
          end);
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
        if sorted vi <> sorted !m_inter then
          fail "after %s: inter view has %d entries, model %d" (pp_op op)
            (List.length vi) (List.length !m_inter);
        if sorted (Gc_state.inter_stubs g ~node:sender ~bunch:b2) <> sorted !m_inter2
        then fail "after %s: second bunch's inter view diverges" (pp_op op);
        let vn = Gc_state.intra_stubs g ~node:sender ~bunch:b in
        if sorted vn <> sorted !m_intra then
          fail "after %s: intra view has %d entries, model %d" (pp_op op)
            (List.length vn) (List.length !m_intra);
        for i = 0 to pool_size - 1 do
          let uid = inter_sources.(i) in
          let got =
            sorted (Gc_state.inter_stubs_with_src g ~node:sender ~bunch:b ~uid)
          in
          let want =
            sorted (List.filter (fun s -> s.Ssp.is_src_uid = uid) !m_inter)
          in
          if got <> want then
            fail "after %s: inter_stubs_with_src %d diverges" (pp_op op) uid;
          let uid = intra_uids.(i) in
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
      (* The oracle is a scan: every mirror the receiver holds from the
         sender, every inter edge in it. *)
      let check_claims op =
        for i = 0 to pool_size - 1 do
          let target = inter_targets.(i) in
          let scanned = ref false in
          List.iter
            (fun bunch ->
              match mirror bunch with
              | exception Not_found -> ()
              | m ->
                  Gc_state.mirror_iter_inter m (fun (_, t) ->
                      if t = target then scanned := true))
            [ b; b2 ];
          let indexed =
            Gc_state.mirror_claims_target g ~node:receiver ~sender ~bunch:tb
              target
          in
          if indexed <> !scanned then
            fail "after %s: claim query on target %d = %b, mirror scan %b"
              (pp_op op) target indexed !scanned
        done
      in
      (* The scans: the distinct edges of each table's records, the uids
         of each owner's exiting slot. *)
      let check_bytes op =
        let sum size l = List.fold_left (fun n x -> n + size x) 0 l in
        List.iter
          (fun bunch ->
            let inter, inter_bytes =
              gap_coded ~major:snd ~minor:fst
                (List.map Ssp.inter_stub_edge
                   (Gc_state.inter_stubs g ~node:sender ~bunch))
            and intra, intra_bytes =
              gap_coded ~major:fst ~minor:snd
                (List.map Ssp.intra_stub_edge
                   (Gc_state.intra_stubs g ~node:sender ~bunch))
            in
            if
              Gc_state.Inter_edges.elements
                (Gc_state.inter_stub_keys g ~node:sender ~bunch)
              <> inter
            then fail "after %s: bunch %d's kept inter set diverges" (pp_op op) bunch;
            if
              Gc_state.Intra_edges.elements
                (Gc_state.intra_stub_keys g ~node:sender ~bunch)
              <> intra
            then fail "after %s: bunch %d's kept intra set diverges" (pp_op op) bunch;
            if Gc_state.inter_key_bytes g ~node:sender ~bunch <> inter_bytes then
              fail "after %s: bunch %d's inter edges weigh %d bytes, summed %d"
                (pp_op op) bunch inter_bytes
                (Gc_state.inter_key_bytes g ~node:sender ~bunch);
            if Gc_state.intra_key_bytes g ~node:sender ~bunch <> intra_bytes then
              fail "after %s: bunch %d's intra edges weigh %d bytes, summed %d"
                (pp_op op) bunch intra_bytes
                (Gc_state.intra_key_bytes g ~node:sender ~bunch))
          [ b; b2 ];
        match Gc_state.find_broadcast_state g ~node:sender ~bunch:b with
        | bs ->
            List.iter
              (fun owner ->
                let want = sum Varint.size (Gc_state.exiting_to bs ~owner) in
                let got = Gc_state.exiting_bytes_to bs ~owner in
                if got <> want then
                  fail "after %s: N%d's exiting uids weigh %d bytes, summed %d"
                    (pp_op op) owner want got)
              [ receiver; third ]
        | exception Not_found -> ()
      in
      (* After a drain, [at]'s mirror must hold the sender's current tables
         if the drain delivered the last round or resynced the mirror —
         and only if some round addressed [at] (after a sender crash the
         destination set can be empty until tables repopulate). *)
      let current ~delivered at =
        (delivered || Hashtbl.mem resynced at)
        && List.mem at (Gc_state.broadcast_state g ~node:sender ~bunch:b).bs_dests
      in
      let check_mirror op ~delivered =
        if current ~delivered receiver then begin
          Array.iter
            (fun stub ->
              let scion =
                {
                  Ssp.xs_src_bunch = b;
                  xs_src_uid = stub.Ssp.is_src_uid;
                  xs_src_node = sender;
                  xs_target_uid = stub.Ssp.is_target_uid;
                  xs_target_bunch = tb;
                }
              in
              let covered =
                match mirror b with
                | exception Not_found -> false
                | m -> Gc_state.mirror_has_inter m (Ssp.inter_scion_edge scion)
              in
              let want =
                List.exists (fun s -> Ssp.inter_stub_matches s scion) !m_inter
              in
              if covered <> want then
                fail "after %s: mirror inter coverage of uid %d = %b, model %b"
                  (pp_op op) stub.Ssp.is_src_uid covered want)
            inter_pool;
          Array.iter
            (fun (stub : Ssp.intra_stub) ->
              let scion =
                { Ssp.xn_bunch = b; xn_uid = stub.Ssp.ns_uid; xn_owner_side = sender }
              in
              let covered =
                match mirror b with
                | exception Not_found -> false
                | m ->
                    Gc_state.mirror_has_intra m
                      (Ssp.intra_scion_edge ~holder:receiver scion)
              in
              let want =
                List.exists
                  (fun s -> Ssp.intra_stub_matches ~holder:receiver s scion)
                  !m_intra
              in
              if covered <> want then
                fail "after %s: mirror intra coverage of uid %d = %b, model %b"
                  (pp_op op) stub.Ssp.ns_uid covered want)
            intra_pool;
        end;
        (* Each owner addressed this round mirrors exactly its share. *)
        List.iter
          (fun at ->
            if current ~delivered at then begin
              let got = mirrored_exiting ~at b in
              if got <> owned_by at then
                fail "after %s: N%d's mirror exiting has %d entries, model %d"
                  (pp_op op) at (List.length got) (List.length (owned_by at))
            end)
          [ receiver; third ]
      in
      (* The previous formula for a round's destinations, from the
         model's lists: old and new tables are the model's (the ops
         retain before a round, as a collection does). *)
      let dests_of ~bunch ~inter ~intra ~exiting ~prev_exiting =
        let add f l acc =
          List.fold_left (fun acc x -> Ids.Node_set.add (f x) acc) acc l
        in
        let prev_dests =
          match Gc_state.find_broadcast_state g ~node:sender ~bunch with
          | bs -> bs.Gc_state.bs_dests
          | exception Not_found -> []
        in
        Ids.Node_set.of_list (Protocol.bunch_replica_nodes (Cluster.proto c) bunch)
        |> add (fun (s : Ssp.inter_stub) -> s.Ssp.is_scion_at) inter
        |> add (fun (s : Ssp.intra_stub) -> s.Ssp.ns_holder) intra
        |> add snd exiting |> add snd prev_exiting |> add Fun.id prev_dests
        |> Ids.Node_set.remove sender |> Ids.Node_set.elements
      in
      (* The Collect call convention: holders read, tables retained,
         then broadcast. *)
      let broadcast_round op exiting =
        let want_b =
          dests_of ~bunch:b ~inter:!m_inter ~intra:!m_intra ~exiting
            ~prev_exiting:!m_exiting
        and want_b2 =
          dests_of ~bunch:b2 ~inter:!m_inter2 ~intra:[] ~exiting:[] ~prev_exiting:[]
        in
        m_exiting := exiting;
        List.iter
          (fun (bunch, exiting, want) ->
            ignore
              (Scion_cleaner.broadcast g ~node:sender ~bunch
                 ~holders:(Gc_state.stub_holders g ~node:sender ~bunch)
                 ~exiting);
            let got = (Gc_state.broadcast_state g ~node:sender ~bunch).bs_dests in
            if got <> want then
              fail "after %s: bunch %d went to [%s], the formula gives [%s]"
                (pp_op op) bunch
                (String.concat " " (List.map string_of_int got))
                (String.concat " " (List.map string_of_int want)))
          [ (b, exiting, want_b); (b2, [], want_b2) ]
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
          | Round (mask, fate) ->
              let exiting = masked exiting_pool mask in
              (* A round of its own on the wire: a table sent at the
                 instant a queued one was would ride in it and share its
                 fate. *)
              ignore (Cluster.tick c);
              if fate = Drop then
                Net.set_fault (Cluster.net c) ~kind:Net.Stub_table ~drop:1.0
                  ~dup:0.0 ~rng:fault_rng;
              broadcast_round op exiting;
              Net.clear_faults (Cluster.net c);
              if fate <> Hold then begin
                Hashtbl.reset resynced;
                ignore (Cluster.drain c);
                check_mirror op ~delivered:(fate = Deliver)
              end
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
          check_bytes op;
          check_claims op)
        ops;
      (* One final clean round: whatever losses or crashes the sequence
         ended on, a single delivered message must restore the mirror to
         the truth (basis mismatches pull a resync synchronously). *)
      let final = Round (Array.make pool_size false, Deliver) in
      broadcast_round final !m_exiting;
      ignore (Cluster.drain c);
      Scion_cleaner.set_delivery_tap None;
      check_mirror final ~delivered:true;
      check_bytes final;
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

(* Scion tables under removal.  Random interleavings of adds,
   per-sender removals (which re-add later) and reads must keep every
   scion table equal to a set model: adds add if absent, removals
   filter.  Reads are ops of their own, so a removal and a re-add can
   meet with no read between them.  After every op the members
   ([has_inter_scion]) and [holds_ssps] must match the model, after
   every removal its count, and at every read the list accessors, as
   multisets: a scion listed twice fails. *)

type sop =
  | S_add_inter of int  (* pool index *)
  | S_add_intra of int
  | S_remove_inter of int * bool array  (* stub-side node, removal mask *)
  | S_remove_intra of int * bool array
  | S_read

let scion_pool_size = 8
let scion_holder = 0

let pp_sop = function
  | S_add_inter i -> Printf.sprintf "add_inter %d" i
  | S_add_intra i -> Printf.sprintf "add_intra %d" i
  | S_remove_inter (src, m) -> Printf.sprintf "remove_inter N%d %s" src (pp_mask m)
  | S_remove_intra (src, m) -> Printf.sprintf "remove_intra N%d %s" src (pp_mask m)
  | S_read -> "read"

let arb_sops =
  let open QCheck.Gen in
  let idx = int_bound (scion_pool_size - 1) in
  let src = int_range 1 2 in
  let mask = array_size (return scion_pool_size) bool in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_sop ops))
    (list_size (int_range 10 60)
       (frequency
          [
            (4, map (fun i -> S_add_inter i) idx);
            (4, map (fun i -> S_add_intra i) idx);
            (2, map2 (fun n m -> S_remove_inter (n, m)) src mask);
            (2, map2 (fun n m -> S_remove_intra (n, m)) src mask);
            (2, return S_read);
          ]))

let prop_scion_tables_match_sets =
  QCheck.Test.make ~name:"scion tables under removal = set model" ~count:300
    arb_sops (fun ops ->
      let c = Cluster.create ~nodes:3 () in
      let g = Cluster.gc c in
      let sb = Cluster.new_bunch c ~home:1 in
      let tb1 = Cluster.new_bunch c ~home:scion_holder in
      let tb2 = Cluster.new_bunch c ~home:scion_holder in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (* Stub sides alternate between nodes 1 and 2, and the inter pool
         spans two target bunches, so a removal visits one by-node
         bucket in each of two tables. *)
      let inter_pool =
        Array.init scion_pool_size (fun i ->
            {
              Ssp.xs_src_bunch = sb;
              xs_src_uid = 100 + i;
              xs_src_node = 1 + (i mod 2);
              xs_target_uid = 200 + i;
              xs_target_bunch = (if i < scion_pool_size / 2 then tb1 else tb2);
            })
      in
      let intra_pool =
        Array.init scion_pool_size (fun i ->
            { Ssp.xn_bunch = tb1; xn_uid = 300 + i; xn_owner_side = 1 + (i mod 2) })
      in
      let index pool x =
        let rec go i = if pool.(i) = x then i else go (i + 1) in
        go 0
      in
      (* Set models, one per table. *)
      let m_inter1 = ref [] and m_inter2 = ref [] and m_intra = ref [] in
      let model_of_inter (s : Ssp.inter_scion) =
        if s.Ssp.xs_target_bunch = tb1 then m_inter1 else m_inter2
      in
      let model_add m x = if not (List.mem x !m) then m := x :: !m in
      let model_remove m drop =
        let gone = List.filter drop !m in
        m := List.filter (fun x -> not (drop x)) !m;
        List.length gone
      in
      let check_members op =
        Array.iter
          (fun (s : Ssp.inter_scion) ->
            let want = List.mem s !(model_of_inter s) in
            let got = Gc_state.has_inter_scion g ~node:scion_holder s in
            if got <> want then
              fail "after %s: scion of uid %d present = %b, model %b" (pp_sop op)
                s.Ssp.xs_src_uid got want)
          inter_pool;
        List.iter
          (fun (bunch, want) ->
            if Gc_state.holds_ssps g ~node:scion_holder ~bunch <> want then
              fail "after %s: holds_ssps for bunch %d is %b, model %b" (pp_sop op)
                bunch (not want) want)
          [ (tb1, !m_inter1 <> [] || !m_intra <> []); (tb2, !m_inter2 <> []) ]
      in
      let check_views op =
        let inter bunch = sorted (Gc_state.inter_scions g ~node:scion_holder ~bunch) in
        if inter tb1 <> sorted !m_inter1 || inter tb2 <> sorted !m_inter2 then
          fail "after %s: inter scion lists differ from the model (%d+%d vs %d+%d)"
            (pp_sop op)
            (List.length (inter tb1))
            (List.length (inter tb2))
            (List.length !m_inter1) (List.length !m_inter2);
        let intra = sorted (Gc_state.intra_scions g ~node:scion_holder ~bunch:tb1) in
        if intra <> sorted !m_intra then
          fail "after %s: intra scion list has %d entries, model %d" (pp_sop op)
            (List.length intra) (List.length !m_intra)
      in
      List.iter
        (fun op ->
          (match op with
          | S_add_inter i ->
              let s = inter_pool.(i) in
              Gc_state.add_inter_scion g ~node:scion_holder s;
              model_add (model_of_inter s) s
          | S_add_intra i ->
              let s = intra_pool.(i) in
              Gc_state.add_intra_scion g ~node:scion_holder s;
              model_add m_intra s
          | S_remove_inter (src, mask) ->
              let drop (s : Ssp.inter_scion) =
                s.Ssp.xs_src_node = src && mask.(index inter_pool s)
              in
              let got =
                Gc_state.remove_inter_scions_from g ~node:scion_holder ~src drop
              in
              let want = model_remove m_inter1 drop + model_remove m_inter2 drop in
              if got <> want then
                fail "after %s: removed %d inter scions, model %d" (pp_sop op) got
                  want
          | S_remove_intra (src, mask) ->
              let drop (s : Ssp.intra_scion) = mask.(index intra_pool s) in
              let got =
                Gc_state.remove_intra_scions_from g ~node:scion_holder ~bunch:tb1
                  ~src drop
              in
              let want =
                model_remove m_intra (fun s -> s.Ssp.xn_owner_side = src && drop s)
              in
              if got <> want then
                fail "after %s: removed %d intra scions, model %d" (pp_sop op) got
                  want
          | S_read -> check_views op);
          check_members op)
        ops;
      check_views S_read;
      true)

(* A rebase clears the journal a read folds into the kept edge set, so
   it folds first: an edge added to a built set and rebased without a
   read in between still reaches the set and its sum.  A rebase that
   only clears the journal fails this test; the cleaner's rounds always
   read before they rebase, so the property test above does not catch
   it. *)
let test_rebase_folds () =
  let c = Cluster.create ~nodes:2 () in
  let g = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:sender and tb = Cluster.new_bunch c ~home:receiver in
  let add src =
    Gc_state.add_inter_stub g ~node:sender
      {
        Ssp.is_src_bunch = b;
        is_src_uid = src;
        is_created_at = sender;
        is_target_uid = 200 + src;
        is_target_bunch = tb;
        is_target_addr = Addr.null;
        is_scion_at = receiver;
      }
  in
  add 1;
  ignore (Gc_state.inter_key_bytes g ~node:sender ~bunch:b);
  add 2;
  Gc_state.rebase_stub_journal g ~node:sender ~bunch:b;
  Alcotest.(check (list (pair int int)))
    "the kept set" [ (1, 201); (2, 202) ]
    (Gc_state.Inter_edges.elements (Gc_state.inter_stub_keys g ~node:sender ~bunch:b));
  (* (1, 201) from (0, 0): 201 as two bytes, 1 as one; (2, 202) from
     it: 1 and 2, one byte each. *)
  Alcotest.(check int) "its gap-coded bytes" 5
    (Gc_state.inter_key_bytes g ~node:sender ~bunch:b)

let pinned_to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260807 |]) t

let () =
  Alcotest.run "delta_tables"
    [
      ( "equivalence",
        [
          pinned_to_alcotest prop_indexed_tables_match_lists;
          pinned_to_alcotest prop_scion_tables_match_sets;
          Alcotest.test_case "delta/full/resync paths exercised" `Quick
            test_paths_exercised;
          Alcotest.test_case "a rebase folds the journal first" `Quick
            test_rebase_folds;
        ] );
    ]
