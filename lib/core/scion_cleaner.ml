open Bmx_util
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Registry = Bmx_memory.Registry
module Directory = Bmx_dsm.Directory

type delta = {
  db_basis : int;
  db_add_inter : Ssp.inter_edge list;
  db_del_inter : Ssp.inter_edge list;
  db_add_intra : Ssp.intra_edge list;
  db_del_intra : Ssp.intra_edge list;
  db_add_exiting : Ids.Uid.t list;
  db_del_exiting : Ids.Uid.t list;
}

type table_body =
  | Full of {
      fb_inter : Gc_state.Inter_edges.t;
      fb_intra : Gc_state.Intra_edges.t;
      fb_exiting : Ids.Uid.t list;
    }
  | Delta of delta

type table_msg = {
  tm_sender : Ids.Node.t;
  tm_bunch : Ids.Bunch.t;
  tm_body : table_body;
}

(* The wire layout.  Every integer is an unsigned LEB128 varint
   ({!Varint}), so a small id costs a byte or two, not eight.  A message
   opens with its kind and its stream (sender, bunch), and a delta with
   its basis; then come its sections, each its length and then its
   entries:

     full   0 sender bunch        inter intra exiting
     delta  1 sender bunch basis  add_inter del_inter add_intra del_intra
                                  add_exiting del_exiting

   A full's two edge sections walk the shipped sets in their order
   (inter edges target-major, intra edges uid-major) and write each edge
   as the two integers {!Gc_state.Inter_edges.gap} (or [Intra_edges.gap])
   gives from the edge before it, the first from (0, 0): the major id's
   difference, then the minor id's difference when the major ids are
   equal and the minor id itself otherwise.  A delta's edge sections
   list each edge as its two ids, (source uid, target uid) or (uid,
   scion holder), and every exiting section bare uids.  Both encodings
   ship stub edges, never stub records: a receiver only tests coverage,
   coverage compares match keys, and the stream supplies the rest of
   every key.  Each destination gets only the exiting entries whose
   owner it is, so the owner goes without saying.  [fields] walks a
   message in this order: [encode] writes it, [msg_bytes] sizes it,
   and [decode] reads it back. *)
let kind_full = 0
let kind_delta = 1

let fields m f =
  let pair a b =
    f a;
    f b
  in
  let edges l =
    f (List.length l);
    List.iter (fun (a, b) -> pair a b) l
  and uids l =
    f (List.length l);
    List.iter f l
  in
  match m.tm_body with
  | Full { fb_inter; fb_intra; fb_exiting } ->
      let module Inter = Gc_state.Inter_edges in
      let module Intra = Gc_state.Intra_edges in
      f kind_full;
      f m.tm_sender;
      f m.tm_bunch;
      f (Inter.cardinal fb_inter);
      ignore (Inter.fold (fun e prev -> Inter.gap ~prev e pair; e) fb_inter (0, 0));
      f (Intra.cardinal fb_intra);
      ignore (Intra.fold (fun e prev -> Intra.gap ~prev e pair; e) fb_intra (0, 0));
      uids fb_exiting
  | Delta d ->
      f kind_delta;
      f m.tm_sender;
      f m.tm_bunch;
      f d.db_basis;
      edges d.db_add_inter;
      edges d.db_del_inter;
      edges d.db_add_intra;
      edges d.db_del_intra;
      uids d.db_add_exiting;
      uids d.db_del_exiting

let encode m =
  let buf = Buffer.create 64 in
  fields m (Varint.write buf);
  Buffer.to_bytes buf

let msg_bytes m =
  let n = ref 0 in
  fields m (fun v -> n := !n + Varint.size v);
  !n

let decode b =
  let pos = ref 0 in
  let int () = Varint.read b pos in
  let edge () =
    let a = int () in
    (a, int ())
  in
  let section item =
    let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (item () :: acc) in
    go (int ()) []
  in
  (* A full's edge section, each edge rebuilt from the one before. *)
  let gapped of_gap =
    let n = int () in
    let rec go i prev acc =
      if i = n then acc
      else
        let d = int () in
        let e = of_gap ~prev ~first:(i = 0) d (int ()) in
        go (i + 1) e (e :: acc)
    in
    go 0 (0, 0) []
  in
  let kind = int () in
  let tm_sender = int () in
  let tm_bunch = int () in
  let tm_body =
    if kind = kind_full then
      let inter = gapped Gc_state.Inter_edges.of_gap in
      let intra = gapped Gc_state.Intra_edges.of_gap in
      let exiting = section int in
      Full
        {
          fb_inter = Gc_state.Inter_edges.of_list inter;
          fb_intra = Gc_state.Intra_edges.of_list intra;
          fb_exiting = exiting;
        }
    else if kind = kind_delta then
      let db_basis = int () in
      let db_add_inter = section edge in
      let db_del_inter = section edge in
      let db_add_intra = section edge in
      let db_del_intra = section edge in
      let db_add_exiting = section int in
      let db_del_exiting = section int in
      Delta
        {
          db_basis;
          db_add_inter;
          db_del_inter;
          db_add_intra;
          db_del_intra;
          db_add_exiting;
          db_del_exiting;
        }
    else invalid_arg (Printf.sprintf "Scion_cleaner.decode: kind %d" kind)
  in
  if !pos <> Bytes.length b then invalid_arg "Scion_cleaner.decode: trailing bytes";
  { tm_sender; tm_bunch; tm_body }

(* The send path prices a message without building or walking it, from
   sums the tables keep, section by section: the header (kind, stream,
   basis and section lengths), then each kind of id.  The price must be
   [msg_bytes] of what is sent. *)
let stream_bytes ~kind ~node ~bunch =
  Varint.size kind + Varint.size node + Varint.size bunch

let edges_bytes l = List.fold_left (fun n e -> n + Gc_state.edge_bytes e) 0 l
let uids_bytes l = List.fold_left (fun n uid -> n + Varint.size uid) 0 l
let bump t name = Stats.incr (Gc_state.stats t) name
let add t name n = Stats.add (Gc_state.stats t) name n

(* Account one message put on the wire, by section, under
   [tables.delta_bytes] (every stub-table byte sent), and return its
   size. *)
let charge t ~header ~inter ~intra ~exiting =
  add t "tables.bytes.header" header;
  add t "tables.bytes.inter" inter;
  add t "tables.bytes.intra" intra;
  add t "tables.bytes.exiting" exiting;
  let bytes = header + inter + intra + exiting in
  add t "tables.delta_bytes" bytes;
  bytes

(* A full's header: its stream and its three sections' lengths. *)
let full_header ~node ~bunch ~inter ~intra ~exiting =
  stream_bytes ~kind:kind_full ~node ~bunch
  + Varint.size inter + Varint.size intra + Varint.size exiting

(* Bring the local mirror of (sender, bunch)'s stub tables up to date
   from the message body.  Fulls always install.  A delta only applies if
   the mirror exists and sits on the delta's basis; otherwise the mirror
   is resynchronised by pulling the sender's current tables — an explicit
   RPC (it costs a round trip, accounted on the wire) that only happens
   after losses, restarts or first contact on a delta stream.

   The result is what the caller must reconcile: [None] — an empty delta
   applied to a mirror already on its basis, so nothing downstream can
   differ from last time; [Some (Named d)] — a non-empty delta [d]
   applied cleanly, so only the keys it names can have changed; [Some
   Everything] — a full install or a resync replaced the mirror
   wholesale, so every local scion and entering entry from the sender
   must be re-checked. *)
type candidates = Named of delta | Everything

let sync_mirror t ~at ~seq msg =
  let proto = Gc_state.proto t in
  let sender = msg.tm_sender and bunch = msg.tm_bunch in
  match msg.tm_body with
  | Full { fb_inter; fb_intra; fb_exiting } ->
      Gc_state.mirror_reset t ~node:at ~sender ~bunch ~seq ~basis:seq
        ~inter:fb_inter ~intra:fb_intra ~exiting:fb_exiting;
      Some Everything
  | Delta d ->
      let applied =
        Gc_state.mirror_apply t ~node:at ~sender ~bunch ~basis:d.db_basis ~seq
          ~add_inter:d.db_add_inter ~del_inter:d.db_del_inter
          ~add_intra:d.db_add_intra ~del_intra:d.db_del_intra
          ~add_exiting:d.db_add_exiting ~del_exiting:d.db_del_exiting
      in
      if applied then
        if
          d.db_add_inter = [] && d.db_del_inter = [] && d.db_add_intra = []
          && d.db_del_intra = [] && d.db_add_exiting = [] && d.db_del_exiting = []
        then None
        else Some (Named d)
      else begin
        (* Basis mismatch (or no mirror at all): the delta is unusable.
           Pull the sender's current tables.  The new basis is the seq of
           the sender's latest send on this stream — that is the state
           the pull observes (tables only change at a BGC, which
           broadcasts immediately), so later deltas chain correctly;
           any older in-flight message simply resyncs again.  Like a
           full, the pull carries the exiting entries addressed here. *)
        let bs = Gc_state.broadcast_state t ~node:sender ~bunch in
        let inter = Gc_state.inter_stub_keys t ~node:sender ~bunch in
        let intra = Gc_state.intra_stub_keys t ~node:sender ~bunch in
        let exiting = Gc_state.exiting_to bs ~owner:at in
        let bytes =
          charge t
            ~header:
              (full_header ~node:sender ~bunch
                 ~inter:(Gc_state.inter_key_count t ~node:sender ~bunch)
                 ~intra:(Gc_state.intra_key_count t ~node:sender ~bunch)
                 ~exiting:(Gc_state.exiting_count_to bs ~owner:at))
            ~inter:(Gc_state.inter_key_bytes t ~node:sender ~bunch)
            ~intra:(Gc_state.intra_key_bytes t ~node:sender ~bunch)
            ~exiting:(Gc_state.exiting_bytes_to bs ~owner:at)
        in
        Net.record_rpc (Protocol.net proto) ~src:at ~dst:sender
          ~kind:Net.Stub_table ~bytes
          ~shard:(Registry.shard_of_bunch (Protocol.registry proto) bunch)
          ();
        add t "tables.resync_bytes" bytes;
        let basis =
          match Ids.Node_tbl.find bs.Gc_state.bs_sent at with
          | _, s -> s
          | exception Not_found -> seq
        in
        Gc_state.mirror_reset t ~node:at ~sender ~bunch ~seq ~basis ~inter
          ~intra ~exiting;
        bump t "gc.cleaner.resyncs";
        Some Everything
      end

let visit () =
  Perfcount.(counters.s_gc_table_entries <- counters.s_gc_table_entries + 1)

(* Drop [node]'s inter scions whose stub [src] filed under [bunch] when
   [covered] no longer holds the stub's edge.  The by-node index visits
   [src]'s scions only and the test keeps to the bunch, so the edge
   stands for the scion's whole match key. *)
let sweep_inter t ~node ~src ~bunch covered =
  let removed =
    Gc_state.remove_inter_scions_from t ~node ~src (fun scion ->
        Ids.Bunch.equal scion.Ssp.xs_src_bunch bunch
        && not (covered (Ssp.inter_scion_edge scion)))
  in
  if removed > 0 then add t "gc.cleaner.inter_scions_removed" removed

(* The one reconciliation path (§6.1), driven by the candidate set the
   sync produced: the keys a clean delta names, or every entry from the
   sender after a full install or resync.  Deletions are the only way
   coverage shrinks, so a delta retires entering entries only for the
   keys it deleted, and re-adds and re-asserts only for the keys it
   added; everything else was reconciled when it first arrived.  The
   one check the restricted path defers is the ageing of protection on
   an entry registered after an earlier send, when the delta does not
   name it: the periodic full table (every [full_period] rounds) retires
   it — a bounded conservative delay, never an unsafe deletion. *)
let reconcile t ~at ~seq ~sender ~bunch candidates =
  let proto = Gc_state.proto t in
  let m = Gc_state.mirror t ~node:at ~sender ~bunch in
  (* Scions held here whose stub lived in the sender's copy of the
     bunch: drop those the mirrored table no longer covers.  The intra
     sweep's table is the bunch's and its holder is this node, so there
     too the mirror's edges stand for their full match keys.  Coverage
     only shrinks through deletions, so a delta sweeps only a section it
     deleted from. *)
  let inter_shrank, intra_shrank =
    match candidates with
    | Named d -> (d.db_del_inter <> [], d.db_del_intra <> [])
    | Everything -> (true, true)
  in
  if inter_shrank then
    sweep_inter t ~node:at ~src:sender ~bunch (Gc_state.mirror_has_inter m);
  (if intra_shrank then
     let removed =
       Gc_state.remove_intra_scions_from t ~node:at ~bunch ~src:sender
         (fun scion ->
           not
             (Gc_state.mirror_has_intra m (Ssp.intra_scion_edge ~holder:at scion)))
     in
     if removed > 0 then add t "gc.cleaner.intra_scions_removed" removed);
  let dir = Protocol.directory proto at in
  let store = Protocol.store proto at in
  (* An entry from the sender for an object of this bunch loses its
     protection once the exiting entries addressed here stop naming it —
     unless it was registered after the table was sent, or (keep-alive
     across owner crashes: a checkpoint-restored entry stands in for a
     scion that died with this node) a mirrored stub of the sender still
     targets the object. *)
  let retirable uid =
    visit ();
    let b = Store.bunch_of_uid store uid in
    Directory.is_entering_from dir ~uid ~from:sender
    && Ids.Bunch.equal b bunch
    && (not (Gc_state.mirror_has_exiting m uid))
    && Directory.entering_registration_seq dir ~uid ~from:sender < seq
    && not (Gc_state.mirror_claims_target t ~node:at ~sender ~bunch uid)
  in
  let retire uid =
    Directory.remove_entering dir ~uid ~from:sender;
    bump t "gc.cleaner.entering_removed"
  in
  let enter uid =
    visit ();
    Directory.add_entering dir ~seq ~uid ~from:sender
  in
  (* The dual of the §6.1 deletion test, needed only after a crash: a
     mirrored stub whose matching scion no longer exists here (it was
     volatile state of a previous incarnation) leaves its target owned
     here with no root.  Re-assert protection as a conservative entering
     entry; the reconciliation above retires it once the claimant drops
     the stub.  Doing this for every arriving stub makes the repair
     independent of the order the sender's per-bunch tables land in.
     The scion table holds scions of every stream, so its probe needs
     the whole scion, rebuilt from the edge and the stream only when the
     cheaper tests have passed. *)
  let reassert (src, target) =
    visit ();
    match Directory.find dir target with
    | Some r
      when r.Directory.is_owner
           && not (Directory.is_entering_from dir ~uid:target ~from:sender)
           && not
                (Gc_state.has_inter_scion t ~node:at
                   {
                     Ssp.xs_src_bunch = bunch;
                     xs_src_uid = src;
                     xs_src_node = sender;
                     xs_target_uid = target;
                     xs_target_bunch = Store.bunch_of_uid store target;
                   }) ->
        Directory.add_entering dir ~seq ~uid:target ~from:sender;
        bump t "gc.cleaner.entering_reasserted"
    | Some _ | None -> ()
  in
  (match candidates with
  | Named d ->
      (* Deleted exiting claims, and the targets of deleted stubs (a stub
         claim was the keep-alive). *)
      List.iter (fun uid -> if retirable uid then retire uid) d.db_del_exiting;
      List.iter
        (fun (_, target) -> if retirable target then retire target)
        d.db_del_inter;
      List.iter enter d.db_add_exiting;
      List.iter reassert d.db_add_inter
  | Everything ->
      List.iter retire
        (Directory.fold_entering_from dir ~from:sender
           (fun uid acc -> if retirable uid then uid :: acc else acc)
           []);
      Gc_state.mirror_iter_exiting m enter;
      Gc_state.mirror_iter_inter m reassert);
  Gc_state.sample_ssp_gauges t ~node:at

(* Process one table message; returns whether it took the full-table
   path (a full install or a resync), which is what its time is charged
   to. *)
let process t ~at ~seq msg =
  let net = Protocol.net (Gc_state.proto t) in
  let sender = msg.tm_sender and bunch = msg.tm_bunch in
  let is_full = match msg.tm_body with Full _ -> true | Delta _ -> false in
  let fresh =
    match Gc_state.mirror t ~node:at ~sender ~bunch with
    | m -> seq > Gc_state.mirror_seq m
    | exception Not_found -> true
  in
  if Net.is_down net sender then begin
    (* Quarantine, don't clean: a table attributed to a crashed node
       reflects state that died with it.  Acting on it could drop scions
       (and thus objects) that the recovered node still needs; the next
       table the node sends after restart supersedes everything. *)
    bump t "gc.cleaner.quarantined_dead_sender";
    is_full
  end
  else if not (Net.reachable net sender at) then begin
    (* Partition quarantine: the sender is alive but cut off (e.g. an
       asymmetric cut let the table through while the return path is
       dark).  Processing it could require a resynchronising pull RPC we
       cannot make, and any scion it retires could not be re-created by
       a cross-cut Scion_message until heal — so cross-partition tables
       wait.  Quarantine is free: the sender keeps rebroadcasting (its
       recorded destination list never forgets an unreached peer), and
       the post-heal table supersedes this one. *)
    bump t "gc.cleaner.quarantined_unreachable";
    is_full
  end
  else if not fresh then begin
    bump t "gc.cleaner.stale_ignored";
    is_full
  end
  else begin
    bump t "gc.cleaner.processed";
    (let evlog = Protocol.evlog (Gc_state.proto t) in
     if Trace_event.enabled evlog then
       Trace_event.record evlog
         (Trace_event.Tables_processed { at; sender; bunch; seq }));
    match sync_mirror t ~at ~seq msg with
    | None ->
        (* Quiet-stream fast path: an empty delta on a matching basis
           left the mirror bit-identical, so every check would reproduce
           its previous answer.  (Local state that could invalidate that
           reasoning — a crash wiping scions or mirrors — also wipes the
           delta basis, which forces the resync path, never this one.) *)
        bump t "gc.cleaner.noop_tables";
        false
    | Some candidates ->
        reconcile t ~at ~seq ~sender ~bunch candidates;
        candidates = Everything
  end

let elapsed_ns t0 = int_of_float ((Sys.time () -. t0) *. 1e9)

let delivery_tap = ref None
let set_delivery_tap f = delivery_tap := f

(* Receives run at message delivery, outside any collection, so they
   charge the reconcile phase counter themselves. *)
let receive t ~at ~seq msg =
  (match !delivery_tap with Some f -> f ~at msg | None -> ());
  let t0 = Sys.time () in
  let full = process t ~at ~seq msg in
  let ns = elapsed_ns t0 in
  Perfcount.(
    counters.s_gc_ns_reconcile <- counters.s_gc_ns_reconcile + ns;
    if full then counters.s_gc_ns_recv_full <- counters.s_gc_ns_recv_full + ns
    else counters.s_gc_ns_recv_delta <- counters.s_gc_ns_recv_delta + ns)

let destinations t ~node ~bunch ~holders ~exiting =
  let proto = Gc_state.proto t in
  let open Ids in
  List.fold_left
    (fun acc (_, owner) -> Node_set.add owner acc)
    (Node_set.union holders
       (Node_set.of_list (Protocol.bunch_replica_nodes proto bunch)))
    exiting
  |> Node_set.remove node |> Node_set.elements

(* A full table goes out at least every [full_period] rounds even on a
   healthy delta stream, bounding how long a silently diverged mirror
   (e.g. a duplicated-then-reordered delta) can last.  The period sets
   the steady-state floor of the delta encoding: roughly 1/full_period
   of a quiet stream's bytes are periodic refresh. *)
let full_period = 64

let broadcast t ~node ~bunch ~holders ~exiting =
  let proto = Gc_state.proto t in
  let net = Protocol.net proto in
  (* Table exchanges are per-bunch, and a bunch's segments all come from
     one registry shard — route and account them against it. *)
  let shard = Registry.shard_of_bunch (Protocol.registry proto) bunch in
  let bs = Gc_state.broadcast_state t ~node ~bunch in
  let dests = destinations t ~node ~bunch ~holders ~exiting in
  (* A resend must also reach last round's destinations: after a loss the
     replaced tables no longer name the peers whose scions must go, and
     the previous exiting list's owners are among them. *)
  let dests = List.sort_uniq Ids.Node.compare (dests @ bs.Gc_state.bs_dests) in
  bs.Gc_state.bs_dests <- dests;
  (* Peers that are down or cut off right now are deferred, not
     forgotten: they stay in the recorded destination list, so the next
     round's rebroadcast reaches them once they return or the partition
     heals — the same §6.1 loss-repair path that covers dropped tables.
     (A deferred peer misses rounds, so its next table is a full one and
     its mirror resynchronises via the existing basis-mismatch path.)
     Never block on a dead or partitioned peer. *)
  let live_dests = List.filter (fun d -> Net.reachable net node d) dests in
  let deferred = List.length dests - List.length live_dests in
  if deferred > 0 then add t "gc.cleaner.deferred_unreachable" deferred;
  Gc_state.note_exiting bs exiting;
  let delta = Gc_state.stub_delta t ~node ~bunch in
  let add_inter = List.length delta.Gc_state.sd_add_inter
  and del_inter = List.length delta.Gc_state.sd_del_inter
  and add_intra = List.length delta.Gc_state.sd_add_intra
  and del_intra = List.length delta.Gc_state.sd_del_intra in
  let delta_keys = add_inter + del_inter + add_intra + del_intra in
  (* The journal rebases after every round, so a delta covers exactly
     one round of churn: a peer gets one only if its mirror sits on last
     round's basis.  Still send fulls periodically (bounding mirror drift
     and deferred retention) and whenever the round's churn outweighs
     half the table — common for small tables, where a full is the
     cheaper and sturdier encoding anyway.  The rule is decided once per
     round, from the whole table and the whole round's churn, not per
     destination: the table's weight is 40 per inter-bunch stub record,
     24 per intra-bunch one, 16 per exiting entry and 16 more, and the
     churn is the delta with every edge at 24 bytes and every exiting
     flip at 16, whoever it is addressed to — the figures the rule was
     tuned with, not the varint edges the wire carries.  Pricing either
     at what a destination is actually sent moves the full/delta choice,
     and with it the message count; retuning the rule is its own
     measured change. *)
  let weight =
    16
    + (40 * Gc_state.inter_stub_count t ~node ~bunch)
    + (24 * Gc_state.intra_stub_count t ~node ~bunch)
    + (16 * List.length exiting)
  in
  let churn = 24 + (24 * delta_keys) + (16 * delta.Gc_state.sd_exiting_flips) in
  let round = bs.Gc_state.bs_round in
  let full_round = (round + 1) mod full_period = 0 || 2 * churn >= weight in
  (* What every full of the round shares: the two edge sets the tables
     keep, their lengths and their gap-coded bytes.  The inter set is
     also what the node's own scions are checked against. *)
  let inter_set = Gc_state.inter_stub_keys t ~node ~bunch
  and intra_set = Gc_state.intra_stub_keys t ~node ~bunch
  and inter_keys = Gc_state.inter_key_count t ~node ~bunch
  and intra_keys = Gc_state.intra_key_count t ~node ~bunch
  and full_inter = Gc_state.inter_key_bytes t ~node ~bunch
  and full_intra = Gc_state.intra_key_bytes t ~node ~bunch in
  (* What every delta of the round shares: its kind, its stream, its
     four stub sections' lengths and their edges, summed once. *)
  let delta_header =
    stream_bytes ~kind:kind_delta ~node ~bunch
    + Varint.size add_inter + Varint.size del_inter + Varint.size add_intra
    + Varint.size del_intra
  and delta_inter =
    edges_bytes delta.Gc_state.sd_add_inter
    + edges_bytes delta.Gc_state.sd_del_inter
  and delta_intra =
    edges_bytes delta.Gc_state.sd_add_intra
    + edges_bytes delta.Gc_state.sd_del_intra
  in
  let send_to dst =
    let body =
      match Ids.Node_tbl.find bs.Gc_state.bs_sent dst with
      | r, basis when r = round - 1 && not full_round ->
          (* The peer's mirror sits on last round's basis. *)
          let add_exiting, del_exiting = Gc_state.exiting_delta_to bs ~owner:dst in
          Delta
            {
              db_basis = basis;
              db_add_inter = delta.Gc_state.sd_add_inter;
              db_del_inter = delta.Gc_state.sd_del_inter;
              db_add_intra = delta.Gc_state.sd_add_intra;
              db_del_intra = delta.Gc_state.sd_del_intra;
              db_add_exiting = add_exiting;
              db_del_exiting = del_exiting;
            }
      | _ | (exception Not_found) ->
          (* A full round; or first contact, or the peer missed a round
             (down, or dropped out of the destination set): the journal
             no longer covers the gap, so restart the stream.  The edges
             are the round's shared sets, the exiting uids the peer's
             own. *)
          Full
            {
              fb_inter = inter_set;
              fb_intra = intra_set;
              fb_exiting = Gc_state.exiting_to bs ~owner:dst;
            }
    in
    let msg = { tm_sender = node; tm_bunch = bunch; tm_body = body } in
    (* Priced from the tables' sums and the round's, not by walking the
       body.  A full's exiting section is the destination's own. *)
    let exiting_bytes = Gc_state.exiting_bytes_to bs ~owner:dst in
    let full_header =
      full_header ~node ~bunch ~inter:inter_keys ~intra:intra_keys
        ~exiting:(Gc_state.exiting_count_to bs ~owner:dst)
    in
    let wire =
      match body with
      | Full _ ->
          let sz =
            charge t ~header:full_header ~inter:full_inter ~intra:full_intra
              ~exiting:exiting_bytes
          in
          bump t "gc.cleaner.full_sent";
          add t "tables.full_wire_bytes" sz;
          sz
      | Delta { db_basis; db_add_exiting; db_del_exiting; _ } ->
          let sz =
            charge t
              ~header:
                (delta_header + Varint.size db_basis
                + Varint.size (List.length db_add_exiting)
                + Varint.size (List.length db_del_exiting))
              ~inter:delta_inter ~intra:delta_intra
              ~exiting:(uids_bytes db_add_exiting + uids_bytes db_del_exiting)
          in
          bump t "gc.cleaner.delta_sent";
          add t "tables.delta_wire_bytes" sz;
          sz
    in
    add t "tables.full_bytes" (full_header + full_inter + full_intra + exiting_bytes);
    Net.send net ~src:node ~dst ~kind:Net.Stub_table ~bytes:wire ~shard
      (fun seq -> receive t ~at:dst ~seq msg);
    (* The transport seq just stamped on this pair is the basis the next
       round's delta to this peer will name; the receiver's mirror
       records the same number when it processes the message. *)
    Ids.Node_tbl.replace bs.Gc_state.bs_sent dst
      (round, Net.current_seq net ~src:node ~dst)
  in
  List.iter send_to live_dests;
  Gc_state.rebase_stub_journal t ~node ~bunch;
  (* The node's own scions: its scion cleaner (§6.1) checks them
     against the table it just rebuilt, with no message.  Such a scion
     comes only from the node's own barrier, in the call that made its
     stub, and only [retain_stubs], just before this broadcast, drops a
     stub, so a round that deleted no inter-bunch edge leaves every one
     covered (HACKING, "A node's own scions"). *)
  if del_inter > 0 then
    sweep_inter t ~node ~src:node ~bunch (fun e ->
        Gc_state.Inter_edges.mem e inter_set);
  List.length live_dests
