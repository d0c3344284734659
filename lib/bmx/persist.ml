open Bmx_util
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Heap_obj = Bmx_memory.Heap_obj
module Rvm = Bmx_rvm.Rvm
module Directory = Bmx_dsm.Directory

type disk = (Addr.t * Heap_obj.image * Ids.Node.t list * bool) Rvm.t

let create_disk () =
  Rvm.create
    ~copy:(fun (a, im, claims, owned) -> (a, Heap_obj.image_copy im, claims, owned))
    ()

(* The GC protection metadata is itself recoverable data (§8): for each
   object the checkpoint records which remote nodes currently claim it —
   entering-ownerPtr registrations plus the stub-holding side of its
   scions.  Restore re-registers those claims, so the unprotected window
   between recovery and the claimants' next reachability rebroadcast
   cannot let a local collection reclaim an object a survivor still
   points at. *)
let claimants c ~node ~bunch =
  let proto = Cluster.proto c in
  let gc = Cluster.gc c in
  let dir = Protocol.directory proto node in
  let tbl = Ids.Uid_tbl.create 16 in
  let add uid n =
    if not (Ids.Node.equal n node) then
      let s =
        Option.value
          (Ids.Uid_tbl.find_opt tbl uid)
          ~default:Ids.Node_set.empty
      in
      Ids.Uid_tbl.replace tbl uid (Ids.Node_set.add n s)
  in
  List.iter
    (fun (s : Bmx_gc.Ssp.inter_scion) ->
      add s.Bmx_gc.Ssp.xs_target_uid s.Bmx_gc.Ssp.xs_src_node)
    (Bmx_gc.Gc_state.inter_scions gc ~node ~bunch);
  List.iter
    (fun (s : Bmx_gc.Ssp.intra_scion) ->
      add s.Bmx_gc.Ssp.xn_uid s.Bmx_gc.Ssp.xn_owner_side)
    (Bmx_gc.Gc_state.intra_scions gc ~node ~bunch);
  List.iter
    (fun uid ->
      Ids.Node_set.iter (fun n -> add uid n) (Directory.entering dir uid))
    (Directory.entering_uids dir);
  tbl

(* Objects of [bunch] reachable from the node's local roots, traced over
   the local replica (the same reachability the BGC computes).  With
   [gc_roots] the root set is widened to everything the BGC treats as a
   root (§4.3): remotely-referenced objects (scion targets, both kinds)
   and entering-ownerPtr registrations — so a checkpoint preserves
   exactly what a local collection would, not just the mutator-visible
   slice.  That is what a crashed node needs back: its copies may be the
   only surviving version of objects other nodes still point at. *)
let reachable_cells ?(gc_roots = false) c ~node ~bunch =
  let proto = Cluster.proto c in
  let store = Protocol.store proto node in
  let seen = Ids.Uid_tbl.create 64 in
  let out = ref [] in
  let rec visit addr =
    match Store.resolve store addr with
    | None -> ()
    | Some (a, obj) ->
        if not (Ids.Uid_tbl.mem seen obj.Heap_obj.uid) then begin
          Ids.Uid_tbl.add seen obj.Heap_obj.uid ();
          if Ids.Bunch.equal obj.Heap_obj.bunch bunch then out := (a, obj) :: !out;
          List.iter visit (Heap_obj.pointers obj)
        end
  in
  let roots =
    let mutator = Cluster.roots c ~node in
    if not gc_roots then mutator
    else
      let gc = Cluster.gc c in
      let dir = Protocol.directory proto node in
      let of_uid uid = Store.addr_of_uid store uid in
      mutator
      @ List.filter_map
          (fun (s : Bmx_gc.Ssp.inter_scion) -> of_uid s.Bmx_gc.Ssp.xs_target_uid)
          (Bmx_gc.Gc_state.inter_scions gc ~node ~bunch)
      @ List.filter_map
          (fun (s : Bmx_gc.Ssp.intra_scion) -> of_uid s.Bmx_gc.Ssp.xn_uid)
          (Bmx_gc.Gc_state.intra_scions gc ~node ~bunch)
      @ List.filter_map of_uid (Directory.entering_uids dir)
  in
  List.iter visit roots;
  !out

let checkpoint ?gc_roots c ~node ~bunch disk =
  let cells = reachable_cells ?gc_roots c ~node ~bunch in
  let claims = claimants c ~node ~bunch in
  let dir = Protocol.directory (Cluster.proto c) node in
  let keep = Hashtbl.create 64 in
  List.iter (fun (a, _) -> Hashtbl.replace keep a ()) cells;
  let stale =
    Rvm.fold disk ~init:[] ~f:(fun a _ acc ->
        if Hashtbl.mem keep a then acc else a :: acc)
  in
  Rvm.begin_tx disk;
  List.iter (Rvm.delete disk) stale;
  List.iter
    (fun (a, obj) ->
      let claim =
        match Ids.Uid_tbl.find_opt claims obj.Heap_obj.uid with
        | Some s -> Ids.Node_set.elements s
        | None -> []
      in
      (* Whether this node's copy is the authoritative one matters to
         whoever reads the image later: a recovered replica is stale
         data, a recovered owner copy is the object's true contents. *)
      let owned =
        match Directory.find dir obj.Heap_obj.uid with
        | Some r -> r.Directory.is_owner
        | None -> false
      in
      Rvm.set disk a (a, Heap_obj.to_image obj, claim, owned))
    cells;
  Rvm.commit disk;
  List.length cells

let restore c ~node disk =
  let proto = Cluster.proto c in
  let net = Protocol.net proto in
  let store = Protocol.store proto node in
  let dir = Protocol.directory proto node in
  Rvm.fold disk ~init:0 ~f:(fun _key (addr, im, claim, _owned) count ->
      let obj = Heap_obj.of_image ~heap:(Store.arena store) im in
      let uid = obj.Heap_obj.uid in
      Store.install store addr obj;
      (* If the object still has a live owner elsewhere (only this node's
         memory was lost), come back as an ordinary inconsistent replica;
         orphaned objects get this node as their owner. *)
      let owner_here =
        match Protocol.owner_of proto uid with
        | Some owner
          when (not (Ids.Node.equal owner node))
               && not (Bmx_netsim.Net.is_down net owner) ->
            ignore (Directory.ensure dir ~uid ~prob_owner:owner);
            (* Re-register this replica with the owner: an entering
               ownerPtr (protection) plus copyset membership (the
               restored copy must be invalidated like any other when a
               write token moves).  An owner on the far side of a
               network cut cannot be told synchronously — the
               registration rides the reliable scion-message channel
               instead and lands when the partition heals; until then
               the copy is a mere inconsistent replica and this node
               makes no claim the owner could not know about. *)
            let register () =
              Directory.add_entering
                (Protocol.directory proto owner)
                ~seq:
                  (Bmx_netsim.Net.current_seq net ~src:node ~dst:owner)
                ~uid ~from:node;
              match Directory.find (Protocol.directory proto owner) uid with
              | Some orec ->
                  Protocol.set_copyset proto orec
                    (Ids.Node_set.add node orec.Directory.copyset)
              | None -> ()
            in
            if Bmx_netsim.Net.reachable net node owner then register ()
            else begin
              Stats.incr (Cluster.stats c) "persist.deferred_registrations";
              Bmx_netsim.Net.send net ~src:node ~dst:owner
                ~kind:Bmx_netsim.Net.Scion_message ~bytes:24 (fun _seq ->
                  register ())
            end;
            false
        | Some _ | None -> (
            (* Orphaned (no recorded owner survives, or the recorded owner
               is down): the recovered copy is the best surviving version,
               so claim ownership through the protocol's recovery path.
               Adoption can still be refused when a {e surviving} replica
               sits on the far side of a partition (split-brain guard):
               come back as an unowned replica for now and let a
               post-heal recovery pass adopt. *)
            match Protocol.adopt_ownership proto ~node ~uid with
            | () -> true
            | exception Failure _ ->
                Stats.incr (Cluster.stats c) "persist.adopt_deferred_partition";
                ignore
                  (Directory.ensure dir ~uid
                     ~prob_owner:
                       (Option.value (Protocol.owner_of proto uid)
                          ~default:node));
                false)
      in
      (* Owner-side protection comes back with the data: every persisted
         remote claim is re-registered as an entering ownerPtr, stamped
         with the claimant pair's current sequence number so the cleaner's
         freshness check retires it on the claimant's next reachability
         broadcast.  A claimant that is itself down is registered all the
         same — dead-sender entries are quarantined, never dropped. *)
      if owner_here then
        List.iter
          (fun from ->
            if not (Ids.Node.equal from node) then
              Directory.add_entering dir
                ~seq:
                  (Bmx_netsim.Net.current_seq (Protocol.net proto) ~src:from
                     ~dst:node)
                ~uid ~from)
          claim;
      Protocol.register_copy_location proto ~uid ~addr;
      (* Local protection (stubs, scions, conservative registrations) is
         derivable from the recovered cells: replay the barrier over the
         restored pointer fields. *)
      Bmx_gc.Barrier.reassert_protection (Cluster.gc c) ~node addr;
      Cluster.add_root c ~node addr;
      count + 1)

let record_ev c e =
  let log = Protocol.evlog (Cluster.proto c) in
  if Trace_event.enabled log then Trace_event.record log e

let recover_node c ~node disks =
  if not (Cluster.node_alive c node) then
    invalid_arg "Persist.recover_node: restart the node first";
  List.fold_left
    (fun count disk ->
      let rep = Rvm.recover disk in
      if not (Rvm.clean_report rep) then begin
        Stats.add (Cluster.stats c) "rvm.records_dropped" rep.Rvm.r_dropped;
        Bmx_obs.Metrics.incr (Cluster.metrics c) ~node
          ~by:rep.Rvm.r_corrupt "rvm.corrupt_records_dropped"
      end;
      (* Recorded even for a clean report: the Checksum_recovery lint
         pairs every injected Disk_fault with a later Rvm_recover at the
         node, and a recovery that found nothing wrong is still the
         acknowledgement it is waiting for. *)
      record_ev c
        (Trace_event.Rvm_recover
           {
             node;
             dropped = rep.Rvm.r_dropped;
             lost = List.length rep.Rvm.r_lost;
           });
      count + restore c ~node disk)
    0 disks

(* fsck for a bunch: cross-check the stable image against the node's
   restored (or live) store.  Every persisted cell should be resolvable
   locally — a missing one means recovery lost data the checkpoint had
   promised durability for (e.g. an RVM log truncated past a corrupt
   record), and the caller should re-fetch it from a surviving replica
   before an audit counts it lost. *)
type fsck = { f_checked : int; f_missing : (Addr.t * Ids.Uid.t option) list }

let verify_bunch c ~node ~bunch disk =
  let proto = Cluster.proto c in
  let store = Protocol.store proto node in
  let checked = ref 0 and missing = ref [] in
  let seen = Hashtbl.create 16 in
  let miss addr uid =
    if not (Hashtbl.mem seen addr) then begin
      Hashtbl.replace seen addr ();
      missing := (addr, uid) :: !missing
    end
  in
  Rvm.fold disk ~init:() ~f:(fun _key (addr, im, _claims, _owned) () ->
      if Ids.Bunch.equal im.Heap_obj.im_bunch bunch then begin
        incr checked;
        if Store.addr_of_uid store im.Heap_obj.im_uid = None then
          miss addr (Some im.Heap_obj.im_uid)
      end);
  (* Cells recovery truncated out of the image entirely no longer appear
     in the fold above, but the recovery report still names their
     addresses: each is missing unless something (a re-fetch from a
     surviving replica, a later write-back) already put a copy back at
     this node.  A per-bunch disk only ever logged this bunch's cells,
     so no bunch filter is needed here. *)
  (match Rvm.last_recovery disk with
  | None -> ()
  | Some rep ->
      List.iter
        (fun addr ->
          incr checked;
          if Store.resolve store addr = None then
            miss addr (Protocol.uid_of_addr proto addr))
        rep.Rvm.r_lost);
  let missing = List.rev !missing in
  record_ev c (Trace_event.Bunch_verified { node; missing = List.length missing });
  { f_checked = !checked; f_missing = missing }

(* ------------------------------------------------------------------ *)
(* Registry shard journals.                                            *)
(*                                                                     *)
(* A shard's durable state is tiny and append-mostly: the carves it    *)
(* has handed out (the cursor is their maximum [hi]).  Each carve is   *)
(* one committed RVM transaction keyed by the range's low address, so  *)
(* the write-ahead image is exactly the shard's slice of the range     *)
(* index and recovery is a replay through [Registry.restore_entry].    *)
(* ------------------------------------------------------------------ *)

module Registry = Bmx_memory.Registry

type shard_disk = (Addr.t * Addr.t * Ids.Bunch.t * Ids.Node.t) Rvm.t

let create_shard_disk () : shard_disk = Rvm.create ~copy:(fun c -> c) ()

let journal_entry (disk : shard_disk) (e : Registry.entry) =
  let lo = e.Registry.range.Addr.Range.lo in
  Rvm.begin_tx disk;
  Rvm.set disk lo (lo, e.Registry.range.Addr.Range.hi, e.Registry.bunch, e.Registry.origin);
  Rvm.commit disk

let checkpoint_shard c ~shard (disk : shard_disk) =
  let reg = Protocol.registry (Cluster.proto c) in
  let entries = Registry.shard_entries reg shard in
  let keep = Hashtbl.create 16 in
  List.iter
    (fun (e : Registry.entry) -> Hashtbl.replace keep e.Registry.range.Addr.Range.lo ())
    entries;
  let stale =
    Rvm.fold disk ~init:[] ~f:(fun lo _ acc ->
        if Hashtbl.mem keep lo then acc else lo :: acc)
  in
  Rvm.begin_tx disk;
  List.iter (Rvm.delete disk) stale;
  List.iter
    (fun (e : Registry.entry) ->
      let lo = e.Registry.range.Addr.Range.lo in
      Rvm.set disk lo
        (lo, e.Registry.range.Addr.Range.hi, e.Registry.bunch, e.Registry.origin))
    entries;
  Rvm.commit disk;
  List.length entries

let attach_shard_journals c =
  let reg = Protocol.registry (Cluster.proto c) in
  let disks = Array.init (Registry.num_shards reg) (fun _ -> create_shard_disk ()) in
  (* Snapshot what is already carved, then journal every later carve as
     it happens. *)
  Array.iteri (fun s disk -> ignore (checkpoint_shard c ~shard:s disk)) disks;
  Registry.add_on_alloc reg (fun ~shard e -> journal_entry disks.(shard) e);
  disks

let recover_shard c ~shard ~node (disk : shard_disk) =
  let reg = Protocol.registry (Cluster.proto c) in
  let rep = Rvm.recover disk in
  if not (Rvm.clean_report rep) then begin
    Stats.add (Cluster.stats c) "rvm.records_dropped" rep.Rvm.r_dropped;
    Bmx_obs.Metrics.incr (Cluster.metrics c) ~node ~by:rep.Rvm.r_corrupt
      "rvm.corrupt_records_dropped"
  end;
  (* As in {!recover_node}: the Checksum_recovery lint pairs an injected
     Disk_fault with this acknowledgement even when nothing was wrong. *)
  record_ev c
    (Trace_event.Rvm_recover
       { node; dropped = rep.Rvm.r_dropped; lost = List.length rep.Rvm.r_lost });
  let installed =
    Rvm.fold disk ~init:0 ~f:(fun _lo (lo, hi, bunch, origin) count ->
        let e =
          {
            Registry.range = Addr.Range.make ~lo ~size:(hi - lo);
            bunch;
            origin;
          }
        in
        if Registry.restore_entry reg ~shard e then count + 1 else count)
  in
  (* Seat ownership and bring the allocation service back up through the
     cluster's adoption path, so the split-brain guard and the
     [Shard_adopted] trace both apply. *)
  Cluster.adopt_shard c ~shard ~node;
  installed

type shard_fsck = { s_checked : int; s_missing : Addr.t list }

let verify_shard c ~shard (disk : shard_disk) =
  let reg = Protocol.registry (Cluster.proto c) in
  let entries = Registry.shard_entries reg shard in
  let in_index = Hashtbl.create 16 in
  List.iter
    (fun (e : Registry.entry) ->
      Hashtbl.replace in_index e.Registry.range.Addr.Range.lo ())
    entries;
  let checked = ref 0 and missing = ref [] in
  let in_journal = Hashtbl.create 16 in
  Rvm.fold disk ~init:() ~f:(fun _key (lo, _hi, _bunch, _origin) () ->
      Hashtbl.replace in_journal lo ();
      incr checked;
      if not (Hashtbl.mem in_index lo) then missing := lo :: !missing);
  (* The index is an in-memory cache that survives service crashes, so a
     journal record lost to corruption never leaves a hole the process
     can feel — which is precisely why fsck must surface it: after a
     host loss the journal would have been the only copy. *)
  List.iter
    (fun (e : Registry.entry) ->
      let lo = e.Registry.range.Addr.Range.lo in
      incr checked;
      if not (Hashtbl.mem in_journal lo) then missing := lo :: !missing)
    entries;
  let missing = List.sort_uniq compare !missing in
  record_ev c
    (Trace_event.Bunch_verified { node = Registry.shard_owner reg shard;
                                  missing = List.length missing });
  { s_checked = !checked; s_missing = missing }

type fault = Flip_bits of int | Drop_record of int | Truncate_mid_record

let corrupt_disk c ~node disk fault =
  let name =
    match fault with
    | Flip_bits index ->
        Rvm.flip_bits disk ~index;
        Printf.sprintf "flip_bits:%d" index
    | Drop_record index ->
        Rvm.drop_record disk ~index;
        Printf.sprintf "drop_record:%d" index
    | Truncate_mid_record ->
        Rvm.truncate_mid_record disk;
        "truncate_mid_record"
  in
  Stats.incr (Cluster.stats c) "rvm.faults_injected";
  record_ev c (Trace_event.Disk_fault { node; fault = name })
