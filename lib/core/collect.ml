open Bmx_util
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory
module Store = Bmx_memory.Store
module Segment = Bmx_memory.Segment
module Registry = Bmx_memory.Registry
module Heap_obj = Bmx_memory.Heap_obj
module Value = Bmx_memory.Value

type report = {
  r_node : Ids.Node.t;
  r_bunches : Ids.Bunch.t list;
  r_roots : int;
  r_live : int;
  r_copied : int;
  r_scanned_in_place : int;
  r_reclaimed : int;
  r_ref_updates : int;
  r_new_inter_stubs : int;
  r_new_intra_stubs : int;
  r_exiting : int;
  r_tables_sent : int;
}

let bump t name = Stats.incr (Gc_state.stats t) name

(* Per-object events are counted in locals and charged once per
   collection; a zero count is not charged, so it creates no counter. *)
let bump_count t name n = if n > 0 then Stats.add (Gc_state.stats t) name n

(* In group mode, inter-bunch scions whose stub lives inside the group
   at this very node are internal edges, not roots (§7). *)
let internal ~group_mode ~in_set ~node (s : Ssp.inter_scion) =
  group_mode && in_set s.Ssp.xs_src_bunch && Ids.Node.equal s.Ssp.xs_src_node node

(* ------------------------------------------------------------------ *)
(* Tracing (§4.1).

   One trace in two phases.  Phase 1 marks from the mutator roots, the
   entering ownerPtrs and the inter-bunch scions; phase 2 continues from
   the intra-bunch scions.  What phase 1 marks is exactly what a trace
   without the intra-bunch scions would reach — the §6.2 set, the only
   objects allowed to contribute exiting ownerPtrs, or the cross-replica
   cycle would never be reclaimed — so every live object is scanned
   once.  Roots are fed to the trace as they are found: no root list and
   no uid set is built.

   Scanning follows pointer fields of the local — possibly inconsistent —
   copies only.  Edges leaving a bunch are recorded for stub-table
   reconstruction; references to collected-set objects with no local
   copy, found in phase 1, become conservative exiting entries towards
   the owner (DESIGN.md par. 5). *)

type trace = {
  live : Addr.t Ids.Uid_tbl.t; (* uid -> current local address *)
  order : Addr.t array;
      (* marked addresses in mark order: the scan queue, and its first
         [phase1] entries are the §6.2 set *)
  mutable marked : int;
  mutable phase1 : int;
  edges : Ids.Uid.t list Ids.Uid_tbl.t; (* cross-bunch targets by source *)
  mutable roots : int;
  mutable own_live_bytes : int;
      (* aligned bytes of the marked objects that lie in [own] *)
}

(* Aligned size of [obj] if its address [a] lies in one of the segments
   of [own], else 0.  [own] holds a bunch's few allocation segments, so
   a linear scan suffices, and it allocates nothing. *)
let rec own_bytes own a obj i =
  if i = Array.length own then 0
  else if Segment.contains own.(i) a then Addr.align_up (Heap_obj.size_bytes obj)
  else own_bytes own a obj (i + 1)

let trace t ~node ~bunches ~in_set ~group_mode ~capacity ~own ~exiting_for =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  let registry = Protocol.registry proto in
  let dir = Protocol.directory proto node in
  (* A node holds at most one live copy per uid, so the marks never
     outnumber the local cells of the collected bunches. *)
  let tr =
    {
      live = Ids.Uid_tbl.create 256;
      order = Array.make (max 1 capacity) Addr.null;
      marked = 0;
      phase1 = 0;
      edges = Ids.Uid_tbl.create 64;
      roots = 0;
      own_live_bytes = 0;
    }
  in
  let stale = ref 0 and remote_intra = ref 0 and in_phase1 = ref true in
  let add_edge src target =
    match Ids.Uid_tbl.find tr.edges src with
    | targets ->
        if not (List.mem target targets) then
          Ids.Uid_tbl.replace tr.edges src (target :: targets)
    | exception Not_found -> Ids.Uid_tbl.add tr.edges src [ target ]
  in
  (* [a] is where the local chain from a pointer ends and [obj] is
     there. *)
  let mark_at a (obj : Heap_obj.t) =
    if in_set obj.Heap_obj.bunch && not (Ids.Uid_tbl.mem tr.live obj.Heap_obj.uid)
    then begin
      Ids.Uid_tbl.add tr.live obj.Heap_obj.uid a;
      tr.order.(tr.marked) <- a;
      tr.marked <- tr.marked + 1
    end
  in
  let mark a =
    let a = Store.endpoint store a in
    match Store.object_at store a with
    | obj -> mark_at a obj
    | exception Not_found -> ()
  in
  let mark_uid uid =
    tr.roots <- tr.roots + 1;
    match Store.uid_addr store uid with
    | a -> mark a
    | exception Not_found -> ()
  in
  (* Roots known by address count only inside the collected set. *)
  let mark_root a =
    match Registry.entry_at registry a with
    | e when in_set e.Registry.bunch ->
        tr.roots <- tr.roots + 1;
        mark a
    | _ | (exception Not_found) -> ()
  in
  let scan_ref (obj : Heap_obj.t) target =
    let a = Store.endpoint store target in
    match Store.object_at store a with
    | tobj ->
        (* Cross-bunch references between bunches collected together
           (group mode) keep their SSPs: §7 excludes them from the
           roots, not from the regenerated stub tables. *)
        mark_at a tobj;
        if not (Ids.Bunch.equal tobj.Heap_obj.bunch obj.Heap_obj.bunch) then
          add_edge obj.Heap_obj.uid tobj.Heap_obj.uid
    | exception Not_found -> (
        (* The address does not resolve locally.  Identify the target
           through the address oracle; if we in fact cache it under a
           newer address (a stale pointer arrived after its forwarder
           was retired), trace the local copy; otherwise record a
           conservative edge so the remote copy stays protected. *)
        match Protocol.uid_at proto target with
        | exception Not_found -> ()
        | tuid -> (
            match Store.uid_addr store tuid with
            | local -> (
                incr stale;
                mark local;
                match Store.resolve store local with
                | Some (_, tobj)
                  when (not (in_set tobj.Heap_obj.bunch))
                       || not (Ids.Bunch.equal tobj.Heap_obj.bunch obj.Heap_obj.bunch)
                  ->
                    add_edge obj.Heap_obj.uid tuid
                | Some _ | None -> ())
            | exception Not_found ->
                add_edge obj.Heap_obj.uid tuid;
                (match Registry.entry_at registry target with
                | e when in_set e.Registry.bunch -> (
                    match Protocol.owner_of proto tuid with
                    | Some owner ->
                        incr remote_intra;
                        if !in_phase1 && not (Ids.Node.equal owner node) then
                          Hashtbl.replace (exiting_for e.Registry.bunch) tuid owner
                    | None -> ())
                | _ | (exception Not_found) -> ())))
  in
  let rec drain head =
    if head < tr.marked then begin
      let a = tr.order.(head) in
      let obj = Store.object_at store a in
      Perfcount.(counters.s_gc_objects_touched <- counters.s_gc_objects_touched + 1);
      tr.own_live_bytes <- tr.own_live_bytes + own_bytes own a obj 0;
      for i = 0 to Heap_obj.num_fields obj - 1 do
        let r = Heap_obj.get_raw obj i in
        if Value.raw_is_pointer r then scan_ref obj (Value.raw_addr r)
      done;
      drain (head + 1)
    end
  in
  (* Phase 1: mutator stacks, entering ownerPtrs (remote replicas still
     reference these locally owned objects), inter-bunch scions. *)
  List.iter mark_root (Gc_state.roots t ~node);
  List.iter
    (fun uid ->
      match Store.uid_addr store uid with
      | a -> mark_root a
      | exception Not_found -> ())
    (Directory.entering_uids dir);
  List.iter
    (fun b ->
      Gc_state.iter_inter_scions t ~node ~bunch:b (fun s ->
          if not (internal ~group_mode ~in_set ~node s) then
            mark_uid s.Ssp.xs_target_uid))
    bunches;
  drain 0;
  tr.phase1 <- tr.marked;
  in_phase1 := false;
  (* Phase 2: the intra-bunch scions. *)
  List.iter
    (fun b ->
      Gc_state.iter_intra_scions t ~node ~bunch:b (fun s -> mark_uid s.Ssp.xn_uid))
    bunches;
  drain tr.phase1;
  bump_count t "gc.trace.stale_pointer_recoveries" !stale;
  bump_count t "gc.trace.remote_intra_refs" !remote_intra;
  tr

(* ------------------------------------------------------------------ *)
(* The collection itself.                                              *)

(* Per-phase processor time (trace / flip / copy / scan /
   cleaner-reconcile): every boundary charges the [Sys.time] elapsed
   since the previous one to the matching Perfcount.s_gc_ns_* counter.
   Those counters are the only record of phase time; the event log
   holds none, so it depends on the seed alone.  See HACKING.md "GC
   phase profiling" for the e20-diag recipe. *)
type phase = P_trace | P_flip | P_copy | P_scan | P_reconcile

let charge_phase_ns phase ns =
  Perfcount.(
    match phase with
    | P_trace -> counters.s_gc_ns_trace <- counters.s_gc_ns_trace + ns
    | P_flip -> counters.s_gc_ns_flip <- counters.s_gc_ns_flip + ns
    | P_copy -> counters.s_gc_ns_copy <- counters.s_gc_ns_copy + ns
    | P_scan -> counters.s_gc_ns_scan <- counters.s_gc_ns_scan + ns
    | P_reconcile -> counters.s_gc_ns_reconcile <- counters.s_gc_ns_reconcile + ns)

let run ?(economical = false) t ~node ~bunches ~group_mode ?(copy = true) () =
  let pt_last = ref (Sys.time ()) in
  let pt phase =
    let now = Sys.time () in
    charge_phase_ns phase (int_of_float ((now -. !pt_last) *. 1e9));
    pt_last := now
  in
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  let registry = Protocol.registry proto in
  let dir = Protocol.directory proto node in
  let set = Ids.Bunch_set.of_list bunches in
  let in_set b = Ids.Bunch_set.mem b set in
  bump t (if group_mode then "gc.ggc.runs" else "gc.bgc.runs");
  let evlog = Protocol.evlog proto in
  if Trace_event.enabled evlog then
    Trace_event.record evlog
      (Trace_event.Gc_begin { node; group = group_mode; bunches });
  let owned uid =
    match Directory.record dir uid with
    | r -> r.Directory.is_owner
    | exception Not_found -> false
  in
  (* Exiting ownerPtrs per collected bunch, filled by the trace, the
     phantom-root walk and the per-bunch walk below. *)
  let exiting_tbls = Ids.Bunch_tbl.create 4 in
  let exiting_for b =
    match Ids.Bunch_tbl.find exiting_tbls b with
    | h -> h
    | exception Not_found ->
        let h = Hashtbl.create 16 in
        Ids.Bunch_tbl.add exiting_tbls b h;
        h
  in
  let local_cells =
    List.fold_left (fun acc b -> acc + Store.bunch_object_count store b) 0 bunches
  in
  (* An economical collection weighs the node's own allocation segments
     of the collected bunches: the ranges the registry handed to this
     node, in the roles allocation fills (not views of other nodes'
     ranges, not from-space). *)
  let own_segment seg =
    match seg.Segment.role with
    | Segment.Active | Segment.To_space -> (
        match Registry.entry_at registry seg.Segment.range.Addr.Range.lo with
        | e -> Ids.Node.equal e.Registry.origin node
        | exception Not_found -> false)
    | Segment.From_space | Segment.Free -> false
  in
  let own =
    if economical && copy then
      Array.of_list
        (List.concat_map
           (fun b -> List.filter own_segment (Store.segments_of_bunch store b))
           bunches)
    else [||]
  in

  (* Roots and the trace. *)
  let tr =
    trace t ~node ~bunches ~in_set ~group_mode ~capacity:local_cells ~own
      ~exiting_for
  in
  let live = tr.live in
  pt P_trace;

  (* Economical mode evacuates only when it pays (HACKING.md
     "Economical collections").  Evacuation exists to reclaim address
     space, so a trace that finds nothing dead does not move anything:
     that would only manufacture forwarders and location-update traffic
     that keeps the whole cluster's dirtiness epochs churning.  A trace
     that finds garbage evacuates only when the live bytes in the node's
     own allocation segments are under 3/4 of the bytes allocated in
     them; otherwise the dead cells are swept in place.  Holes from
     earlier sweeps stay allocated until an evacuation, so the
     footprint stays within 4/3 of the live bytes plus one segment. *)
  let garbage = local_cells > Ids.Uid_tbl.length live in
  let allocated =
    Array.fold_left
      (fun acc seg ->
        acc + Addr.diff seg.Segment.alloc_ptr seg.Segment.range.Addr.Range.lo)
      0 own
  in
  let do_copy =
    copy
    && ((not economical) || (garbage && 4 * tr.own_live_bytes < 3 * allocated))
  in
  if economical && garbage && not do_copy then bump t "gc.bgc.swept_in_place";

  (* Flip: allocation spaces of the collected bunches become from-space.
     The to-space segments are created lazily at the first copy; their
     addresses come fresh from the registry, so concurrent BGCs on other
     replicas can never collide (§4.2).  A non-copying (mark-and-sweep)
     collection leaves the spaces alone. *)
  if do_copy then
    List.iter
      (fun b ->
        List.iter
          (fun seg ->
            match seg.Segment.role with
            | Segment.Active | Segment.To_space -> Segment.set_role seg Segment.From_space
            | Segment.From_space | Segment.Free -> ())
          (Store.segments_of_bunch store b))
      bunches;
  pt P_flip;

  (* Copy phase: evacuate locally-owned live objects; merely note the
     others.  The iteration order is by uid for determinism; without an
     evacuation nothing moves, so the order does not matter and every
     live object is scanned in place. *)
  let to_spaces : Segment.t Ids.Bunch_tbl.t = Ids.Bunch_tbl.create 4 in
  let to_space bunch =
    match Ids.Bunch_tbl.find_opt to_spaces bunch with
    | Some seg -> seg
    | None ->
        let seg = Store.fresh_segment store ~bunch () in
        Segment.set_role seg Segment.To_space;
        Ids.Bunch_tbl.add to_spaces bunch seg;
        seg
  in
  let copied = ref 0 and scanned_in_place = ref 0 and foreign = ref 0 in
  if not do_copy then begin
    scanned_in_place := Ids.Uid_tbl.length live;
    Ids.Uid_tbl.iter (fun uid _ -> if not (owned uid) then incr foreign) live
  end
  else begin
    let uids = Array.make (Ids.Uid_tbl.length live) 0 in
    let n_uids = ref 0 in
    Ids.Uid_tbl.iter
      (fun uid _ ->
        uids.(!n_uids) <- uid;
        incr n_uids)
      live;
    Array.sort Ids.Uid.compare uids;
    Array.iter
      (fun uid ->
        let addr = Ids.Uid_tbl.find live uid in
        let obj = Store.object_at store (Store.endpoint store addr) in
        let owned = owned uid in
        let in_from_space =
          match Store.find_segment store addr with
          | seg -> seg.Segment.role = Segment.From_space
          | exception Not_found -> false
        in
        if owned && in_from_space then begin
          let bunch = obj.Heap_obj.bunch in
          let seg = to_space bunch in
          let new_addr =
            match Store.alloc_clone store ~seg ~of_:obj with
            | Some a -> a
            | None ->
                (* To-space overflow: grow the bunch with another segment. *)
                let seg' = Store.fresh_segment store ~bunch () in
                Segment.set_role seg' Segment.To_space;
                Ids.Bunch_tbl.replace to_spaces bunch seg';
                (match Store.alloc_clone store ~seg:seg' ~of_:obj with
                | Some a -> a
                | None -> failwith "Collect: object larger than a segment")
          in
          Store.set_forwarder store ~at:addr ~target:new_addr;
          Protocol.register_copy_location proto ~uid ~addr:new_addr;
          Ids.Uid_tbl.replace live uid new_addr;
          incr copied
        end
        else begin
          incr scanned_in_place;
          if not owned then incr foreign
        end)
      uids
  end;
  bump_count t "gc.objects_copied" !copied;
  bump_count t "gc.objects_scanned_in_place" !foreign;
  pt P_copy;

  (* Reference updating (§4.4): rewrite pointer fields of every live local
     copy through the local forwarder chains — strictly local, no token. *)
  Gc_state.forward_roots t ~node;
  let ref_updates = ref 0 in
  Ids.Uid_tbl.iter
    (fun _uid addr ->
      let a = Store.endpoint store addr in
      match Store.object_at store a with
      | exception Not_found -> ()
      | obj ->
          Perfcount.(counters.s_gc_objects_touched <- counters.s_gc_objects_touched + 1);
          ref_updates := !ref_updates + Store.forward_fields store ~obj_addr:a obj)
    live;
  bump_count t "gc.ref_updates" !ref_updates;
  pt P_scan;

  (* Reclamation: local replicas of the collected bunches that the trace
     did not reach are garbage here.  They go in address order, because
     removal order sets the arena's free-list order. *)
  let reclaimed = ref 0 in
  let dead obj = not (Ids.Uid_tbl.mem live obj.Heap_obj.uid) in
  List.iter
    (fun b ->
      let n_dead = ref 0 in
      Store.iter_objects_of_bunch store b (fun _ obj -> if dead obj then incr n_dead);
      if !n_dead > 0 then begin
        let addrs = Array.make !n_dead Addr.null in
        let k = ref 0 in
        Store.iter_objects_of_bunch store b (fun a obj ->
            if dead obj then begin
              addrs.(!k) <- a;
              incr k
            end);
        Array.sort Addr.compare addrs;
        Array.iter
          (fun a ->
            let uid = (Store.object_at store a).Heap_obj.uid in
            Store.remove store a;
            Protocol.forget_replica proto ~node ~uid)
          addrs;
        reclaimed := !reclaimed + !n_dead
      end)
    bunches;
  bump_count t "gc.objects_reclaimed" !reclaimed;
  pt P_scan;

  (* Scion roots for objects with no local copy (the reference was
     created here without the target ever being cached): they cannot be
     traced, but the remote copy must stay protected, so they contribute
     conservative exiting ownerPtrs towards the owner.  Mutator-stack
     roots naming objects with no local copy protect the remote copy the
     same way. *)
  let phantom count b uid =
    match Store.uid_addr store uid with
    | _ -> ()
    | exception Not_found -> (
        match Protocol.owner_of proto uid with
        | Some owner when not (Ids.Node.equal owner node) ->
            incr count;
            Hashtbl.replace (exiting_for b) uid owner
        | Some _ | None -> ())
  in
  let phantom_scions = ref 0 and phantom_roots = ref 0 in
  List.iter
    (fun b ->
      Gc_state.iter_inter_scions t ~node ~bunch:b (fun s ->
          if not (internal ~group_mode ~in_set ~node s) then
            phantom phantom_scions b s.Ssp.xs_target_uid))
    bunches;
  List.iter
    (fun a ->
      match Registry.entry_at registry a with
      | e when in_set e.Registry.bunch -> (
          match Protocol.uid_at proto a with
          | uid -> phantom phantom_roots e.Registry.bunch uid
          | exception Not_found -> ())
      | _ | (exception Not_found) -> ())
    (Gc_state.roots t ~node);
  bump_count t "gc.trace.phantom_scion_roots" !phantom_scions;
  bump_count t "gc.trace.phantom_mutator_roots" !phantom_roots;

  (* Stub-table reconstruction (§4.3) and exiting-ownerPtr lists, then the
     broadcast to the scion cleaners (§6). *)
  let edge_exists src target =
    match Ids.Uid_tbl.find tr.edges src with
    | targets -> List.mem target targets
    | exception Not_found -> false
  in
  let keep_inter (s : Ssp.inter_stub) =
    Ids.Uid_tbl.mem live s.Ssp.is_src_uid
    && edge_exists s.Ssp.is_src_uid s.Ssp.is_target_uid
  in
  let keep_intra (s : Ssp.intra_stub) =
    Ids.Uid_tbl.mem live s.Ssp.ns_uid && owned s.Ssp.ns_uid
  in
  let new_inter_total = ref 0
  and new_intra_total = ref 0
  and exiting_total = ref 0
  and tables_sent = ref 0 in
  List.iter
    (fun b ->
      (* Exiting ownerPtrs: live non-owned local objects of the bunch —
         except those reachable only via an intra-bunch scion (§6.2),
         i.e. the phase-1 marks, found at their current addresses — plus
         the conservative entries the trace and the phantom walk added. *)
      let exiting_tbl = exiting_for b in
      for i = 0 to tr.phase1 - 1 do
        match Store.object_at store (Store.endpoint store tr.order.(i)) with
        | obj when Ids.Bunch.equal obj.Heap_obj.bunch b -> (
            match Directory.record dir obj.Heap_obj.uid with
            | r when not r.Directory.is_owner ->
                Hashtbl.replace exiting_tbl obj.Heap_obj.uid r.Directory.prob_owner
            | _ | (exception Not_found) -> ())
        | _ | (exception Not_found) -> ()
      done;
      let exiting =
        Hashtbl.fold (fun uid owner acc -> (uid, owner) :: acc) exiting_tbl []
        |> List.sort compare
      in
      (* The tables must reach the holders of the stubs they drop. *)
      let holders = Gc_state.stub_holders t ~node ~bunch:b in
      Gc_state.retain_stubs t ~node ~bunch:b ~inter:keep_inter ~intra:keep_intra;
      let sent = Scion_cleaner.broadcast t ~node ~bunch:b ~holders ~exiting in
      new_inter_total :=
        !new_inter_total + Gc_state.inter_stub_count t ~node ~bunch:b;
      new_intra_total :=
        !new_intra_total + Gc_state.intra_stub_count t ~node ~bunch:b;
      exiting_total := !exiting_total + List.length exiting;
      tables_sent := !tables_sent + sent)
    bunches;
  pt P_reconcile;

  (* The to-space becomes the new allocation space. *)
  Ids.Bunch_tbl.iter
    (fun bunch seg ->
      Segment.set_role seg Segment.Active;
      Store.set_active_segment store ~bunch seg)
    to_spaces;

  if Trace_event.enabled evlog then
    Trace_event.record evlog
      (Trace_event.Gc_end
         {
           node;
           group = group_mode;
           live = Ids.Uid_tbl.length live;
           reclaimed = !reclaimed;
         });
  {
    r_node = node;
    r_bunches = bunches;
    r_roots = tr.roots;
    r_live = Ids.Uid_tbl.length live;
    r_copied = !copied;
    r_scanned_in_place = !scanned_in_place;
    r_reclaimed = !reclaimed;
    r_ref_updates = !ref_updates;
    r_new_inter_stubs = !new_inter_total;
    r_new_intra_stubs = !new_intra_total;
    r_exiting = !exiting_total;
    r_tables_sent = !tables_sent;
  }
