open Bmx_util
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Segment = Bmx_memory.Segment
module Heap_obj = Bmx_memory.Heap_obj

type report = {
  q_segments_freed : int;
  q_bytes_freed : int;
  q_forwarders_dropped : int;
  q_copy_requests : int;
  q_updates_broadcast : int;
}

let bump t name = Stats.incr (Gc_state.stats t) name

(* Index in [fs] of the segment holding [a], or -1.  [fs] holds a
   bunch's few from-space segments, so a linear scan suffices, and it
   allocates nothing. *)
let rec seg_index fs a i =
  if i = Array.length fs then -1
  else if Segment.contains fs.(i) a then i
  else seg_index fs a (i + 1)

let from_spaces store bunch =
  Array.of_list
    (List.filter
       (fun seg -> seg.Segment.role = Segment.From_space)
       (Store.segments_of_bunch store bunch))

(* One walk over the store (none without from-space): the cells inside
   the segments [fs], segment by segment in [fs] order, by address
   within each. *)
let from_space_cells store fs =
  let per_seg = Array.make (Array.length fs) [] in
  if Array.length fs > 0 then
    Store.iter store (fun a cell ->
        let i = seg_index fs a 0 in
        if i >= 0 then per_seg.(i) <- (a, cell) :: per_seg.(i));
  List.concat_map
    (List.sort (fun (a, _) (b, _) -> Addr.compare a b))
    (Array.to_list per_seg)

(* The address changes the forwarders among [cells] record. *)
let updates_of proto store cells =
  List.filter_map
    (fun (addr, cell) ->
      match cell with
      | Store.Forwarder _ -> (
          let cur = Store.current_addr store addr in
          match Protocol.uid_of_addr proto cur with
          | Some uid when not (Addr.equal cur addr) ->
              Some { Protocol.lu_uid = uid; old_addr = addr; new_addr = cur }
          | Some _ | None -> None)
      | Store.Object _ -> None)
    cells

let address_changes t ~node ~bunch =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  updates_of proto store (from_space_cells store (from_spaces store bunch))

(* Move [node]'s copy [obj] from [addr] into the bunch's allocation
   segment, or into a fresh one when that is full or is one of the
   from-space segments [fs] being emptied (a collection that copied
   nothing leaves allocation there); forward [addr] to the copy and
   return its address.  The one evacuation: for this node's own
   stragglers and adopted orphans, and for an owner's move on a copy
   request. *)
let evacuate t ~node ~fs addr (obj : Heap_obj.t) =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  let bunch = obj.Heap_obj.bunch in
  let seg = Store.active_segment store ~bunch in
  let new_addr =
    match
      if seg_index fs seg.Segment.range.Addr.Range.lo 0 >= 0 then None
      else Store.alloc_clone store ~seg ~of_:obj
    with
    | Some a -> a
    | None -> (
        let seg = Store.fresh_segment store ~bunch () in
        Store.set_active_segment store ~bunch seg;
        match Store.alloc_clone store ~seg ~of_:obj with
        | Some a -> a
        | None -> failwith "Reclaim: object larger than a segment")
  in
  Store.set_forwarder store ~at:addr ~target:new_addr;
  Protocol.register_copy_location proto ~uid:obj.Heap_obj.uid ~addr:new_addr;
  new_addr

let run t ~node ~bunch =
  let proto = Gc_state.proto t in
  let net = Protocol.net proto in
  let store = Protocol.store proto node in
  let replicas =
    List.filter
      (fun n -> not (Ids.Node.equal n node))
      (Protocol.bunch_replica_nodes proto bunch)
  in
  let fs = from_spaces store bunch in
  (* Walk 1: the live copies to move out. *)
  let objects =
    List.filter_map
      (fun (addr, cell) ->
        match cell with
        | Store.Object obj -> Some (addr, obj)
        | Store.Forwarder _ -> None)
      (from_space_cells store fs)
  in
  (* §4.5 reuse waits for replies from every replica (and from each
     object's owner).  A peer that is {e down} cannot object — its
     volatile copies and tokens died with it — but a peer that is alive
     on the far side of a network cut still holds live state and cannot
     answer; evacuating or adopting ownership without it risks split
     brain.  Refuse up front, before any evacuation, so the caller can
     simply retry once the partition heals. *)
  let involved_owners =
    List.filter_map
      (fun (_, obj) -> Protocol.owner_of proto obj.Heap_obj.uid)
      objects
  in
  let cut_off n =
    (not (Ids.Node.equal n node))
    && (not (Net.is_down net n))
    && not (Net.reachable net node n)
  in
  (match List.find_opt cut_off (replicas @ involved_owners) with
  | Some peer ->
      bump t "gc.reclaim.deferred_partition";
      failwith
        (Format.asprintf
           "Reclaim.run: peer %a unreachable (partition); from-space reuse \
            deferred"
           Ids.Node.pp peer)
  | None -> ());
  (* Ask owners to pull their live objects out of the from-space; apply
     the replies locally so our own copies leave it too.  A live copy
     whose recorded owner can no longer help (the owner's own replica
     died first) must not go down with the segment: this node adopts
     ownership and evacuates it itself. *)
  let adopt addr obj =
    bump t "gc.reclaim.ownership_adopted";
    Protocol.adopt_ownership proto ~node ~uid:obj.Heap_obj.uid;
    ignore (evacuate t ~node ~fs addr obj)
  in
  let copy_requests = ref 0 in
  List.iter
    (fun (addr, (obj : Heap_obj.t)) ->
      let uid = obj.Heap_obj.uid in
      match Protocol.owner_of proto uid with
      | Some owner when Ids.Node.equal owner node ->
          (* Locally owned stragglers (allocated since the last BGC). *)
          ignore (evacuate t ~node ~fs addr obj)
      | Some owner -> (
          Net.record_rpc net ~src:node ~dst:owner ~kind:Net.Reclaim_request ();
          incr copy_requests;
          (* The owner moves its copy out of the from-space and reports
             where the object now lives. *)
          let owner_store = Protocol.store proto owner in
          let moved =
            match Store.addr_of_uid owner_store uid with
            | None -> None
            | Some a when seg_index fs a 0 < 0 -> Some (a, a)
            | Some a ->
                Option.map
                  (fun (_, owner_obj) ->
                    bump t "gc.reclaim.owner_copies";
                    (a, evacuate t ~node:owner ~fs a owner_obj))
                  (Store.resolve owner_store a)
          in
          match moved with
          | Some (old_addr, new_addr) ->
              Net.record_rpc net ~src:owner ~dst:node ~kind:Net.Reclaim_reply
                ~bytes:24 ();
              (* Relocate the local replica to the owner's current
                 address — also when the owner did not need to move (its
                 copy was already outside the from-space, but ours is
                 inside and about to go). *)
              (match Store.cell store addr with
              | Some (Store.Object local) when not (Addr.equal addr new_addr) ->
                  Store.install store new_addr local;
                  Store.set_forwarder store ~at:addr ~target:new_addr
              | Some _ | None -> ());
              Protocol.apply_location_updates proto ~node
                [ { Protocol.lu_uid = uid; old_addr; new_addr } ]
          | None ->
              Net.record_rpc net ~src:owner ~dst:node ~kind:Net.Reclaim_reply ();
              adopt addr obj)
      | None -> adopt addr obj)
    objects;
  (* Walk 2, after the owner exchange (applying a reply can install a
     forwarder in the from-space): the address changes the forwarders
     record, and the cells to drop. *)
  let cells = from_space_cells store fs in
  let updates = updates_of proto store cells in
  (* §4.5 is explicit that reuse waits for acknowledgements: "Once the
     local node receives the replies to the above messages, the
     from-space segment can be fully reused or freed."  So this is a
     request/reply exchange, one per replica, not fire-and-forget —
     otherwise a token grant racing with the reuse could hand out an
     address whose forwarder no longer exists anywhere. *)
  if updates <> [] then
    List.iter
      (fun dst ->
        Net.record_rpc net ~src:node ~dst ~kind:Net.Addr_update
          ~bytes:(24 * List.length updates)
          ();
        Protocol.apply_location_updates proto ~node:dst updates;
        Net.record_rpc net ~src:dst ~dst:node ~kind:Net.Reclaim_reply ())
      replicas;
  (* Walk 3: rewrite every locally held pointer (mutator roots and
     object fields) through the local forwarder chains, so the
     forwarders in the from-space are no longer needed on this node;
     then drop its cells wholesale. *)
  if Array.length fs > 0 then begin
    Gc_state.forward_roots t ~node;
    Store.iter store (fun obj_addr cell ->
        match cell with
        | Store.Object obj -> ignore (Store.forward_fields store ~obj_addr obj)
        | Store.Forwarder _ -> ())
  end;
  List.iter (fun (addr, _) -> Store.remove store addr) cells;
  (* The ranges are retired, never reallocated: numeric address recycling
     would let addresses still present in in-flight metadata alias fresh
     objects.  The 63-bit space is inexhaustible in simulation; what §4.5
     reclaims — the segment's memory — is returned (the maps and cells
     are gone), and accounting (E18) measures live footprint as non-Free
     segment bytes. *)
  Array.iter
    (fun seg ->
      Segment.reset seg;
      Segment.seal seg;
      bump t "gc.reclaim.segments_freed")
    fs;
  {
    q_segments_freed = Array.length fs;
    q_bytes_freed =
      Array.fold_left (fun n seg -> n + Addr.Range.size seg.Segment.range) 0 fs;
    q_forwarders_dropped =
      List.length
        (List.filter
           (function _, Store.Forwarder _ -> true | _, Store.Object _ -> false)
           cells);
    q_copy_requests = !copy_requests;
    q_updates_broadcast = (if updates = [] then 0 else List.length replicas);
  }
