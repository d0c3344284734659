open Bmx_util
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Registry = Bmx_memory.Registry
module Value = Bmx_memory.Value
module Heap_obj = Bmx_memory.Heap_obj

let bump t name = Stats.incr (Gc_state.stats t) name

let scion_target t ~node ~bunch =
  let proto = Gc_state.proto t in
  let mapped_locally =
    Store.segments_of_bunch (Protocol.store proto node) bunch <> []
  in
  if mapped_locally then node else Protocol.bunch_home proto bunch

(* Register [node] at the owner of [uid] as keeping it alive: an
   entering ownerPtr, announced by a synchronous exchange.  Registration
   must never fail halfway through a store (the pointer would exist
   unprotected), so across a cut the exchange is replaced by a queued
   reliable registration: the entry is installed eagerly — protection
   can only err conservative — and the wire cost is accounted when the
   link heals.  Returns the owner registered at, if any. *)
let register_at_owner t ~node ~uid =
  let proto = Gc_state.proto t in
  match Protocol.owner_of proto uid with
  | Some owner as registered when not (Ids.Node.equal owner node) ->
      let net = Protocol.net proto in
      if Net.reachable net node owner then
        Net.record_rpc net ~src:node ~dst:owner ~kind:Net.Scion_message
          ~bytes:24 ()
      else begin
        bump t "gc.barrier.deferred_registrations";
        Net.send net ~src:node ~dst:owner ~kind:Net.Scion_message ~bytes:24
          (fun _seq -> ())
      end;
      Bmx_dsm.Directory.add_entering
        (Protocol.directory proto owner)
        ~seq:(Net.current_seq net ~src:node ~dst:owner)
        ~uid ~from:node;
      registered
  | Some _ | None -> None

let create_inter_ssp t ~node ~src_obj ~target_addr =
  let proto = Gc_state.proto t in
  let src_bunch = src_obj.Heap_obj.bunch in
  match Registry.bunch_of_addr (Protocol.registry proto) target_addr with
  | None -> () (* not a heap address: nothing to describe *)
  | Some target_bunch when Ids.Bunch.equal target_bunch src_bunch -> ()
  | Some target_bunch -> (
      match Protocol.uid_of_addr proto target_addr with
      | None -> ()
      | Some target_uid ->
          bump t "gc.barrier.inter_refs";
          let scion_at = scion_target t ~node ~bunch:target_bunch in
          let stub =
            {
              Ssp.is_src_bunch = src_bunch;
              is_src_uid = src_obj.Heap_obj.uid;
              is_created_at = node;
              is_target_uid = target_uid;
              is_target_bunch = target_bunch;
              is_target_addr = target_addr;
              is_scion_at = scion_at;
            }
          in
          Gc_state.add_inter_stub t ~node stub;
          let scion =
            {
              Ssp.xs_src_bunch = src_bunch;
              xs_src_uid = src_obj.Heap_obj.uid;
              xs_src_node = node;
              xs_target_uid = target_uid;
              xs_target_bunch = target_bunch;
            }
          in
          (* If the scion node holds no copy of the target, the scion
             protects a purely remote object: the owner must learn at
             once that this node keeps it alive (a conservative entering
             ownerPtr), or an unlucky BGC at the owner could reclaim it
             before the scion node's first collection advertises it. *)
          let install_scion at =
            Gc_state.add_inter_scion t ~node:at scion;
            if Store.addr_of_uid (Protocol.store proto at) target_uid = None then
              match Protocol.owner_of proto target_uid with
              | Some owner when not (Ids.Node.equal owner at) ->
                  Bmx_dsm.Directory.add_entering
                    (Protocol.directory proto owner)
                    ~seq:(Net.current_seq (Protocol.net proto) ~src:at ~dst:owner)
                    ~uid:target_uid ~from:at
              | Some _ | None -> ()
          in
          if Ids.Node.equal scion_at node then install_scion node
          else begin
            (* The target bunch is not mapped here: a scion-message informs
               a node that maps it (§3.2).  While the message is in
               flight, the target is protected by nothing — the race the
               paper defers to its companion report.  A provisional
               entering ownerPtr at the target's owner covers the window;
               the delivery hands protection over to the scion and
               retires the provisional entry. *)
            bump t "gc.barrier.scion_messages";
            let provisional_owner =
              if Store.addr_of_uid (Protocol.store proto node) target_uid = None
              then register_at_owner t ~node ~uid:target_uid
              else None
            in
            Net.send (Protocol.net proto) ~src:node ~dst:scion_at
              ~kind:Net.Scion_message ~bytes:40 (fun _seq ->
                install_scion scion_at;
                match provisional_owner with
                | Some owner
                  when Store.addr_of_uid (Protocol.store proto node) target_uid
                       = None ->
                    (* The scion's own protection is in place; the
                       provisional entry has done its job.  (If the
                       creator meanwhile cached a replica, the ordinary
                       exiting/entering reconciliation owns the entry and
                       it stays.) *)
                    Bmx_dsm.Directory.remove_entering
                      (Protocol.directory proto owner)
                      ~uid:target_uid ~from:node
                | Some _ | None -> ())
          end)

(* Storing an intra-bunch pointer to an object this node has never cached
   creates a cross-node dependency no SSP describes (inter-bunch
   references get a scion immediately, §3.2; intra-bunch ones normally
   lean on the local replica of the target, which does not exist here).
   The next local BGC will advertise the dependency as a conservative
   exiting entry, but until then the target's owner must not reclaim it:
   the barrier registers the entering ownerPtr at the owner immediately.
   The registration is later removed by the ordinary reconciliation: this
   node's BGC over the bunch claims the target while the reference lives,
   and stops claiming when it goes. *)
let protect_uncached_target t ~node ~src_bunch ~target =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  match Protocol.uid_of_addr proto target with
  | None -> ()
  | Some uid ->
      let same_bunch =
        match Bmx_memory.Registry.bunch_of_addr (Protocol.registry proto) target with
        | Some tb -> Ids.Bunch.equal tb src_bunch
        | None -> false
      in
      if same_bunch && Store.addr_of_uid store uid = None then
        match register_at_owner t ~node ~uid with
        | Some _ -> bump t "gc.barrier.remote_target_registrations"
        | None -> ()

(* Crash recovery re-runs the barrier over recovered contents: the SSPs
   and entering registrations the original stores created were volatile
   at the crashed node, and they are derivable from the restored cells —
   every pointer field gets the same protection a fresh store of that
   value would have created (§8: the GC metadata is recoverable data).
   Targets of other not-yet-restored cells are fine: the scion is keyed
   by uid and protects the cell whenever it appears. *)
let reassert_protection t ~node addr =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  match Store.resolve store addr with
  | None -> ()
  | Some (_, src_obj) ->
      List.iter
        (fun target ->
          if not (Addr.is_null target) then begin
            protect_uncached_target t ~node
              ~src_bunch:src_obj.Heap_obj.bunch ~target;
            create_inter_ssp t ~node ~src_obj ~target_addr:target
          end)
        (Heap_obj.pointers src_obj)

let write_field t ~node addr index v =
  let proto = Gc_state.proto t in
  bump t "gc.barrier.checks";
  Protocol.write_field_raw proto ~node addr index v;
  match v with
  | Value.Ref target when not (Addr.is_null target) -> (
      let store = Protocol.store proto node in
      match Store.resolve store addr with
      | Some (_, src_obj) ->
          protect_uncached_target t ~node
            ~src_bunch:src_obj.Heap_obj.bunch ~target;
          create_inter_ssp t ~node ~src_obj ~target_addr:target
      | None -> ())
  | Value.Ref _ | Value.Data _ -> ()
