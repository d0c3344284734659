open Bmx_util
module Net = Bmx_netsim.Net
module Store = Bmx_memory.Store
module Registry = Bmx_memory.Registry
module Heap_obj = Bmx_memory.Heap_obj
module Value = Bmx_memory.Value

type mode = Centralized | Distributed
type update_policy = Eager | Lazy
type actor = App | Gc

type location_update = { lu_uid : Ids.Uid.t; old_addr : Addr.t; new_addr : Addr.t }

type hooks = {
  before_write_grant :
    granter:Ids.Node.t -> requester:Ids.Node.t -> uid:Ids.Uid.t -> unit;
}

let no_hooks = { before_write_grant = (fun ~granter:_ ~requester:_ ~uid:_ -> ()) }

type t = {
  net : (int -> unit) Net.t;
  registry : Registry.t;
  mode : mode;
  update_policy : update_policy;
  mutable hooks : hooks;
  stores : Store.t Ids.Node_tbl.t;
  dirs : Directory.t Ids.Node_tbl.t;
  homes : Ids.Node.t Ids.Bunch_tbl.t;
  uidgen : Ids.Uid.gen;
  addr_oracle : (Addr.t, Ids.Uid.t) Hashtbl.t;
  owners : Ids.Node.t Ids.Uid_tbl.t;
      (* cached owner per uid — a hint, validated against the directory
         on every lookup (tests and crashes may flip [is_owner] without
         going through the protocol) and repaired by scan on a miss *)
  evlog : Trace_event.log;
  mutable obs : Bmx_obs.Metrics.t option;
  mutable copyset_hist : int array;
      (* [copyset_hist.(c)] = directory records, across every node, whose
         copyset has cardinality [c] (c >= 1; empty copysets untracked) *)
  mutable copyset_max : int;
      (* top nonzero histogram index — the largest live copyset, read by
         the continuous sampler once per closed window, so it must be
         O(1): a full directory scan here dominated the e20 sweep *)
}

let create ~net ~registry ?(mode = Distributed) ?(update_policy = Lazy) () =
  {
    net;
    registry;
    mode;
    update_policy;
    hooks = no_hooks;
    stores = Ids.Node_tbl.create 8;
    dirs = Ids.Node_tbl.create 8;
    homes = Ids.Bunch_tbl.create 8;
    uidgen = Ids.Uid.generator ();
    addr_oracle = Hashtbl.create 1024;
    owners = Ids.Uid_tbl.create 1024;
    evlog = Trace_event.create_log ();
    obs = None;
    copyset_hist = Array.make 8 0;
    copyset_max = 0;
  }

(* Every copyset write goes through here (dropping a record first sets
   the empty set), so the cardinality histogram stays exact and its top
   index is the cluster-wide maximum, maintained in O(1) amortized. *)
let set_copyset t (r : Directory.record) cs =
  let was = Ids.Node_set.cardinal r.Directory.copyset in
  let now = Ids.Node_set.cardinal cs in
  r.Directory.copyset <- cs;
  if was <> now then begin
    let h =
      if now < Array.length t.copyset_hist then t.copyset_hist
      else begin
        let g = Array.make (2 * (now + 1)) 0 in
        Array.blit t.copyset_hist 0 g 0 (Array.length t.copyset_hist);
        t.copyset_hist <- g;
        g
      end
    in
    if was > 0 then h.(was) <- h.(was) - 1;
    if now > 0 then h.(now) <- h.(now) + 1;
    if now > t.copyset_max then t.copyset_max <- now
    else
      while t.copyset_max > 0 && h.(t.copyset_max) = 0 do
        t.copyset_max <- t.copyset_max - 1
      done
  end

let set_hooks t hooks = t.hooks <- hooks
let evlog t = t.evlog

let set_metrics t m =
  t.obs <- Some m;
  Bmx_obs.Metrics.gauge_fn m "dsm.oracle.entries" (fun () ->
      Hashtbl.length t.addr_oracle);
  (* Largest copyset across every directory — how widely the most shared
     object has spread (§2.2).  Served from the cardinality histogram in
     O(1): the continuous sampler reads this once per closed window, and
     the previous full directory scan (materialise + sort every record
     list) cost ~500k minor words per sample at the e20 sweep's largest
     leg and dominated the measured loop's allocation. *)
  Bmx_obs.Metrics.gauge_fn m "dsm.copyset.max" (fun () -> t.copyset_max)

(* Every event is built under [if logging t], so a run with the log off
   allocates none. *)
let logging t = Trace_event.enabled t.evlog
let ev t e = Trace_event.record t.evlog e

let ev_actor = function App -> Trace_event.App | Gc -> Trace_event.Gc
let ev_tok = function `Read -> Trace_event.Read | `Write -> Trace_event.Write

let net t = t.net
let stats t = Net.stats t.net
let registry t = t.registry
let mode t = t.mode

let add_node t node =
  if Ids.Node_tbl.mem t.stores node then
    invalid_arg "Protocol.add_node: duplicate node";
  Ids.Node_tbl.add t.stores node (Store.create ~registry:t.registry ~node);
  Ids.Node_tbl.add t.dirs node (Directory.create ~node)

let nodes t =
  Ids.Node_tbl.fold (fun n _ acc -> n :: acc) t.stores []
  |> List.sort Ids.Node.compare

let store t node =
  match Ids.Node_tbl.find t.stores node with
  | s -> s
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Protocol.store: unknown node N%d" node)

let directory t node =
  match Ids.Node_tbl.find t.dirs node with
  | d -> d
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Protocol.directory: unknown node N%d" node)

let declare_bunch t ~bunch ~home =
  ignore (store t home);
  Ids.Bunch_tbl.replace t.homes bunch home

let bunch_home t bunch =
  match Ids.Bunch_tbl.find_opt t.homes bunch with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Protocol.bunch_home: unknown bunch B%d" bunch)

let bunches t =
  Ids.Bunch_tbl.fold (fun b _ acc -> b :: acc) t.homes []
  |> List.sort Ids.Bunch.compare

(* The registry shard whose region carved this address, if any.  All
   location traffic about the address — oracle consults, grants and
   their piggybacked updates, copy-set forwards — is labelled with it,
   so the wire attribution can show location load staying partitioned
   instead of funnelling through one authority. *)
let shard_of t addr = Registry.shard_of_addr t.registry addr

(* Per-actor counter names as literals: the acquire and ownerPtr-hop
   paths must not concatenate strings. *)
let acquire_key actor kind =
  match (actor, kind) with
  | App, `Read -> "dsm.app.acquire_read"
  | App, `Write -> "dsm.app.acquire_write"
  | Gc, `Read -> "dsm.gc.acquire_read"
  | Gc, `Write -> "dsm.gc.acquire_write"

let acquire_local_key = function
  | App -> "dsm.app.acquire_local"
  | Gc -> "dsm.gc.acquire_local"

let hops_key = function App -> "dsm.app.hops" | Gc -> "dsm.gc.hops"

let invalidations_key = function
  | App -> "dsm.app.invalidations"
  | Gc -> "dsm.gc.invalidations"

let faults_key = function App -> "dsm.app.faults" | Gc -> "dsm.gc.faults"

let bump t name = Stats.incr (stats t) name
let note_owner t ~uid ~node = Ids.Uid_tbl.replace t.owners uid node

(* ------------------------------------------------------------------ *)
(* Allocation and the address oracle.                                  *)

let alloc t ~node ~bunch ~fields =
  let uid = Ids.Uid.fresh t.uidgen in
  let addr = Store.alloc (store t node) ~bunch ~uid ~fields in
  ignore (Directory.register_new_object (directory t node) ~uid);
  note_owner t ~uid ~node;
  Hashtbl.replace t.addr_oracle addr uid;
  bump t "dsm.alloc";
  addr

let register_copy_location t ~uid ~addr = Hashtbl.replace t.addr_oracle addr uid
let uid_at t addr = Hashtbl.find t.addr_oracle addr
let uid_of_addr t addr = Hashtbl.find_opt t.addr_oracle addr

(* ------------------------------------------------------------------ *)
(* Oracles.                                                            *)

let owner_scan t uid =
  Ids.Node_tbl.fold
    (fun node d acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match Directory.find d uid with
          | Some r when r.Directory.is_owner -> Some node
          | Some _ | None -> None))
    t.dirs None

let owner_confirmed t uid node =
  match Directory.record (Ids.Node_tbl.find t.dirs node) uid with
  | r -> r.Directory.is_owner
  | exception Not_found -> false

let owner_rescan t uid =
  match owner_scan t uid with
  | Some n ->
      Ids.Uid_tbl.replace t.owners uid n;
      n
  | None ->
      Ids.Uid_tbl.remove t.owners uid;
      raise Not_found

(* The owner of [uid]: the cached hint when the directory confirms it,
   else a scan.  Allocates nothing on a confirmed hit.
   @raise Not_found if no node owns the object. *)
let owner t uid =
  match Ids.Uid_tbl.find t.owners uid with
  | n -> if owner_confirmed t uid n then n else owner_rescan t uid
  | exception Not_found -> owner_rescan t uid

let owner_of t uid = match owner t uid with n -> Some n | exception Not_found -> None

let has_copy s uid =
  match Store.uid_addr s uid with _ -> true | exception Not_found -> false

let replica_nodes t uid =
  Ids.Node_tbl.fold
    (fun node s acc ->
      match Store.addr_of_uid s uid with Some _ -> node :: acc | None -> acc)
    t.stores []
  |> List.sort Ids.Node.compare

(* Resolve an address to the identity of the object it names, from the
   point of view of node [n].  Normally the local store knows; otherwise
   the location service answers, two-level: the first hop is the owner
   of the address's registry shard (O(1) arithmetic routing — the shard
   owner's BMX-server holds the directory slice for its own regions),
   which returns the identity and a probable-owner hint; only if that
   owner is down does the consult fall back to the bunch's home node,
   the pre-sharding single authority.  Either way the answer itself
   comes from the address oracle, which stands in for both levels'
   BMX-server state (§8). *)
let consult_location t n addr =
  match shard_of t addr with
  | Some shard
    when Registry.shard_up t.registry shard
         && not (Net.is_down t.net (Registry.shard_owner t.registry shard))
         && Net.reachable t.net n (Registry.shard_owner t.registry shard) ->
      let home = Registry.shard_owner t.registry shard in
      if not (Ids.Node.equal home n) then
        Net.record_rpc t.net ~src:n ~dst:home ~kind:Net.Object_fetch ~shard ()
  | Some _ | None -> (
      match Registry.bunch_of_addr t.registry addr with
      | Some bunch when Ids.Bunch_tbl.mem t.homes bunch ->
          let home = bunch_home t bunch in
          if not (Ids.Node.equal home n) then
            Net.record_rpc t.net ~src:n ~dst:home ~kind:Net.Object_fetch ()
      | Some _ | None -> ())

let locate t n addr =
  let s = store t n in
  match Store.object_at s (Store.endpoint s addr) with
  | obj -> obj.Heap_obj.uid
  | exception Not_found -> (
      match uid_at t addr with
      | uid ->
          consult_location t n addr;
          uid
      | exception Not_found ->
          failwith
            (Printf.sprintf "Protocol.locate: dangling address %s at N%d"
               (Addr.to_string addr) n))

(* Forward the request one ownerPtr hop: one request message, one hop
   charged to the acting subsystem. *)
let hop t ~actor ~src ~dst =
  Net.record_rpc t.net ~src ~dst ~kind:Net.Token_request ();
  bump t (hops_key actor)

(* Follow the ownerPtr (probable-owner) chain from [start], one hop per
   forwarded request, to the owner — or, with [stop], to the first node
   past [start] holding a Read or Write token (read-token grants can come
   from any read-token holder, §2.2).  Returns the granter and the nodes
   visited before it.  A top-level recursion: a local one would allocate
   its closure on every remote acquire. *)
let rec chase_from t ~actor ~stop ~start uid node visited fuel =
  if fuel = 0 then failwith "Protocol.chase: ownerPtr cycle"
  else
    match Directory.record (directory t node) uid with
    | r ->
        if
          r.Directory.is_owner
          || stop
             && (not (Ids.Node.equal node start))
             && r.Directory.state <> Directory.Invalid
        then (node, List.rev visited)
        else begin
          let next = r.Directory.prob_owner in
          hop t ~actor ~src:node ~dst:next;
          chase_from t ~actor ~stop ~start uid next (node :: visited) (fuel - 1)
        end
    | exception Not_found -> (
        (* This node never heard of the object; the owner oracle stands in
           for the BMX-server's directory. *)
        match owner t uid with
        | owner ->
            if not (Ids.Node.equal owner node) then
              hop t ~actor ~src:node ~dst:owner;
            (owner, List.rev visited)
        | exception Not_found ->
            failwith
              (Printf.sprintf "Protocol.chase: no owner for %s"
                 (Ids.Uid.to_string uid)))

let chase t ~actor ~stop ~start uid =
  chase_from t ~actor ~stop ~start uid start [] 64

(* ------------------------------------------------------------------ *)
(* Location updates (§4.4, §5 invariants 1 and 2).                     *)

let update_bytes = 24

let rec has_update uid = function
  | [] -> false
  | up :: rest -> Ids.Uid.equal up.lu_uid uid || has_update uid rest

let rec update_of uid = function
  | [] -> raise Not_found
  | up :: rest -> if Ids.Uid.equal up.lu_uid uid then up else update_of uid rest

let rec without_update uid = function
  | [] -> []
  | up :: rest ->
      if Ids.Uid.equal up.lu_uid uid then rest else up :: without_update uid rest

(* Prepend to [later] the update node [g] ships for one occurrence of
   [uid]: seen at [old_addr], now at [new_addr].  The update carries the
   two newest addresses [g] has seen for the object, or else the move
   from [old_addr] to [new_addr], if any.  [later] holds the updates of
   the occurrences after this one, coalesced; when one of them names
   [uid] it wins (last write) but moves up to this occurrence's place
   (first position), so several fields naming one object cost one
   entry. *)
let to_front uid later = update_of uid later :: without_update uid later

let note_update gstore uid ~old_addr ~new_addr later =
  match Store.address_history gstore uid with
  | newest :: prev :: _ ->
      if has_update uid later then to_front uid later
      else { lu_uid = uid; old_addr = prev; new_addr = newest } :: later
  | [ _ ] | [] ->
      if Addr.equal old_addr new_addr then later
      else if has_update uid later then to_front uid later
      else { lu_uid = uid; old_addr; new_addr } :: later

(* New-location information node [g] can piggyback about the object it
   is granting (first), then everything the granted copy references
   directly, in field order.  Composed purely from [g]'s local
   knowledge.  Built back to front, one entry per object at most, so a
   grant allocates only the updates it ships. *)
let compute_updates t ~granter:g ~requested addr gobj =
  let gstore = store t g in
  let acc = ref [] in
  for i = Heap_obj.num_fields gobj - 1 downto 0 do
    let r = Heap_obj.get_raw gobj i in
    if Value.raw_is_pointer r then begin
      let a = Value.raw_addr r in
      let cur = Store.current_addr gstore a in
      match uid_at t cur with
      | u -> acc := note_update gstore u ~old_addr:a ~new_addr:cur !acc
      | exception Not_found -> ()
    end
  done;
  note_update gstore gobj.Heap_obj.uid ~old_addr:requested ~new_addr:addr !acc

(* Rewrite the pointer fields of a local object copy through the local
   forwarder chains (Figure 3 case (d): references to from-space forwarding
   pointers are retargeted to to-space directly), counting the fixes;
   returns how many fields changed. *)
let fix_fields t s obj_addr obj =
  let n = Store.forward_fields s ~obj_addr obj in
  if n > 0 then Stats.add (stats t) "dsm.ref_fixes" n;
  n

(* Apply one update at [s]; false when [s] already knew it. *)
let apply_update s { lu_uid; old_addr; new_addr } =
  (not (Addr.equal old_addr new_addr))
  && (not
        (Addr.equal (Store.current_addr s old_addr) new_addr
        &&
        match Store.uid_addr s lu_uid with
        | a -> not (Addr.equal a old_addr)
        | exception Not_found -> true))
  && begin
       (* Move the local copy, if any, to the new address; leave a
          forwarding header behind (§4.4: "o2 is copied to the indicated
          address, and all the local references are updated accordingly
          without requiring any token"). *)
       (match Store.uid_addr s lu_uid with
       | cur -> (
           if not (Addr.equal cur new_addr) then
             match Store.object_at s cur with
             | obj ->
                 Store.install s new_addr obj;
                 Store.set_forwarder s ~at:cur ~target:new_addr
             | exception Not_found -> ())
       | exception Not_found -> ());
       (* Always install the forwarder at the old published address so
          stale pointers held locally keep resolving. *)
       (match Store.cell s old_addr with
       | Some (Store.Object obj) when Heap_obj.(obj.uid) = lu_uid ->
           Store.install s new_addr obj;
           Store.set_forwarder s ~at:old_addr ~target:new_addr
       | Some (Store.Object _) | Some (Store.Forwarder _) -> ()
       | None -> Store.set_forwarder s ~at:old_addr ~target:new_addr);
       true
     end

(* The updates [s] did not already know, applied in order. *)
let rec apply_updates s = function
  | [] -> []
  | up :: rest ->
      if apply_update s up then up :: apply_updates s rest
      else apply_updates s rest

let rec apply_location_updates t ~node updates =
  let s = store t node in
  let changed = apply_updates s updates in
  if updates <> [] && logging t then
    ev t
      (Trace_event.Updates_applied
         { node; uids = List.map (fun u -> u.lu_uid) updates });
  (match t.update_policy with
  | Eager ->
      (* Sweep local copies, rewriting pointers through forwarders now
         rather than at the next BGC. *)
      Store.iter s (fun a c ->
          match c with
          | Store.Object obj -> ignore (fix_fields t s a obj)
          | Store.Forwarder _ -> ())
  | Lazy -> ());
  forward_updates t ~node (directory t node) changed

(* Invariant 2 (§5): forward fresh information to every node in the
   local copy-set for the object, the way read-copy invalidations
   propagate.  Background messages; receivers recurse. *)
and forward_updates t ~node d = function
  | [] -> ()
  | up :: rest ->
      (match Directory.record d up.lu_uid with
      | r ->
          if logging t && not (Ids.Node_set.is_empty r.Directory.copyset) then
            ev t
              (Trace_event.Forward_due
                 {
                   node;
                   uid = up.lu_uid;
                   peers = Ids.Node_set.elements r.Directory.copyset;
                 });
          Ids.Node_set.iter
            (fun peer ->
              if logging t then
                ev t
                  (Trace_event.Copyset_forward
                     { src = node; dst = peer; uid = up.lu_uid });
              Net.send t.net ~src:node ~dst:peer ~kind:Net.Addr_update
                ~bytes:update_bytes
                ?shard:(shard_of t up.new_addr)
                (fun _seq -> apply_location_updates t ~node:peer [ up ]))
            r.Directory.copyset
      | exception Not_found -> ());
      forward_updates t ~node d rest

let send_location_updates t ~src ~dst updates =
  (* A batch is routed as one message; label it with the shard of the
     lead update (the acquired object — referent updates ride along). *)
  let shard =
    match updates with [] -> None | up :: _ -> shard_of t up.new_addr
  in
  Net.send t.net ~src ~dst ~kind:Net.Addr_update
    ~bytes:(List.length updates * update_bytes)
    ?shard
    (fun _seq -> apply_location_updates t ~node:dst updates)

(* ------------------------------------------------------------------ *)
(* Invalidation of the read copy-set tree (write-token acquire).       *)

(* Pre-flight for a write grant: every read-copy holder reachable from
   [node] through the copyset tree must be invalidatable.  A holder
   that is down lost its token with its volatile directory, so it needs
   no invalidation; a holder that is {e alive but cut off} still holds
   a live read token we cannot revoke — granting the write would leave
   a reader and a writer coexisting across the partition.  The check
   runs before any mutation so a refusal leaves no partial state.
   Copysets can form a cycle, so the walk checks every link but carries
   the nodes whose copysets it has [seen] and walks each one once. *)
let visit_copyset_member () =
  Perfcount.(counters.s_dsm_copyset_visits <- counters.s_dsm_copyset_visits + 1)

let rec invalidation_walk t ~seen node uid =
  match Directory.record (directory t node) uid with
  | exception Not_found -> true
  | r ->
      Ids.Node_set.for_all
        (fun peer ->
          visit_copyset_member ();
          Ids.Node.equal peer node
          || Net.is_down t.net peer
          || Net.reachable t.net node peer
             && (Ids.Node_set.mem peer !seen
                || begin
                     seen := Ids.Node_set.add peer !seen;
                     invalidation_walk t ~seen peer uid
                   end))
        r.Directory.copyset

let invalidation_reachable t node uid =
  invalidation_walk t ~seen:(ref Ids.Node_set.empty) node uid

let rec invalidate_subtree t ~actor ~skip node uid =
  let d = directory t node in
  match Directory.record d uid with
  | exception Not_found -> ()
  | r ->
      let grantees = r.Directory.copyset in
      set_copyset t r Ids.Node_set.empty;
      Ids.Node_set.iter
        (fun peer ->
          visit_copyset_member ();
          if not (Ids.Node.equal peer node) then begin
            (* A dead peer's token died with its volatile directory: no
               invalidation to send.  (Its possibly-cut link must not
               make the walk raise mid-mutation either.) *)
            if not (Net.is_down t.net peer) then begin
              Net.record_rpc t.net ~src:node ~dst:peer ~kind:Net.Invalidate ();
              if logging t then
                ev t (Trace_event.Invalidate { src = node; dst = peer; uid });
              bump t (invalidations_key actor)
            end;
            invalidate_subtree t ~actor ~skip peer uid
          end)
        grantees;
      if not (Ids.Node.equal node skip) then begin
        if r.Directory.held && r.Directory.state <> Directory.Invalid then
          failwith "Protocol: invalidating a held token (missing release?)";
        r.Directory.state <- Directory.Invalid
      end

(* ------------------------------------------------------------------ *)
(* Token acquisition.                                                  *)

(* Install [gobj], the granter's copy, at [gaddr] in [node]'s store, then
   rewrite its fields through the node's forwarders.  A stale copy
   already at [gaddr] is overwritten in place; otherwise a clone goes
   in, and the node's copy elsewhere, if any, forwards to it. *)
let install_granted t ~node ~gaddr gobj =
  let s = store t node in
  let obj =
    match Store.overwrite s gaddr ~from:gobj with
    | obj -> obj
    | exception Not_found ->
        let prev =
          match Store.uid_addr s gobj.Heap_obj.uid with
          | p -> p
          | exception Not_found -> gaddr
        in
        let obj = Heap_obj.clone gobj in
        Store.install s gaddr obj;
        if not (Addr.equal prev gaddr) then
          Store.set_forwarder s ~at:prev ~target:gaddr;
        obj
  in
  let n = fix_fields t s gaddr obj in
  Perfcount.(
    counters.s_dsm_fields_forwarded <- counters.s_dsm_fields_forwarded + n)

(* Ship [src]'s copy of [uid] to [dst]: resolve it, compute the location
   updates it carries, account the reply (32 bytes plus the object) and
   the updates piggybacked on it (§4.4), and install a clone at [dst].
   A token grant ([tok]) also records [Grant_sent]; a demand-fetch reply
   ([None]) first records its request.  The caller sets directory state
   and applies the returned updates last, so invariant 1 completes
   before the acquire returns. *)
let ship_copy t ~src ~dst ~uid ~requested ~tok =
  let s = store t src in
  let gaddr =
    match Store.uid_addr s uid with
    | a -> Store.endpoint s a
    | exception Not_found -> failwith "Protocol.ship_copy: source has no copy"
  in
  let gobj =
    match Store.object_at s gaddr with
    | o -> o
    | exception Not_found -> failwith "Protocol.ship_copy: source copy vanished"
  in
  let updates = compute_updates t ~granter:src ~requested gaddr gobj in
  let k = List.length updates in
  Perfcount.(counters.s_dsm_updates <- counters.s_dsm_updates + k);
  let shard = shard_of t gaddr in
  (match tok with
  | None -> Net.record_rpc t.net ~src:dst ~dst:src ~kind:Net.Object_fetch ?shard ()
  | Some _ -> ());
  Net.record_rpc t.net ~src ~dst ~kind:Net.Token_grant
    ~bytes:(32 + Heap_obj.size_bytes gobj)
    ?shard ();
  (match tok with
  | Some tok when logging t ->
      ev t
        (Trace_event.Grant_sent
           { granter = src; requester = dst; uid; tok; updates = k })
  | Some _ | None -> ());
  if k > 0 then
    Net.record_piggyback t.net ~src ~kind:Net.Token_grant
      ~bytes:(k * update_bytes) ?shard ();
  install_granted t ~node:dst ~gaddr gobj;
  updates

(* [Acquire_done]: the acquire of [uid] by [node] returns. *)
let ev_done t ~actor ~node ~uid kind =
  if logging t then
    ev t
      (Trace_event.Acquire_done
         {
           actor = ev_actor actor;
           node;
           uid;
           tok = ev_tok kind;
           addr_valid = has_copy (store t node) uid;
         })

(* Where an acquire returns: the requester's copy, which the grant (or
   the local token) guarantees. *)
let acquired_addr s uid =
  match Store.uid_addr s uid with
  | a -> a
  | exception Not_found -> failwith "Protocol.acquire: no local copy"

(* Path compression after a write grant to [n]: nodes along the chase
   now point at the new owner, and their replicas become entering
   ownerPtrs at [n]. *)
let rec compress_chase t ~uid ~owner:n d_n = function
  | [] -> ()
  | v :: rest ->
      if not (Ids.Node.equal v n) then begin
        (match Directory.record (directory t v) uid with
        | rv ->
            if not rv.Directory.is_owner then begin
              rv.Directory.prob_owner <- n;
              Directory.touch (directory t v)
            end
        | exception Not_found -> ());
        if has_copy (store t v) uid then
          Directory.add_entering d_n
            ~seq:(Net.current_seq t.net ~src:v ~dst:n)
            ~uid ~from:v
      end;
      compress_chase t ~uid ~owner:n d_n rest

let acquire t ?(actor = App) ~node:n addr kind =
  let uid = locate t n addr in
  let s_n = store t n in
  let d_n = directory t n in
  bump t (acquire_key actor kind);
  if logging t then
    ev t
      (Trace_event.Acquire_start
         { actor = ev_actor actor; node = n; uid; tok = ev_tok kind });
  let local_ok =
    match Directory.record d_n uid with
    | r -> (
        match kind with
        | `Read ->
            (r.Directory.state = Directory.Read
            || r.Directory.state = Directory.Write)
            && has_copy s_n uid
        | `Write ->
            r.Directory.is_owner
            && r.Directory.state = Directory.Write
            && has_copy s_n uid)
    | exception Not_found -> false
  in
  if local_ok then begin
    bump t (acquire_local_key actor);
    (Directory.record d_n uid).Directory.held <- true;
    ev_done t ~actor ~node:n ~uid kind;
    acquired_addr s_n uid
  end
  else begin
    match kind with
    | `Read ->
        (* Conflict check: a held write token anywhere blocks readers. *)
        (match owner t uid with
        | o -> (
            if not (Ids.Node.equal o n) then
              match Directory.record (directory t o) uid with
              | ro ->
                  if ro.Directory.held && ro.Directory.state = Directory.Write
                  then failwith "Protocol.acquire: write token held elsewhere"
              | exception Not_found -> ())
        | exception Not_found -> ());
        let granter, _visited =
          chase t ~actor ~stop:(t.mode = Distributed) ~start:n uid
        in
        (* Partition pre-flight: the grant is a synchronous round trip,
           so an unreachable granter fails the acquire cleanly before
           any directory state is touched. *)
        if
          (not (Ids.Node.equal granter n))
          && not (Net.reachable t.net granter n)
        then failwith "Protocol.acquire: granter unreachable (partition)";
        let g_dir = directory t granter in
        let g_rec =
          match Directory.record g_dir uid with
          | r -> r
          | exception Not_found ->
              failwith "Protocol.acquire: granter lost the record"
        in
        (* An owner holding the write token downgrades to read: several
           read tokens or one write token, never both (§2.2). *)
        if g_rec.Directory.state = Directory.Write then
          g_rec.Directory.state <- Directory.Read;
        if g_rec.Directory.state <> Directory.Read then
          failwith "Protocol.acquire: granter has no valid copy";
        set_copyset t g_rec (Ids.Node_set.add n g_rec.Directory.copyset);
        (match t.obs with
        | Some m ->
            Bmx_obs.Metrics.observe m ~node:granter "dsm.copyset.size"
              (float_of_int (Ids.Node_set.cardinal g_rec.Directory.copyset))
        | None -> ());
        Directory.add_entering g_dir
          ~seq:(Net.current_seq t.net ~src:n ~dst:granter)
          ~uid ~from:n;
        let updates =
          ship_copy t ~src:granter ~dst:n ~uid ~requested:addr
            ~tok:(Some Trace_event.Read)
        in
        let prob_owner =
          if g_rec.Directory.is_owner then granter else g_rec.Directory.prob_owner
        in
        let r_n = Directory.ensure d_n ~uid ~prob_owner in
        r_n.Directory.state <- Directory.Read;
        r_n.Directory.held <- true;
        if not r_n.Directory.is_owner then begin
          r_n.Directory.prob_owner <- prob_owner;
          Directory.touch d_n
        end;
        (* Invariant 1 completes before the acquire returns. *)
        apply_location_updates t ~node:n updates;
        ev_done t ~actor ~node:n ~uid kind;
        acquired_addr s_n uid
    | `Write ->
        let owner, visited = chase t ~actor ~stop:false ~start:n uid in
        if Ids.Node.equal owner n then begin
          (* We were the owner all along (stale local state); revalidate. *)
          if not (invalidation_reachable t owner uid) then
            failwith
              "Protocol.acquire: read-copy holder unreachable (partition)";
          let r = Directory.ensure d_n ~uid ~prob_owner:n in
          r.Directory.is_owner <- true;
          Directory.touch d_n;
          note_owner t ~uid ~node:n;
          invalidate_subtree t ~actor ~skip:n owner uid;
          r.Directory.state <- Directory.Write;
          r.Directory.held <- true;
          ev_done t ~actor ~node:n ~uid kind;
          match Store.uid_addr s_n uid with
          | a -> a
          | exception Not_found ->
              failwith "Protocol.acquire: owner without a copy"
        end
        else begin
          let o_dir = directory t owner in
          let o_rec =
            match Directory.record o_dir uid with
            | r -> r
            | exception Not_found ->
                failwith "Protocol.acquire: owner lost the record"
          in
          if o_rec.Directory.held then
            failwith "Protocol.acquire: write token held elsewhere";
          (* Partition pre-flight, before any mutation: the grant and
             ownership transfer need the owner round trip, and every
             live read-copy holder must be invalidatable — refusing the
             cross-partition write here is what guarantees healing never
             finds two owners or a writer coexisting with readers. *)
          if not (Net.reachable t.net owner n) then
            failwith "Protocol.acquire: owner unreachable (partition)";
          if not (invalidation_reachable t owner uid) then
            failwith
              "Protocol.acquire: read-copy holder unreachable (partition)";
          (* Invalidate every read copy (the requester keeps its cached
             data; it is about to receive the authoritative copy). *)
          invalidate_subtree t ~actor ~skip:n owner uid;
          (* Invariant 3 (§5): intra-bunch SSPs are created before the
             grant message is sent. *)
          if logging t then
            ev t (Trace_event.Hook_ssp { granter = owner; requester = n; uid });
          t.hooks.before_write_grant ~granter:owner ~requester:n ~uid;
          let updates =
            ship_copy t ~src:owner ~dst:n ~uid ~requested:addr
              ~tok:(Some Trace_event.Write)
          in
          (* Ownership transfer: the old owner keeps an inconsistent copy
             (Figure 1: o3 marked "i" at N2) and its ownerPtr now exits
             towards the new owner. *)
          o_rec.Directory.state <- Directory.Invalid;
          o_rec.Directory.is_owner <- false;
          o_rec.Directory.prob_owner <- n;
          set_copyset t o_rec Ids.Node_set.empty;
          Directory.touch o_dir;
          let r_n = Directory.ensure d_n ~uid ~prob_owner:n in
          r_n.Directory.state <- Directory.Write;
          r_n.Directory.is_owner <- true;
          Directory.touch d_n;
          note_owner t ~uid ~node:n;
          r_n.Directory.held <- true;
          r_n.Directory.prob_owner <- n;
          set_copyset t r_n Ids.Node_set.empty;
          Directory.add_entering d_n
            ~seq:(Net.current_seq t.net ~src:owner ~dst:n)
            ~uid ~from:owner;
          compress_chase t ~uid ~owner:n d_n visited;
          apply_location_updates t ~node:n updates;
          ev_done t ~actor ~node:n ~uid kind;
          acquired_addr s_n uid
        end
  end

let release t ~node addr =
  let uid = locate t node addr in
  if logging t then ev t (Trace_event.Release { node; uid });
  match Directory.record (directory t node) uid with
  | r -> r.Directory.held <- false
  | exception Not_found -> ()

let demand_fetch t ?(actor = App) ~node:n addr =
  let uid = locate t n addr in
  let s_n = store t n in
  match Store.uid_addr s_n uid with
  | a -> a
  | exception Not_found ->
      bump t (faults_key actor);
      let supplier, _ = chase t ~actor ~stop:false ~start:n uid in
      let updates =
        ship_copy t ~src:supplier ~dst:n ~uid ~requested:addr ~tok:None
      in
      (* The fetched copy carries no token: it is inconsistent from the
         start, exactly like an invalidated replica. *)
      let r_n = Directory.ensure (directory t n) ~uid ~prob_owner:supplier in
      r_n.Directory.state <- Directory.Invalid;
      (* The supplier (owner) must keep the object alive for us. *)
      Directory.add_entering (directory t supplier)
        ~seq:(Net.current_seq t.net ~src:n ~dst:supplier)
        ~uid ~from:n;
      apply_location_updates t ~node:n updates;
      acquired_addr s_n uid

(* ------------------------------------------------------------------ *)
(* Data access.                                                        *)

(* The local address of the copy [addr] names at [node]: the end of the
   local forwarder chain, or, when the address is stale beyond it, the
   copy the stable identity recovers. *)
let resolve_local t node addr =
  let s = store t node in
  let e = Store.endpoint s addr in
  match Store.object_at s e with
  | _ -> e
  | exception Not_found -> (
      match uid_at t addr with
      | uid -> (
          match Store.uid_addr s uid with
          | a -> (
              let e = Store.endpoint s a in
              match Store.object_at s e with
              | _ -> e
              | exception Not_found ->
                  failwith "Protocol: local index out of date")
          | exception Not_found ->
              failwith
                (Printf.sprintf "Protocol: no local copy of %s at N%d"
                   (Ids.Uid.to_string uid) node))
      | exception Not_found ->
          failwith
            (Printf.sprintf "Protocol: dangling address %s" (Addr.to_string addr)))

let read_field t ?(weak = false) ~node addr index =
  let obj = Store.object_at (store t node) (resolve_local t node addr) in
  let covered =
    match Directory.record (directory t node) obj.Heap_obj.uid with
    | r -> r.Directory.state <> Directory.Invalid
    | exception Not_found -> false
  in
  if (not weak) && not covered then
    failwith "Protocol.read_field: no read token (use ~weak for stale reads)";
  let v = Heap_obj.get obj index in
  if logging t then
    ev t
      (Trace_event.Read_obs
         {
           actor = Trace_event.App;
           node;
           uid = obj.Heap_obj.uid;
           version = Heap_obj.version obj;
           covered;
         });
  v

let write_field_raw t ~node addr index v =
  let s = store t node in
  let a = resolve_local t node addr in
  let obj = Store.object_at s a in
  (match Directory.record (directory t node) obj.Heap_obj.uid with
  | r ->
      if not (r.Directory.state = Directory.Write && r.Directory.is_owner) then
        failwith "Protocol.write_field_raw: no write token"
  | exception Not_found -> failwith "Protocol.write_field_raw: no write token");
  Heap_obj.set obj index v;
  if logging t then
    ev t
      (Trace_event.Write_obs
         {
           actor = Trace_event.App;
           node;
           uid = obj.Heap_obj.uid;
           version = Heap_obj.version obj;
           covered = true;
         });
  Store.note_field_write s ~obj_addr:a ~index v

let ptr_eq t ~node a b =
  if Addr.is_null a || Addr.is_null b then Addr.equal a b
  else
    let s = store t node in
    let a' = Store.current_addr s a and b' = Store.current_addr s b in
    if Addr.equal a' b' then true
    else
      match (uid_of_addr t a', uid_of_addr t b') with
      | Some ua, Some ub -> Ids.Uid.equal ua ub
      | _ -> false

let bunch_replica_nodes t bunch =
  Ids.Node_tbl.fold
    (fun node s acc ->
      if Store.has_objects_of_bunch s bunch then node :: acc else acc)
    t.stores []
  |> List.sort Ids.Node.compare

let forget_replica t ~node ~uid =
  let d = directory t node in
  (match Directory.find d uid with
  | Some r -> set_copyset t r Ids.Node_set.empty
  | None -> ());
  Directory.forget d uid

let crash_node t node =
  (* The node's volatile DSM state — its cached copies and its directory,
     including every token it held, its ownerPtrs, copysets and entering
     tables — is lost wholesale.  The cluster-wide bunch directory
     (homes, address oracle) is BMX-server state and survives; other
     nodes keep their possibly-stale records about the crashed node, the
     same way they would across a real crash. *)
  ignore (store t node);
  (* Drain the dying directory's copysets from the histogram before the
     records vanish. *)
  Directory.iter (directory t node) (fun r ->
      set_copyset t r Ids.Node_set.empty);
  Ids.Node_tbl.replace t.stores node (Store.create ~registry:t.registry ~node);
  Ids.Node_tbl.replace t.dirs node (Directory.create ~node)

let adopt_ownership t ~node ~uid =
  if Store.addr_of_uid (store t node) uid = None then
    invalid_arg "Protocol.adopt_ownership: adopting node has no copy";
  let old_owner = owner_of t uid in
  (* Split-brain guard: adoption is only legal when the recorded owner
     is {e known} to have lost its token (crashed — volatile directory
     gone), never when it is merely unreachable.  An owner on the far
     side of a partition still holds live state; adopting here and
     healing later would leave two owners of one cell.  Likewise every
     surviving replica must be reachable, or its live read token could
     not be re-registered in the rebuilt copyset — recovery of
     ownership waits for heal instead (the caller retries). *)
  (match old_owner with
  | Some o
    when (not (Ids.Node.equal o node)) && not (Net.is_down t.net o) ->
      if not (Net.reachable t.net node o) then
        failwith
          "Protocol.adopt_ownership: recorded owner unreachable (partition?)"
  | Some _ | None -> ());
  List.iter
    (fun n ->
      if
        (not (Ids.Node.equal n node))
        && (not (Net.is_down t.net n))
        && not (Net.reachable t.net node n)
      then
        failwith
          "Protocol.adopt_ownership: surviving replica unreachable \
           (partition?)")
    (replica_nodes t uid);
  (match old_owner with
  | Some o when not (Ids.Node.equal o node) ->
      if Store.addr_of_uid (store t o) uid <> None then
        invalid_arg "Protocol.adopt_ownership: recorded owner still has a copy";
      (* One exchange rewires the old owner's record towards us — only
         meaningful (and only possible) while that node is up. *)
      if not (Net.is_down t.net o) then begin
        Net.record_rpc t.net ~src:node ~dst:o ~kind:Net.Token_request ();
        Net.record_rpc t.net ~src:o ~dst:node ~kind:Net.Token_grant ();
        match Directory.find (directory t o) uid with
        | Some r ->
            r.Directory.is_owner <- false;
            r.Directory.prob_owner <- node;
            Directory.touch (directory t o)
        | None -> ()
      end
  | Some _ | None -> ());
  let r = Directory.ensure (directory t node) ~uid ~prob_owner:node in
  r.Directory.is_owner <- true;
  r.Directory.prob_owner <- node;
  Directory.touch (directory t node);
  note_owner t ~uid ~node;
  (* Adopt with a READ state: other replicas may legitimately hold read
     tokens, and an owner may be in the downgraded-read state (§2.2).
     The adopted copy is the best surviving version of the data. *)
  if r.Directory.state = Directory.Invalid then r.Directory.state <- Directory.Read;
  (* The copyset died with the old owner's volatile memory; rebuild it
     from the replicas that survive (one query per live node), or a
     later write grant would skip invalidating their read tokens.
     Nodes that are down re-register themselves when they recover. *)
  set_copyset t r
    (List.fold_left
       (fun acc n ->
         if Ids.Node.equal n node || Net.is_down t.net n then acc
         else begin
           Net.record_rpc t.net ~src:node ~dst:n ~kind:Net.Token_request ();
           Ids.Node_set.add n acc
         end)
       Ids.Node_set.empty (replica_nodes t uid));
  let prev = Option.value old_owner ~default:Ids.Node.invalid in
  if logging t then ev t (Trace_event.Owner_adopted { node; uid; prev })

let exiting_ownerptrs t ~node ~bunch =
  let s = store t node in
  let d = directory t node in
  List.filter_map
    (fun (_, obj) ->
      match Directory.find d obj.Heap_obj.uid with
      | Some r when not r.Directory.is_owner ->
          Some (obj.Heap_obj.uid, r.Directory.prob_owner)
      | Some _ | None -> None)
    (Store.objects_of_bunch s bunch)
  |> List.sort_uniq compare
