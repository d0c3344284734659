open Bmx_util
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Registry = Bmx_memory.Registry
module Store = Bmx_memory.Store
module Value = Bmx_memory.Value
module Gc_state = Bmx_gc.Gc_state
module Barrier = Bmx_gc.Barrier
module Invariants = Bmx_gc.Invariants
module Bgc = Bmx_gc.Bgc
module Ggc = Bmx_gc.Ggc
module Reclaim = Bmx_gc.Reclaim

type t = {
  proto : Protocol.t;
  gc : Gc_state.t;
  net : (int -> unit) Net.t;
  stats : Stats.registry;
  obs : Bmx_obs.Metrics.t;
  mutable next_node : int;
  mutable next_bunch : int;
  mutable timeseries : Bmx_obs.Timeseries.t option;
  mutable flight : Bmx_obs.Flight.t option;
}

let create ?(nodes = 3) ?(shards = 1) ?mode ?update_policy ?seed:_
    ?(trace_events = false) () =
  let stats = Stats.create_registry () in
  let net = Net.create ~stats () in
  (* Reliable: the two kinds that mutate remote protocol state through
     one-way background messages.  Stub tables stay unreliable on
     purpose — §6.1's whole point is that rebroadcast plus the cleaner's
     seq-freshness check tolerate their loss.  RPC-shaped exchanges
     (token, fetch, reclaim) execute synchronously in the simulator and
     need no retransmission. *)
  Net.set_reliable net [ Net.Scion_message; Net.Addr_update ];
  let registry = Registry.create ~shards () in
  let proto = Protocol.create ~net ~registry ?mode ?update_policy () in
  Net.set_evlog net (Protocol.evlog proto);
  Trace_event.set_enabled (Protocol.evlog proto) trace_events;
  (* Event timestamps are anchored to the network's virtual clock so span
     durations line up with retransmission timers. *)
  Trace_event.set_clock (Protocol.evlog proto) (fun () -> Net.now net);
  let gc = Gc_state.create ~proto in
  Invariants.install gc;
  let obs = Bmx_obs.Metrics.create () in
  Net.set_metrics net obs;
  Protocol.set_metrics proto obs;
  Gc_state.set_metrics gc obs;
  (* Registry occupancy rides the maintained O(1) gauge — sampling must
     never fold over segments (Perfcount.s_obs_sample_work stays flat as
     ranges are carved; test_registry asserts it). *)
  Bmx_obs.Metrics.gauge_fn obs "registry.bytes" (fun () ->
      Perfcount.counters.Perfcount.s_obs_sample_work <-
        Perfcount.counters.Perfcount.s_obs_sample_work + 1;
      Registry.total_bytes registry);
  Net.set_handler net (fun env -> env.Net.payload env.Net.seq);
  let t =
    {
      proto;
      gc;
      net;
      stats;
      obs;
      next_node = 0;
      next_bunch = 0;
      timeseries = None;
      flight = None;
    }
  in
  for _ = 1 to nodes do
    Protocol.add_node proto t.next_node;
    t.next_node <- t.next_node + 1
  done;
  (* Deterministic initial shard placement: shard s is owned by node
     s mod nodes, so with shards = nodes every bunch's home shard sits at
     the bunch's home node and level-1 location consults stay local. *)
  let record_ev e =
    let log = Protocol.evlog proto in
    if Trace_event.enabled log then Trace_event.record log e
  in
  for s = 0 to shards - 1 do
    if nodes > 0 then Registry.set_shard_owner registry s (s mod nodes);
    record_ev
      (Trace_event.Shard_adopted { shard = s; node = Registry.shard_owner registry s })
  done;
  (* Every carve is traced as applied by the shard's owner — the
     Shard_ownership lint replays these against the adoption history.
     Under a fail-stop owner crash the lowest-id live node carves as
     regent (safe because fail-stop is globally agreed — unlike a
     partition, where adoption rules apply instead); the lint tolerates
     a non-owner carve only while the recorded owner is down. *)
  Registry.add_on_alloc registry (fun ~shard _entry ->
      let owner = Registry.shard_owner registry shard in
      let node =
        if Net.is_down net owner then
          match
            List.find_opt (fun n -> not (Net.is_down net n)) (Protocol.nodes proto)
          with
          | Some n -> n
          | None -> owner
        else owner
      in
      record_ev (Trace_event.Shard_alloc { shard; node }));
  t

let enable_timeseries ?reservoir t =
  match t.timeseries with
  | Some ts -> ts
  | None ->
      let ts = Bmx_obs.Timeseries.create ?reservoir ~metrics:t.obs () in
      Bmx_obs.Timeseries.attach ts (Protocol.evlog t.proto);
      (* The event tap only sees recorded events; the tick hook keeps
         windows closing on virtual time even through quiet stretches
         (or with event recording off). *)
      Net.set_tick_hook t.net (fun now ->
          Bmx_obs.Timeseries.note ts (now * Trace_event.quantum));
      t.timeseries <- Some ts;
      ts

let timeseries t = t.timeseries

let enable_flight t =
  match t.flight with
  | Some f -> f
  | None ->
      let f = Bmx_obs.Flight.create ~metrics:t.obs () in
      Bmx_obs.Flight.attach f (Protocol.evlog t.proto);
      t.flight <- Some f;
      f

let proto t = t.proto
let gc t = t.gc
let net t = t.net
let stats t = t.stats
let metrics t = t.obs
let evlog t = Protocol.evlog t.proto
let set_event_trace t b = Trace_event.set_enabled (Protocol.evlog t.proto) b
let nodes t = Protocol.nodes t.proto

let add_node t =
  let n = t.next_node in
  t.next_node <- t.next_node + 1;
  Protocol.add_node t.proto n;
  n

(** {2 Crash and restart} *)

let node_alive t node = not (Net.is_down t.net node)
let live_nodes t = List.filter (node_alive t) (Protocol.nodes t.proto)

let check_alive t node op =
  if Net.is_down t.net node then
    failwith (Printf.sprintf "Cluster.%s: node %d is crashed" op node)

let record_ev t e =
  let log = Protocol.evlog t.proto in
  if Trace_event.enabled log then Trace_event.record log e

let crash_node t ~node =
  check_alive t node "crash_node";
  if not (List.mem node (Protocol.nodes t.proto)) then
    invalid_arg "Cluster.crash_node: unknown node";
  (* Record the crash first: everything the purges below discard happened
     strictly before it in trace order. *)
  record_ev t (Trace_event.Crash { node });
  (* Volatile state dies in three layers: in-flight and unacknowledged
     messages (network), cached copies / tokens / directory (DSM), and
     roots / SSP tables / cleaner clocks (GC). *)
  Net.set_down t.net node;
  Protocol.crash_node t.proto node;
  Gc_state.crash_node t.gc ~node

let restart_node t ~node =
  if not (Net.is_down t.net node) then
    invalid_arg "Cluster.restart_node: node is not down";
  Net.set_up t.net node;
  record_ev t (Trace_event.Restart { node })

(* A node crash (above) loses DSM/GC volatile state but not the registry
   service: under fail-stop a regent node carves on the owner's behalf
   (see the on-alloc trace hook in [create]).  The interesting registry
   failure is the shard service itself — its cursor lives in an RVM
   journal, so taking it down forces a replay-and-verify recovery
   ([Persist.recover_shard]) and possibly a split-brain-checked adoption
   ({!adopt_shard}).  While a shard is down its allocations fail
   ([Failure], which the workload driver degrades on); lookups keep
   answering out of the immutable-entry read cache. *)
let crash_shard t ~shard =
  let reg = Protocol.registry t.proto in
  if shard < 0 || shard >= Registry.num_shards reg then
    invalid_arg "Cluster.crash_shard: unknown shard";
  if not (Registry.shard_up reg shard) then
    failwith (Printf.sprintf "Cluster.crash_shard: shard %d already down" shard);
  Registry.crash_shard reg shard

(* Move a (typically crashed) shard's ownership to a survivor, with the
   same split-brain discipline as object-ownership adoption (PR 5): while
   the recorded owner is alive but unreachable, adoption is refused —
   healing must never reveal two nodes carving the same region. *)
let adopt_shard t ~shard ~node =
  check_alive t node "adopt_shard";
  let reg = Protocol.registry t.proto in
  if shard < 0 || shard >= Registry.num_shards reg then
    invalid_arg "Cluster.adopt_shard: unknown shard";
  let prev = Registry.shard_owner reg shard in
  if
    (not (Ids.Node.equal prev node))
    && (not (Net.is_down t.net prev))
    && not (Net.reachable t.net prev node)
  then
    failwith
      (Printf.sprintf
         "Cluster.adopt_shard: shard %d's recorded owner N%d is alive but \
          unreachable — refusing split-brain adoption"
         shard prev);
  Registry.set_shard_owner reg shard node;
  Registry.revive_shard reg shard;
  record_ev t (Trace_event.Shard_adopted { shard; node })

(** {2 Network partitions} *)

let cut_link t ~src ~dst = Net.cut_link t.net ~src ~dst
let heal_link t ~src ~dst = Net.heal_link t.net ~src ~dst

let partition t ~groups =
  List.iter
    (List.iter (fun n ->
         if not (List.mem n (Protocol.nodes t.proto)) then
           invalid_arg "Cluster.partition: unknown node"))
    groups;
  Net.partition t.net ~groups

let heal_all_links t = Net.heal_all_links t.net
let reachable t a b = Net.reachable t.net a b

let new_bunch t ~home =
  check_alive t home "new_bunch";
  let b = t.next_bunch in
  t.next_bunch <- t.next_bunch + 1;
  Protocol.declare_bunch t.proto ~bunch:b ~home;
  ignore (Store.fresh_segment (Protocol.store t.proto home) ~bunch:b ());
  b

let alloc t ~node ~bunch fields =
  check_alive t node "alloc";
  (* Allocate with blank fields, then initialize through the barrier so
     inter-bunch references present at birth create their SSPs (§3.2). *)
  let blank = Array.map (fun _ -> Value.Data 0) fields in
  let addr = Protocol.alloc t.proto ~node ~bunch ~fields:blank in
  Array.iteri (fun i v -> Barrier.write_field t.gc ~node addr i v) fields;
  addr

let acquire_read t ~node addr =
  check_alive t node "acquire_read";
  Protocol.acquire t.proto ~node addr `Read

let acquire_write t ~node addr =
  check_alive t node "acquire_write";
  Protocol.acquire t.proto ~node addr `Write

let release t ~node addr =
  check_alive t node "release";
  Protocol.release t.proto ~node addr

let demand_fetch t ~node addr =
  check_alive t node "demand_fetch";
  Protocol.demand_fetch t.proto ~node addr

let read t ?weak ~node addr i =
  check_alive t node "read";
  Protocol.read_field t.proto ?weak ~node addr i

let write t ~node addr i v =
  check_alive t node "write";
  Barrier.write_field t.gc ~node addr i v

let ptr_eq t ~node a b = Protocol.ptr_eq t.proto ~node a b

let add_root t ~node addr =
  check_alive t node "add_root";
  Gc_state.add_root t.gc ~node addr

let remove_root_checked t ~node addr =
  (* The collector rewrites stack roots through forwarders at each local
     collection (§4.4), so the caller's remembered address may be an
     older name for the same object: match by identity, exact address
     first. *)
  Gc_state.remove_root t.gc ~node addr
  ||
  match Protocol.uid_of_addr t.proto addr with
  | None -> false
  | Some uid -> (
      let same_object r = Protocol.uid_of_addr t.proto r = Some uid in
      match List.find_opt same_object (Gc_state.roots t.gc ~node) with
      | Some r -> Gc_state.remove_root t.gc ~node r
      | None -> false)

let remove_root t ~node addr = ignore (remove_root_checked t ~node addr)
let roots t ~node = Gc_state.roots t.gc ~node

let bgc ?economical t ~node ~bunch =
  check_alive t node "bgc";
  Bgc.run ?economical t.gc ~node ~bunch

let ggc t ~node =
  check_alive t node "ggc";
  Ggc.run t.gc ~node ()

let reclaim_from_space t ~node ~bunch =
  check_alive t node "reclaim_from_space";
  Reclaim.run t.gc ~node ~bunch

let drain t = Net.drain t.net
let tick ?dt t = Net.tick ?dt t.net
let settle ?max_rounds t = Net.settle ?max_rounds t.net

let gc_round t =
  let reclaimed = ref 0 in
  List.iter
    (fun bunch ->
      (* Every node that caches the bunch OR holds GC tables for it runs
         its local BGC: a node can hold scions for a bunch it has no
         copies of, and those tables must keep being advertised. *)
      let nodes =
        List.filter
          (fun node ->
            (* A crashed node never participates: the round skips it and
               moves on — degrade, don't block (§8). *)
            node_alive t node
            &&
            (Protocol.store t.proto node |> fun s ->
            Bmx_memory.Store.has_objects_of_bunch s bunch
            || Bmx_gc.Gc_state.holds_ssps t.gc ~node ~bunch
            (* Peers that once received this node's tables keep getting
               rebroadcasts: that is the §6.1 retransmission that repairs
               losses without acknowledgements. *)
            ||
            match Bmx_gc.Gc_state.find_broadcast_state t.gc ~node ~bunch with
            | bs -> bs.Bmx_gc.Gc_state.bs_dests <> []
            | exception Not_found -> false))
          (Protocol.nodes t.proto)
      in
      List.iter
        (fun node ->
          (* Economical: clean pairs are skipped and garbage-free traces
             do not evacuate — what makes the confirming empty rounds of
             [collect_until_quiescent] O(1) instead of O(heap) — and a
             trace that finds garbage sweeps in place unless the bunch's
             own allocation segments are under 3/4 live. *)
          let r = Bgc.run ~economical:true t.gc ~node ~bunch in
          reclaimed := !reclaimed + r.Bmx_gc.Collect.r_reclaimed)
        nodes)
    (Protocol.bunches t.proto);
  ignore (Net.drain t.net);
  !reclaimed

let collect_until_quiescent t ?max_rounds () =
  (* A zero-reclaim round can still make progress: its trailing drain may
     remove scions or entering entries that enable reclamation several
     rounds later, one cleaner hop per round.  Chains are bounded by the
     cluster size, so quiescence needs (nodes + 1) empty rounds in a
     row. *)
  let quiet_needed = List.length (Protocol.nodes t.proto) + 1 in
  let max_rounds =
    match max_rounds with Some m -> m | None -> 10 + (3 * quiet_needed)
  in
  let rec go total zeros rounds =
    if rounds = 0 || zeros >= quiet_needed then total
    else
      let n = gc_round t in
      go (total + n) (if n = 0 then zeros + 1 else 0) (rounds - 1)
  in
  go 0 0 max_rounds

let uid_at t ~node addr =
  match Store.resolve (Protocol.store t.proto node) addr with
  | Some (_, obj) -> obj.Bmx_memory.Heap_obj.uid
  | None -> (
      match Protocol.uid_of_addr t.proto addr with
      | Some uid -> uid
      | None -> failwith "Cluster.uid_at: dangling address")

let cached_at t ~node ~uid =
  Store.addr_of_uid (Protocol.store t.proto node) uid <> None

let owner_of t ~uid = Protocol.owner_of t.proto uid
