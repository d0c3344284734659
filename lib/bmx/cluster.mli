(** The BMX platform facade: a simulated cluster of nodes sharing a
    persistent, weakly consistent distributed memory with copying garbage
    collection.

    This is the API a BMX application links against (the BMX-client
    library of §8).  It wires together the substrates: the network
    simulator, the single-address-space segment registry, the
    entry-consistency protocol, and the collector — with the write barrier
    on every pointer store and the §5 invariants installed. *)

type t

val create :
  ?nodes:int ->
  ?shards:int ->
  ?mode:Bmx_dsm.Protocol.mode ->
  ?update_policy:Bmx_dsm.Protocol.update_policy ->
  ?seed:int ->
  ?trace_events:bool ->
  unit ->
  t
(** A cluster of [nodes] (default 3) with ids [0 .. nodes-1].  [shards]
    (default 1) partitions the segment registry by address range
    ({!Bmx_memory.Registry}); shard [s] starts owned by node
    [s mod nodes], so with [shards = nodes] each bunch's home shard is
    its home node.  [mode] selects distributed (default) or centralized
    copy-sets.  [seed] is ignored: the cluster itself draws no random
    numbers.
    [trace_events] (default [false]) turns on the typed event log from
    the first operation so the whole run can be replayed through the
    trace linter.  Scion messages and address updates, the background
    messages that mutate remote protocol state, travel with
    acknowledgement + retransmission; stub tables deliberately do not,
    since §6.1's rebroadcast plus the cleaner's per-(sender, bunch)
    freshness check tolerate their loss. *)

val proto : t -> Bmx_dsm.Protocol.t
val gc : t -> Bmx_gc.Gc_state.t
val net : t -> (int -> unit) Bmx_netsim.Net.t
val stats : t -> Bmx_util.Stats.registry

val metrics : t -> Bmx_obs.Metrics.t
(** The typed metrics registry every subsystem is wired to at creation:
    network occupancy gauges ({!Bmx_netsim.Net.set_metrics}), DSM
    copyset gauges and histogram ({!Bmx_dsm.Protocol.set_metrics}) and
    per-node GC occupancy gauges ({!Bmx_gc.Gc_state.set_metrics}). *)

val enable_timeseries : ?reservoir:int -> t -> Bmx_obs.Timeseries.t
(** Start continuous sampling: a {!Bmx_obs.Timeseries} attached to the
    cluster metrics registry and event log, with window closes driven by
    the network's virtual clock ({!Bmx_netsim.Net.set_tick_hook}).
    Idempotent — returns the existing series on later calls. *)

val timeseries : t -> Bmx_obs.Timeseries.t option

val enable_flight : t -> Bmx_obs.Flight.t
(** Attach a {!Bmx_obs.Flight} recorder to the event log (with the
    cluster metrics registry for dump snapshots).  Idempotent. *)

val evlog : t -> Bmx_util.Trace_event.log
(** The typed event log shared by the protocol, the network and the
    collector — the input to the trace linter ([Bmx_check.Lint]). *)

val set_event_trace : t -> bool -> unit
(** Enable/disable recording into {!evlog}. *)

val nodes : t -> Bmx_util.Ids.Node.t list

val add_node : t -> Bmx_util.Ids.Node.t
(** Grow the cluster by one node; returns its id. *)

(** {1 Crash and restart (§8 fault tolerance)} *)

val crash_node : t -> node:Bmx_util.Ids.Node.t -> unit
(** Fail-stop crash: the node loses all volatile state — in-flight
    messages to and from it, its unacknowledged send buffers, every
    cached copy and token, its directory, roots and SSP tables.  Other
    nodes keep their (now possibly stale) records about it; reliable
    sends addressed to it keep being retried until it returns or the
    attempt cap abandons them.  Records a [Crash] trace event.
    Raises [Failure] if the node is already down. *)

val restart_node : t -> node:Bmx_util.Ids.Node.t -> unit
(** Bring a crashed node back with {e empty} volatile state and record a
    [Restart] trace event.  Recovering its durable contents is the
    caller's job: replay RVM with {!Bmx.Persist.recover_node} (or
    [Rvm.recover] + [Persist.restore] per bunch) after this returns.
    Raises [Invalid_argument] if the node is not down. *)

val node_alive : t -> Bmx_util.Ids.Node.t -> bool
val live_nodes : t -> Bmx_util.Ids.Node.t list

val crash_shard : t -> shard:int -> unit
(** Take a registry shard's allocation service down (the BMX-server
    daemon dying, as opposed to {!crash_node}'s loss of a node's DSM/GC
    volatile state — a crashed {e node}'s shards keep carving through a
    fail-stop regent, see {!create}).  While the shard is down,
    allocations routed to it raise [Failure]; lookups keep answering
    from the immutable-entry read cache.  Recovery is
    [Bmx.Persist.recover_shard] (journal replay + verify) followed by
    {!adopt_shard}, or {!adopt_shard} alone when the index is intact.
    Raises [Failure] if already down, [Invalid_argument] on an unknown
    shard. *)

val adopt_shard : t -> shard:int -> node:Bmx_util.Ids.Node.t -> unit
(** Re-seat a registry shard's ownership at [node] (typically after its
    owner crashed) and bring its allocation service back up.  Refuses
    with [Failure] — the PR 5 split-brain rule applied to shards —
    while the recorded owner is alive but unreachable from [node]:
    healing must never reveal two nodes carving the same address
    region.  Records a [Shard_adopted] trace event.  Replaying the
    shard's durable journal into the index is {!Bmx.Persist.recover_shard}'s
    job; adoption only moves ownership. *)

(** {1 Network partitions}

    Thin wrappers over the transport's link-cut model
    ({!Bmx_netsim.Net.cut_link}): a cut link blackholes traffic without
    either endpoint being down.  Both sides keep operating — GC keeps
    collecting locally-owned objects, the cleaner quarantines tables
    from unreachable senders — while cross-partition token operations
    and ownership adoption are refused (split-brain safety) until the
    partition heals.  Cuts and heals record [Link_cut] / [Link_heal]
    trace events. *)

val cut_link : t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> unit
(** Sever the directed link [src → dst] only: cutting one direction
    gives an asymmetric partition (payloads arrive, acknowledgements
    die). *)

val heal_link : t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> unit

val partition : t -> groups:Bmx_util.Ids.Node.t list list -> unit
(** Cut every directed link between nodes of different groups — a clean
    symmetric split.  Nodes absent from every group keep all their
    links.  Raises [Invalid_argument] on an unknown node. *)

val heal_all_links : t -> unit

val reachable : t -> Bmx_util.Ids.Node.t -> Bmx_util.Ids.Node.t -> bool
(** Both endpoints up and neither direction cut. *)

(** {1 Bunches} *)

val new_bunch : t -> home:Bmx_util.Ids.Node.t -> Bmx_util.Ids.Bunch.t
(** Create a bunch whose home (rendezvous) node is [home]; an initial
    segment is mapped there. *)

(** {1 Mutator operations}

    These are the operations the instrumented application performs (§8):
    allocation, token acquire/release, field access through the write
    barrier, and forwarding-aware pointer comparison. *)

val alloc :
  t ->
  node:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  Bmx_memory.Value.t array ->
  Bmx_util.Addr.t
(** Allocate and initialize an object.  Initializing stores run the write
    barrier, so inter-bunch references present at birth get their SSPs. *)

val acquire_read : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Addr.t
val acquire_write : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Addr.t
val release : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit

val demand_fetch : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Addr.t
(** Fault-driven access without tokens (§5): install an inconsistent
    copy supplied by the owner, with location updates piggybacked on the
    reply.  Read it with [read ~weak]. *)

val read : t -> ?weak:bool -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> int
  -> Bmx_memory.Value.t

val write :
  t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> int -> Bmx_memory.Value.t
  -> unit
(** Field store through the write barrier (§3.2). *)

val ptr_eq : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Addr.t -> bool

(** {1 Roots (persistence by reachability)} *)

val add_root : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit

val remove_root : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit
(** Remove one root naming the same object as the address (local
    collections rewrite stack roots through forwarders, so the caller's
    remembered address may be an older name for the rooted object). *)

val remove_root_checked :
  t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> bool
(** Like {!remove_root}, but reports whether a root was actually found
    and removed — callers mirroring the root set (the workload driver's
    incremental legality memo) must not assume a silent no-op
    succeeded. *)

val roots : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t list

(** {1 Garbage collection} *)

val bgc :
  ?economical:bool -> t -> node:Bmx_util.Ids.Node.t
  -> bunch:Bmx_util.Ids.Bunch.t -> Bmx_gc.Collect.report
(** One local collection.  Without [?economical] (default false) every
    owned live object of the bunch is evacuated.  [~economical:true]
    skips a pair that is clean since its last collection and evacuates
    only when the trace found garbage and the node's own allocation
    segments of the bunch are under 3/4 live; otherwise it sweeps the
    dead cells in place, keeping the footprint within 4/3 of the live
    bytes plus one segment (see {!Bmx_gc.Bgc.run}).  [gc_round] and
    {!collect_until_quiescent} always collect economically. *)

val ggc : t -> node:Bmx_util.Ids.Node.t -> Bmx_gc.Collect.report

val reclaim_from_space :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> Bmx_gc.Reclaim.report

val drain : t -> int
(** Deliver all pending background messages (stub tables, scion messages,
    address updates); returns how many were delivered. *)

val tick : ?dt:int -> t -> int
(** Advance the network's virtual clock (see {!Bmx_netsim.Net.tick});
    returns how many reliable messages were retransmitted. *)

val settle : ?max_rounds:int -> t -> int
(** Drain and keep advancing the clock until every reliable message is
    acknowledged or abandoned (see {!Bmx_netsim.Net.settle}); the
    fault-injection harness calls this after clearing faults to let
    retransmission repair the losses.  Returns messages delivered. *)

val gc_round : t -> int
(** One cluster-wide round: BGC on every replica of every bunch, then
    drain.  Returns the number of objects reclaimed in the round.
    Distributed acyclic garbage needs at most one round per ownerPtr hop;
    cross-replica chains converge in a few rounds (§6.2). *)

val collect_until_quiescent : t -> ?max_rounds:int -> unit -> int
(** Iterate {!gc_round} until (cluster size + 1) consecutive rounds
    reclaim nothing — zero-reclaim rounds can still shorten cleaner
    chains by one hop each — or until [max_rounds] (default scales with
    the cluster).  Returns total objects reclaimed. *)

(** {1 Introspection} *)

val uid_at : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Ids.Uid.t
(** Stable identity behind a (possibly forwarded) address. *)

val cached_at : t -> node:Bmx_util.Ids.Node.t -> uid:Bmx_util.Ids.Uid.t -> bool
val owner_of : t -> uid:Bmx_util.Ids.Uid.t -> Bmx_util.Ids.Node.t option
