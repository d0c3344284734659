(** The entry-consistency DSM protocol (§2.2) with the GC cooperation
    points of §5.

    Tokens follow the multiple-readers / single-writer discipline: any
    number of read tokens, or one exclusive write token, per object.  A
    write token is obtained from the object's owner; a read token from any
    node already holding one.  Token location uses Li–Hudak probable-owner
    (ownerPtr) forwarding chains; copy-sets are either {e distributed}
    (§2.2: the copy-set is spread over the nodes that transitively granted
    read tokens) or {e centralized} at the owner (the prototype
    simplification of §8) — both modes are implemented.

    The three GC invariants of §5 are enforced on the acquire path:

    + a token grant completes only after the acquiring node has valid
      addresses for the object and everything it references directly —
      new locations are piggybacked on the grant reply;
    + a node receiving new-location information forwards it to the nodes
      in its local copy-set for that object;
    + a write grant completes only after the intra-bunch SSPs required by
      the ownership transfer exist — delegated to the collector through
      {!hooks}.

    The protocol itself never moves objects; it only reads forwarding
    state left in the per-node {!Bmx_memory.Store} by the collector.  In
    the other direction, the collector never calls [acquire] — that
    separation is the paper's central claim, and the [actor] parameter
    exists so tests and benchmarks can verify it (experiment E5). *)

type mode = Centralized | Distributed
type update_policy = Eager | Lazy

type actor = App | Gc

(** New-location information (§4.4): [old_addr] is where the sender last
    knew the object; [new_addr] is its current address at the owner side.
    Receivers install a forwarding header at [old_addr] and move their
    local copy, if any, to [new_addr]. *)
type location_update = {
  lu_uid : Bmx_util.Ids.Uid.t;
  old_addr : Bmx_util.Addr.t;
  new_addr : Bmx_util.Addr.t;
}

type hooks = {
  before_write_grant :
    granter:Bmx_util.Ids.Node.t ->
    requester:Bmx_util.Ids.Node.t ->
    uid:Bmx_util.Ids.Uid.t ->
    unit;
      (** Invariant 3 (§5): called at the old owner before the write grant
          message is sent; the collector creates any intra-bunch SSP the
          transfer requires (scion at granter, stub at requester). *)
}

type t

val create :
  net:(int -> unit) Bmx_netsim.Net.t ->
  registry:Bmx_memory.Registry.t ->
  ?mode:mode ->
  ?update_policy:update_policy ->
  unit ->
  t

val set_hooks : t -> hooks -> unit

val set_metrics : t -> Bmx_obs.Metrics.t -> unit
(** Attach a metrics registry.  Registers callback gauges
    [dsm.oracle.entries] (address-oracle size) and [dsm.copyset.max]
    (widest copyset across all directories), and feeds the per-granter
    histogram [dsm.copyset.size] (copyset cardinality after each read
    grant).  A grant's piggybacked location updates (§4.4) are counted
    by [Grant_sent.updates] in the event log and by
    [Perfcount.s_dsm_updates], not here. *)

val evlog : t -> Bmx_util.Trace_event.log
(** The typed event log consumed by the trace linter
    ([Bmx_check.Lint]); disabled by default.  The acquire path records
    acquisition start/completion (with the acting subsystem and whether
    the local address was valid — §5 invariant 1), grant messages with
    their piggybacked update counts, the invariant-3 hook firing,
    invalidations, location-update application and the copy-set forwards
    of invariant 2.  {!Bmx_netsim.Net.set_evlog} shares the same log
    with the transport so per-pair FIFO is checkable too. *)

val net : t -> (int -> unit) Bmx_netsim.Net.t
val stats : t -> Bmx_util.Stats.registry
val registry : t -> Bmx_memory.Registry.t
val mode : t -> mode

val add_node : t -> Bmx_util.Ids.Node.t -> unit
(** Register a node (fresh store and directory).  Raises on duplicates. *)

val nodes : t -> Bmx_util.Ids.Node.t list
val store : t -> Bmx_util.Ids.Node.t -> Bmx_memory.Store.t
val directory : t -> Bmx_util.Ids.Node.t -> Directory.t

val declare_bunch :
  t -> bunch:Bmx_util.Ids.Bunch.t -> home:Bmx_util.Ids.Node.t -> unit
(** Register a bunch and its home node ("each bunch has an associated
    owner", §2.1) — the rendezvous for locating objects a node has never
    seen. *)

val bunch_home : t -> Bmx_util.Ids.Bunch.t -> Bmx_util.Ids.Node.t
val bunches : t -> Bmx_util.Ids.Bunch.t list

(** {1 Allocation} *)

val alloc :
  t ->
  node:Bmx_util.Ids.Node.t ->
  bunch:Bmx_util.Ids.Bunch.t ->
  fields:Bmx_memory.Value.t array ->
  Bmx_util.Addr.t
(** Allocate a new object; the allocating node becomes its owner with the
    write token. *)

val register_copy_location :
  t -> uid:Bmx_util.Ids.Uid.t -> addr:Bmx_util.Addr.t -> unit
(** Collector callback: a BGC copied the object to a fresh address.
    Keeps the simulator's address oracle complete. *)

val uid_at : t -> Bmx_util.Addr.t -> Bmx_util.Ids.Uid.t
(** Simulator oracle: stable identity behind an address (any epoch).
    Allocates nothing.  @raise Not_found for an address no object ever
    had. *)

val uid_of_addr : t -> Bmx_util.Addr.t -> Bmx_util.Ids.Uid.t option
(** {!uid_at} as an option. *)

(** {1 Token operations (§2.2)} *)

val acquire :
  t ->
  ?actor:actor ->
  node:Bmx_util.Ids.Node.t ->
  Bmx_util.Addr.t ->
  [ `Read | `Write ] ->
  Bmx_util.Addr.t
(** Acquire a token for the object named by the address; blocks (in
    simulation: executes) the whole protocol exchange and returns the
    object's current local address, which may differ from the argument
    when GC moved it (invariant 1 installs the forwarding first).
    Raises [Failure] if another node currently {e holds} a conflicting
    token — the simulated applications must synchronize, as entry
    consistency requires. *)

val release : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> unit

val demand_fetch :
  t -> ?actor:actor -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Addr.t
(** Fault-driven access (§5, closing note): for DSM systems that do not
    require applications to synchronize on accesses, a node faulting on
    an object is supplied a copy — {e without} any token — and the
    supplier piggybacks all necessary location updates on the reply.
    The installed copy is inconsistent ([Invalid] state, readable only
    with [read_field ~weak]); the supplier registers the new replica in
    its entering-ownerPtr table so the collector keeps the object alive.
    Returns the object's current local address.  No-op (and no message)
    if a copy is already cached. *)

(** {1 Data access} *)

val read_field :
  t -> ?weak:bool -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> int
  -> Bmx_memory.Value.t
(** Read a field of the local copy.  Requires a read or write token unless
    [weak] (weak reads see whatever inconsistent copy is cached — the
    undefined-state reads entry consistency permits, used by the BGC's
    scanning). *)

val write_field_raw :
  t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> int -> Bmx_memory.Value.t
  -> unit
(** Write a field of the local copy; requires the write token.  {b No
    write barrier} — the collector's barrier (§3.2) wraps this; mutators
    go through [Bmx.write_field]. *)

val ptr_eq : t -> node:Bmx_util.Ids.Node.t -> Bmx_util.Addr.t -> Bmx_util.Addr.t -> bool
(** The paper's pointer-comparison operation (§4.2): equality modulo
    forwarding pointers. *)

(** {1 Location updates (§4.4, §5)} *)

val apply_location_updates :
  t -> node:Bmx_util.Ids.Node.t -> location_update list -> unit
(** Install forwarders / move local copies for the updates, then forward
    each to the local copy-set (invariant 2) as background messages. *)

val send_location_updates :
  t ->
  src:Bmx_util.Ids.Node.t ->
  dst:Bmx_util.Ids.Node.t ->
  location_update list ->
  unit
(** Explicit (non-piggybacked) address-update message, for the from-space
    reuse protocol (§4.5) and the explicit-update ablation of E6. *)

(** {1 Oracles and introspection (tests, benchmarks)} *)

val owner_of : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Ids.Node.t option
val replica_nodes : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Ids.Node.t list
(** Nodes whose store currently caches a copy of the object. *)

val bunch_replica_nodes : t -> Bmx_util.Ids.Bunch.t -> Bmx_util.Ids.Node.t list
(** Nodes currently caching at least one object of the bunch. *)

val forget_replica : t -> node:Bmx_util.Ids.Node.t -> uid:Bmx_util.Ids.Uid.t -> unit
(** Collector callback: the local replica was reclaimed; drop DSM state. *)

val set_copyset : t -> Directory.record -> Bmx_util.Ids.Node_set.t -> unit
(** Replace a directory record's copyset, keeping the histogram behind
    the O(1) [dsm.copyset.max] gauge exact.  Every copyset write goes
    through here (e.g. recovery re-registration in [Persist]); one made
    around it makes the gauge drift from the true maximum. *)

val adopt_ownership : t -> node:Bmx_util.Ids.Node.t -> uid:Bmx_util.Ids.Uid.t -> unit
(** Ownership recovery: a node still holding a live copy claims
    ownership of an object whose recorded owner no longer caches it (the
    owner's replica died while this one survived — e.g. during from-space
    reuse, §4.5, or a crash, §8).  Accounts one exchange with the old
    owner when one exists and is up.  Raises [Invalid_argument] if the
    recorded owner still has a copy, or if the adopting node has none.

    Split-brain guard: raises [Failure] when the recorded owner — or any
    surviving replica — is alive but unreachable from the adopting node
    (network partition).  A merely-unreachable owner still holds live
    token state; adopting would leave two owners after heal.  Callers
    retry once the partition heals. *)

val crash_node : t -> Bmx_util.Ids.Node.t -> unit
(** Discard the node's volatile DSM state: its store (every cached
    copy) and its directory (every token, ownerPtr, copyset and entering
    table).  The node stays a cluster member with empty state; the
    cluster-wide bunch directory survives (BMX-server state, §8), as do
    the other nodes' — now possibly stale — records about this node.
    Raises [Invalid_argument] on an unknown node. *)

val exiting_ownerptrs :
  t -> node:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t
  -> (Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t) list
(** The node's exiting ownerPtrs for objects of the bunch: locally cached,
    not locally owned, with the probable owner each points to (§2.2). *)
