(** Deterministic message-passing network between simulated nodes.

    The paper's loosely coupled network of workstations (§2, §8) is modelled
    by point-to-point channels with the two properties the GC design
    actually relies on:

    - {b FIFO per pair} (§6.1): messages carrying reachability tables are
      sequence-numbered per (sender, receiver) stream so the scion cleaner
      can discard stale or duplicated tables;
    - {b no reliability requirement} (§6.1): the transport may drop or
      duplicate messages; fault injection reproduces this for experiment
      E10.

    Two transmission modes mirror the paper's accounting:

    - [send] enqueues a background message ("exchanged in the background",
      §4.4) to be delivered by [step]/[drain].  Background traffic is
      batched per peer: an unreliable send made while the pair's previous
      message of the same kind is still queued joins it as a {e rider}
      instead of taking a wire message of its own (see {!send});
    - [record_rpc] accounts for a synchronous request/reply pair performed
      on behalf of an application (token acquire, §2.2) that the caller
      executes inline; [record_piggyback] accounts for GC payload bytes
      riding such a message: bytes the message itself does not already
      count, and no message in any row (§4.4, §8).

    A {e wire message} is what the message rows ([net.sent.*],
    {!sent}, {!total_messages}) count; a {e payload} is what one [send]
    hands to the network and what one handler call receives.  Without
    riders the two coincide. *)

type kind =
  | Token_request  (** read/write token acquire request (§2.2) *)
  | Token_grant  (** reply granting a token, may carry GC piggyback (§5) *)
  | Invalidate  (** read-copy invalidation on write-token acquire *)
  | Object_fetch  (** demand fetch of an object's contents *)
  | Scion_message  (** creation of a remote inter-bunch scion (§3.2) *)
  | Stub_table  (** reachability tables for the scion cleaner (§4.3, §6) *)
  | Addr_update  (** explicit new-location message (non-piggyback mode, §4.4) *)
  | Reclaim_request  (** from-space reuse protocol: ask owner to copy (§4.5) *)
  | Reclaim_reply  (** reply enabling from-space reuse (§4.5) *)
  | Refcount_op  (** baseline only: Bevan-style increment/decrement *)
  | App_message  (** application-level traffic *)

val kind_to_string : kind -> string
val all_kinds : kind list

(** Wire attribution: every message kind maps to exactly one component
    ([Component.of_kind] is an exhaustive match — adding a kind without
    classifying it is a build-time error).  [Rvm] is listed but owns no
    wire traffic by construction (recoverable virtual memory is
    node-local), so reports can show its share is zero rather than
    unaccounted. *)
module Component : sig
  type t = Dsm | Gc_cleaner | Gc_bgc | Registry | Rvm | App

  val of_kind : kind -> t
  val to_string : t -> string
  val all : t list
end

type 'p envelope = {
  src : Bmx_util.Ids.Node.t;
  dst : Bmx_util.Ids.Node.t;
  kind : kind;
  seq : int;  (** per (src, dst) stream sequence number *)
  rel : int;
      (** reliable-stream index (per pair, counting only reliable
          messages); [0] for kinds outside the reliable set.
          Retransmissions reuse the original [seq] and [rel]: the
          sequence number is the message's send-time logical clock. *)
  payload : 'p;
}

type 'p t

val create : stats:Bmx_util.Stats.registry -> unit -> 'p t

val stats : 'p t -> Bmx_util.Stats.registry

val set_handler : 'p t -> ('p envelope -> unit) -> unit
(** Install the delivery handler (the cluster dispatch).  Must be set
    before the first [step]. *)

val set_evlog : 'p t -> Bmx_util.Trace_event.log -> unit
(** Share a structured event log: every message send and delivery is
    recorded (with its per-pair sequence number) so the trace linter can
    verify FIFO sequencing.  Synchronous [record_rpc] exchanges record a
    send and a delivery at once. *)

val set_metrics : 'p t -> Bmx_obs.Metrics.t -> unit
(** Attach a metrics registry.  Registers callback gauges
    [net.unacked_reliable], [net.pending] and [net.vclock] (sampled at
    snapshot time), and feeds the per-sender [net.rel.attempts]
    histogram — transmissions per acknowledged reliable message — as
    acks retire them.  Once attached, every transmission also bumps the
    per-component series [net.comp.bytes.<component>] and
    [net.comp.msgs.<component>], both cluster-wide and labelled with the
    sending node (pre-interned names — no per-message allocation). *)

val set_tick_hook : 'p t -> (int -> unit) -> unit
(** Observer of virtual-time advance, called with the new [now] on every
    {!tick} — the periodic sampler's clock source. *)

val send :
  'p t ->
  src:Bmx_util.Ids.Node.t ->
  dst:Bmx_util.Ids.Node.t ->
  kind:kind ->
  ?bytes:int ->
  ?shard:int ->
  'p ->
  unit
(** Enqueue one background payload.  Subject to fault injection: every
    copy put on the wire counts its bytes, and an unreliable copy also
    counts as a message (a duplicated send is two), while a reliable
    send counts one logical message however many copies it takes.
    [shard] labels the message with the registry shard whose routing
    decided its destination; labelled traffic feeds {!shard_components}
    and the per-shard [net.comp.*.s<k>] metric series.

    {b Riders.}  An unreliable send joins the pair's last queued message
    (its {e carrier}) when all of these hold: the carrier has the same
    kind; it is still queued (not delivered, stepped or purged); it was
    sent at the current virtual instant ({!now} has not advanced); the
    dup die did not copy it; and nothing was stamped on the pair since
    (no send, reliable send or {!record_rpc}).  Otherwise the send takes
    a wire message of its own.  A rider keeps its own sequence number
    and [Msg_sent] event, its own handler call and [Msg_delivered] event
    (right after the carrier's, in send order, as its own envelope), and
    its bytes, which it adds the way {!record_piggyback} does: to every
    byte row and the shard byte row, no message to any row.  It counts
    in [net.coalesced.<kind>] and [net.coalesced.total] instead.  It
    rolls no fault dice and shares the carrier's fate: a dead or cut
    destination, or a crash purge, loses it with the carrier, and each
    lost payload counts once in [net.down_dropped.*],
    [net.cut_dropped.*] or [net.crash.purged_in_flight]. *)

val record_rpc :
  'p t ->
  src:Bmx_util.Ids.Node.t ->
  dst:Bmx_util.Ids.Node.t ->
  kind:kind ->
  ?bytes:int ->
  ?shard:int ->
  unit ->
  unit
(** Account for one synchronous message executed inline by the caller.
    [shard] as in {!send}. *)

val record_piggyback :
  'p t ->
  src:Bmx_util.Ids.Node.t ->
  kind:kind ->
  bytes:int ->
  ?shard:int ->
  unit ->
  unit
(** Account for GC payload bytes piggybacked onto an existing message of
    [kind] sent by [src].  [bytes] must not already be counted in that
    message; the piggyback adds them to every byte row and no message to
    any row.  [shard] as in {!send}. *)

val step : 'p t -> bool
(** Deliver the oldest pending wire message (globally): the carrier's
    payload, then its riders'.  Returns [false] if the queue was
    empty. *)

val drain : 'p t -> int
(** Deliver until quiescent; returns the number of wire messages taken
    off the queue (riders not counted).  Messages sent by handlers
    during the drain are delivered too. *)

val pending : 'p t -> int
(** Wire messages queued; riders are not counted. *)

(** {1 Schedule exploration}

    The transport's only ordering guarantee is FIFO per (src, dst) pair
    (§6.1); the global delivery order across pairs is unconstrained.  The
    bounded schedule explorer ([Bmx_check.Explore]) enumerates those
    legal orders through these two operations. *)

val deliverable_pairs :
  'p t -> (Bmx_util.Ids.Node.t * Bmx_util.Ids.Node.t) list
(** The (src, dst) pairs with at least one pending message — the legal
    next-delivery choices.  Listed in queue order, each pair once. *)

val step_pair :
  'p t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> bool
(** Deliver the {e oldest} pending wire message of the pair, riders
    included (preserving per-pair FIFO while allowing any cross-pair
    interleaving).  Returns [false] if the pair has nothing pending. *)

val set_fault :
  'p t -> kind:kind -> drop:float -> dup:float -> rng:Bmx_util.Rng.t -> unit
(** Drop (resp. duplicate) messages of [kind] with the given probability.
    The drop die is rolled first; a kept message then rolls the dup die,
    so a message is never both dropped and duplicated.  Dropped messages
    consume a sequence number — receivers observe a gap, as over a real
    lossy transport.  Faults apply per transmission: retransmissions of
    a reliable message reroll the dice, and a rider ({!send}) rolls none,
    sharing its carrier's. *)

val clear_faults : 'p t -> unit

(** {1 Reliable delivery (opt-in per kind)}

    The paper needs no transport reliability for safety (§6.1) — but
    protocol-critical messages (scion creations, address updates) opt
    into a classic ack/retransmit layer so the cluster also stays {e
    live} under sustained loss: per-pair cumulative acknowledgements,
    retransmission on a virtual-clock timeout with exponential backoff,
    duplicate suppression and reorder buffering at the receiver keyed by
    the existing per-pair sequence numbers.  The handler observes each
    reliable message exactly once, in per-pair send order, whatever the
    fault injection does to individual transmissions. *)

val set_reliable :
  'p t ->
  ?rto:int ->
  ?rto_max:int ->
  ?max_attempts:int ->
  ?suspect_after:int ->
  kind list ->
  unit
(** Replace the set of reliable kinds.  [rto] (default 4) is the initial
    retransmission timeout in virtual-clock units, doubling per attempt
    up to [rto_max] (default 64); after [max_attempts] (default 20)
    transmissions a message is abandoned (counted in
    [net.rel.abandoned]) — timeouts, never blocking.  [suspect_after]
    (default 6) is the failure-detector threshold: that many fruitless
    transmissions against a severed path (cut link or down node) flip
    the pair into the {e suspect} state, see {!is_suspect}.  The
    abandonment cap applies only to sustained loss on a live path —
    messages against a severed path are never abandoned, whatever the
    relative magnitudes of [max_attempts] and [suspect_after]. *)

val set_backoff :
  'p t ->
  ?rto:int ->
  ?rto_max:int ->
  ?max_attempts:int ->
  ?suspect_after:int ->
  unit ->
  unit
(** Adjust the retransmission-timer knobs without touching the reliable
    kind set.  Omitted parameters keep their current values. *)

val backoff_ceiling : 'p t -> int
(** The current [rto_max] — the hard cap on the retransmission backoff
    interval and the suspect-probe period. *)

val suspect_after : 'p t -> int

val now : 'p t -> int
(** The virtual clock (advanced only by {!tick}). *)

val tick : ?dt:int -> 'p t -> int
(** Advance the virtual clock by [dt] (default 1) and retransmit every
    reliable message whose timeout expired; returns how many were
    retransmitted.  Retransmissions reroll the fault dice. *)

val settle : ?max_rounds:int -> 'p t -> int
(** Drain, then repeatedly jump the clock to the next retransmission
    deadline and drain again until no unacknowledged messages remain (or
    every laggard has been abandoned).  Returns total deliveries.  With
    faults cleared this reliably flushes the reliable streams. *)

val unacked_count : 'p t -> int
(** Reliable messages sent but not yet acknowledged (or abandoned). *)

(** {1 Node crash/restart}

    A down node's in-flight messages, retransmission buffer and reorder
    buffers are lost (volatile); messages arriving at it evaporate.
    Per-pair sequence counters and delivery cursors are stable state —
    journalled with the RVM image — so streams resume gap-free after a
    restart and retransmitted-but-already-delivered messages are still
    recognized as duplicates (at-most-once across crashes). *)

val set_down : 'p t -> Bmx_util.Ids.Node.t -> unit
val set_up : 'p t -> Bmx_util.Ids.Node.t -> unit
val is_down : 'p t -> Bmx_util.Ids.Node.t -> bool
val down_nodes : 'p t -> Bmx_util.Ids.Node.t list

(** {1 Network partitions}

    A partition {e cuts} a set of directed links.  Transmissions over a
    cut link blackhole deterministically (counted in
    [net.cut_dropped.*]), unlike the probabilistic {!set_fault} dice.
    Cutting only one direction models an asymmetric partition: payloads
    still arrive but the implicit acknowledgement of a reliable delivery
    blackholes on the cut reverse link ([net.rel.ack_blackholed]), so
    the sender keeps retransmitting until heal.

    Reliable messages to a cut destination are {e never} abandoned.
    After [suspect_after] fruitless transmissions against a severed path
    the sender's failure detector marks the pair {e suspect}
    ([net.suspect_transitions], {!Bmx_util.Trace_event.Suspect}): only
    the oldest unacknowledged message is re-sent, once per [rto_max], as
    a probe.  The first acknowledgement after heal clears the suspicion
    and re-arms the backlog at the base timeout, so healing floods
    neither the virtual clock nor the queue.  [record_rpc] over a cut
    link (either direction — an RPC is a round trip) raises [Failure]
    so callers fail cleanly instead of silently half-running. *)

val cut_link :
  'p t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> unit

val heal_link :
  'p t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> unit

val is_cut : 'p t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> bool

val cut_pairs : 'p t -> (Bmx_util.Ids.Node.t * Bmx_util.Ids.Node.t) list
(** Currently cut directed links, sorted. *)

val partition : 'p t -> groups:Bmx_util.Ids.Node.t list list -> unit
(** Cut every directed link between nodes of different groups — a
    symmetric multi-way partition.  Links within a group are untouched. *)

val heal_all_links : 'p t -> unit

val reachable : 'p t -> Bmx_util.Ids.Node.t -> Bmx_util.Ids.Node.t -> bool
(** Both nodes are up and the link between them is uncut in both
    directions — a synchronous round trip can complete. *)

val is_suspect :
  'p t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> bool

val current_seq :
  'p t -> src:Bmx_util.Ids.Node.t -> dst:Bmx_util.Ids.Node.t -> int
(** The last sequence number stamped on the (src, dst) stream (0 if no
    message was ever sent).  Receivers use it as a logical clock: state
    registered during a synchronous exchange is newer than any message of
    the same stream sent before it. *)

val component_bytes : 'p t -> Component.t -> int
(** Total wire bytes attributed to a component so far (payload plus
    piggyback, every transmitted copy). *)

val shard_components : 'p t -> (int * (Component.t * int) list) list
(** Per-registry-shard wire bytes by component, for sends that carried a
    shard label (ascending shard id, zero rows omitted).  Shard labels
    count logical sends: retransmissions are a transport artifact, not a
    routing decision, so they appear in [component_bytes] but not
    here. *)

val shard_component_msgs : 'p t -> (int * (Component.t * int) list) list
(** Like {!shard_components}, counting logical messages instead of
    bytes.  A shard-labelled piggyback adds to {!shard_components} only. *)

type scaling_point = {
  sp_nodes : int;
  sp_bytes : (Component.t * int) list;
  sp_shards : (int * (Component.t * int) list) list;
      (** per-shard attribution at this point ({!shard_components});
          empty when nothing was shard-labelled *)
}

val scaling_point : 'p t -> nodes:int -> scaling_point
(** Snapshot this network's per-component byte totals (flat and
    per-shard) as one sweep point. *)

type scaling_row = {
  sr_component : Component.t;
  sr_shard : int option;
      (** [None] for the component's cluster-wide row; [Some s] for the
          hottest-shard row, where [s] carried the most bytes of this
          component at the widest point *)
  sr_first_per_node : float;  (** bytes/node at the smallest sweep point *)
  sr_last_per_node : float;  (** bytes/node at the largest sweep point *)
  sr_growth : float;  (** last-per-node / first-per-node *)
  sr_ok : bool;
  sr_note : string;
}

val scaling_check :
  ?floor:int -> ?bound:float -> scaling_point list -> scaling_row list * bool
(** Assert the shard-scaling property over a sweep of ≥ 3 node counts:
    gc-cleaner traffic must grow with sharing (its total is O(sharing),
    exempt from the per-node bound), while every other component's
    per-node traffic must not grow by more than [bound] (default 1.5×)
    from the smallest to the largest point — i.e. no component is
    silently superlinear in N.  Components whose total stays under
    [floor] bytes (default 1024) are skipped.  When the sweep carries
    per-shard attribution at both ends, each component's single hottest
    shard is held to the same per-node bound — a flat total must not
    hide one shard absorbing all the growth.  Raises [Invalid_argument]
    on fewer than 3 points or a degenerate sweep. *)

val sent : 'p t -> kind -> int
(** Total wire messages of [kind] accounted so far (sent + rpc, not
    drops, not riders). *)

val coalesced : 'p t -> kind -> int
(** Payloads of [kind] that rode another message ([net.coalesced.<kind>]);
    [sent + coalesced] is the payload count. *)

val total_messages : 'p t -> int
val total_coalesced : 'p t -> int
val total_bytes : 'p t -> int
