(** Vector-clock happens-before engine over the typed event trace.

    This is the foundation the certifier ({!Races}) derives everything
    from: data races, the per-object read mapping, and the GC
    non-interference erasure theorem are all statements about the
    partial order this module computes.

    {2 Clock model}

    Every node [n] carries an {e application} vector clock [C(n)] with
    one component per node.  Component [C(n).(m)] counts the
    App-classified events of node [m] that happen-before node [n]'s
    latest event — GC-classified events are {e not counted} in any
    component, which is what makes the erasure theorem checkable: if the
    collector really is a passive observer, deleting its events cannot
    move any application clock.

    Each event is classified [App] or [Gc] (see below) and stamped:

    - an App event at node [n] first joins its incoming edges into
      [C(n)], then increments [C(n).(n)], and its timestamp is the
      resulting [C(n)];
    - a Gc event at node [n] joins [C(n)] and its incoming GC-side edges
      into a parallel clock [G(n)] and takes that as its timestamp.  It
      never writes back into any [C] — the collector may {e observe}
      application progress but contributes no ordering to it.

    {2 Edge catalog}

    - {b Program order}: events at the same node are totally ordered (the
      trace is recorded in execution order).  This subsumes the
      crash→restart edge: a node's post-restart events follow its crash.
    - {b Message edges}: [Msg_sent src→dst (kind, seq)] happens-before
      the matching [Msg_delivered] (matched on [(src, dst, seq)] — per
      the FIFO discipline sequence numbers are unique per stream —
      reliable or not: a delivered payload carries causality either
      way).  Application-kind messages edge [C(src) → C(dst)];
      GC-kind messages ([scion_message], [stub_table],
      [reclaim_request], [reclaim_reply], [refcount_op]) edge only
      [G(src) → G(dst)].
    - {b RPC edges}: a synchronous [Rpc] joins caller and callee clocks
      in {e both} directions (the caller resumes only after the handler
      returned).
    - {b Token grant edges}: [Grant_sent {granter; requester; uid}]
      snapshots [C(granter)]; the requester's matching [Acquire_done]
      joins the snapshot — everything the granter did (including the
      previous holder's writes it learned via the grant chain)
      happens-before everything the new holder does under the token.
    - {b Invalidation edges}: each [Invalidate {src; dst; uid}] joins the
      invalidated reader's clock [C(dst)] into a per-object accumulator
      (and joins src↔dst — the invalidation is a synchronous exchange);
      a {e write} [Acquire_done] for the object then joins and clears the
      accumulator.  This covers readers invalidated transitively through
      the copy-set tree, whom the granter's own clock may not dominate.

    {2 Classification}

    [Acquire_*] and [*_obs] events carry their actor.  [Gc_begin],
    [Gc_end] and [Tables_processed] are GC.  Messages and RPCs classify
    by kind.  [Grant_sent], [Hook_ssp] and [Invalidate] inherit the
    actor of the pending acquire for their object (acquires execute
    synchronously, so at most one is in flight per object); [Release]
    is GC iff the matching token was acquired by the GC.  Everything
    else (crash, restart, links, recovery, disk faults) is App: those
    are environment events the application timeline owns. *)

type clock = int array
(** One component per node; missing nodes read 0. *)

val leq : clock -> clock -> bool
(** Pointwise [<=] — happens-before-or-equal for event timestamps. *)

val node_span : ((Bmx_util.Trace_event.t -> unit) -> unit) -> int
(** [node_span iter]: [1 +] the largest node id mentioned by any event
    [iter] yields (at least 1), i.e. the clock width needed to replay
    them. *)

type t
(** An engine part-way through a trace: every node's two clocks and the
    edge snapshots not yet absorbed. *)

val create : nodes:int -> t
(** A fresh engine whose clocks are [nodes] wide (at least 1; see
    {!node_span}). *)

val step : t -> Bmx_util.Trace_event.t -> Bmx_util.Trace_event.actor
(** Replay the next event of the trace and return its classification.
    O(nodes); allocates only the table entries it stores (edge
    snapshots, in-flight acquires). *)

val timestamp : t -> clock
(** The vector timestamp of the event last {!step}ped.  A {e live view}
    of the engine's state, valid until the next {!step}: compare it,
    copy it to keep it. *)
