(** Incremental reachability mirror for the workload driver's legality
    memo.

    The driver may only operate on objects a real mutator could still
    name — objects reachable from some node's roots over the
    authoritative (owner-copy) pointer graph.  Recomputing that set from
    scratch ({!Bmx.Audit.union_reachable}) is a full cluster traversal;
    doing it after every root churn or pointer relink made the driver's
    per-op cost grow with the heap.  This module keeps the reachable set
    {e exact} under incremental updates instead:

    - the driver's object population is fixed at [setup], so objects are
      dense indexes [0 .. n-1] and the pointer graph is a flat adjacency
      array ([out_degree] slots per object) plus array-encoded in-edge
      lists — no allocation on any update path;
    - {e additions} (new edge from a reachable source, new root) mark the
      newly reachable region by forward traversal — work proportional to
      what actually became reachable;
    - {e removals} (edge overwrite, last root dropped) re-derive the old
      target's status by a backward anchor search: walk in-edges through
      still-marked predecessors until a rooted {e anchor} proves the
      object still reachable, or the search exhausts a rootless backward
      closure — in which case {e every} member of that closure is
      unreachable (any rooted path into it would have surfaced as an
      anchor) and is unmarked, and the closure's out-targets are
      re-checked in cascade (they may have lost their only support).
      Work is proportional to the dying region and its frontier, not the
      heap.

    The invariant, asserted by [test/test_perf_model.ml] against the
    audit oracle: after every mutation the mark bitmap {e equals} the
    from-scratch reachable set.  All traversal scratch (queues, stamps)
    is preallocated at [create]. *)

type t

val create : n:int -> arity:int -> t
(** Mirror for [n] objects with [arity] pointer slots each.  All edges
    empty, no roots, nothing reachable. *)

val reset : t -> unit
(** Forget all edges, roots and marks (before a resync from cluster
    truth). *)

val set_edge : t -> src:int -> slot:int -> int -> unit
(** [set_edge t ~src ~slot target] records that [src]'s pointer slot
    [slot] now references [target] ([-1] = nil).  Unlinks the slot's
    previous target, marks forward from [target] if [src] is reachable,
    and re-derives the previous target's reachability. *)

val add_root : t -> int -> unit
(** One more root names the object; marks its forward closure. *)

val drop_root : t -> int -> unit
(** One root fewer; when the count hits zero the object's reachability
    is re-derived (and its dependents', in cascade). *)

val reachable : t -> int -> bool
(** O(1): is the object reachable right now? *)
