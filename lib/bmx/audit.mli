(** Whole-cluster verification oracles (tests and property checks only —
    a real node could never compute these; they peek at every store).

    The central safety property of the collector is that no object a
    mutator can still legally reach is ever lost.  Reachability is
    computed from every node's roots over the {e authoritative graph}:
    the edges of each object are read from its owner's copy — the
    consistent version a token acquire delivers.  Pointers surviving only
    in stale, invalidated replicas are {e not} edges: under entry
    consistency their contents are undefined and can never be legally
    obtained again (§2.2), which is exactly why the stub-regeneration
    rule of §4.3 may drop a stub as soon as the local object no longer
    contains the reference.  The BGC scanning stale copies keeps strictly
    more alive than this bar requires — the safe direction. *)

type stable_cell = {
  sc_owned : bool;
      (** the checkpointing node owned the object, so the image is the
          authoritative contents, not a stale replica *)
  sc_targets : Bmx_util.Ids.Uid.t list;  (** its pointer fields, as uids *)
}
(** One cell of a {e down} node's checkpointed state, as the audit sees
    it.  While a node is crashed its memory is gone but its stable store
    is not: recovery will reinstate exactly this (§8), so mid-crash
    verification must read the authoritative graph through it.  An image
    checkpointed as owner outranks any surviving stale replica — without
    that, reachability would follow pointers the (crashed) authoritative
    copy severed long ago.  Build one entry per uid found on the disks of
    currently-down nodes; omit the argument when every node is up. *)

val union_reachable :
  ?stable:stable_cell Bmx_util.Ids.Uid_tbl.t -> Cluster.t
  -> Bmx_util.Ids.Uid_set.t
(** Uids reachable from every node's mutator roots over the
    authoritative graph.  [stable] supplies the checkpointed state of
    down nodes (see {!type:stable_cell}). *)

val cached_anywhere : Cluster.t -> Bmx_util.Ids.Uid_set.t
(** Uids with at least one cached copy on some node. *)

val lost_objects :
  ?stable:stable_cell Bmx_util.Ids.Uid_tbl.t -> Cluster.t
  -> Bmx_util.Ids.Uid_set.t
(** Safety violation witnesses: reachable uids with no copy anywhere —
    neither cached on a live node nor (when [stable] is given) held on a
    down node's stable store awaiting recovery.  Must always be empty. *)

val garbage_retained : Cluster.t -> Bmx_util.Ids.Uid_set.t
(** Unreachable uids still cached somewhere (waiting for collection). *)

val stale_edge_sources : Cluster.t -> Bmx_util.Ids.Uid_set.t
(** Cached uids with {e no} owner copy anywhere: the authoritative-graph
    construction had to read their edges from a stale, non-owner replica
    (or found no readable copy at all).  Reachability still uses those
    edges — the conservative direction — but such objects are reported
    here rather than silently conflated with authoritative ones, because
    no token acquire could deliver their contents any more.  Normally
    empty except transiently during ownership hand-off or from-space
    reclamation. *)

val check_safety : Cluster.t -> (unit, string) result
(** [Ok ()] when no reachable object has been lost and every locally
    reachable address still resolves at its node; [Error msg] otherwise. *)

val total_cached_copies : Cluster.t -> int
(** Sum over nodes of cached object copies (replicas counted once per
    node). *)

val check_tokens : Cluster.t -> (unit, string) result
(** Entry-consistency token discipline (§2.2), cluster-wide:

    - at most one owner per object;
    - at most one write token per object, and never alongside read
      tokens elsewhere ("several read tokens, or one exclusive write
      token");
    - a node with a valid (read/write) token actually caches a copy.

    [Error msg] names the first violation. *)
