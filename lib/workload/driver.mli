(** Mixed read/write/ownership-migration workloads over a cluster.

    The driver models the applications of §1: several nodes repeatedly
    acquire tokens, read and update shared objects, relink references
    (through the write barrier) and occasionally drop or add roots.  It is
    the engine behind experiments E5, E6 and E8.

    Every op is gated by a legality check — a mutator can only name
    objects still reachable from some root.  That check is served by an
    {e incremental} reachability mirror ({!Reach}) kept exact across root
    churn and pointer relinks, so the per-op cost does not grow with the
    heap.  {!check_memo} compares it against the from-scratch
    recomputation ({!Bmx.Audit.union_reachable}). *)

type config = {
  nodes : int;
  bunches : int;
  objects_per_bunch : int;
  out_degree : int;  (** reference fields per object *)
  cross_bunch_prob : float;
  ops : int;  (** mutator operations per run *)
  write_prob : float;  (** probability an op is an update (else a read) *)
  relink_prob : float;  (** probability an update rewrites a pointer field *)
  root_churn_prob : float;  (** probability an op drops / re-adds a root *)
  seed : int;
  mode : Bmx_dsm.Protocol.mode;
  update_policy : Bmx_dsm.Protocol.update_policy;
  shards : int;  (** registry shards for the cluster (default 1) *)
  locality : int;
      (** when positive, node [n] only operates on objects of bunches
          [n .. n+locality-1] (mod bunches) — a fixed per-node working
          set, so per-node traffic stays flat as nodes are added (the
          scaling sweeps).  [0] (default) keeps the historical
          uniform-random behaviour, drawing from the RNG in the same
          order as before the knob existed. *)
}

val default : config

type t

val setup : config -> t
(** Build the cluster and its object population; replicate a working set
    on every node; drain; seed the legality mirror from cluster truth. *)

val cluster : t -> Bmx.Cluster.t

val run_ops : t -> ?resync_first:bool -> ?ops:int -> unit -> unit
(** Execute mutator operations (default: [config.ops]).  [resync_first]
    (default [true]) re-extracts the legality mirror from cluster truth
    before the batch — callers may have crashed nodes or written objects
    directly since the last one.  Pass [false] only when nothing but
    driver ops touched the cluster, e.g. to measure steady-state per-op
    cost. *)

val live_roots : t -> int
(** Roots currently held across all nodes. *)

val check_memo : t -> (unit, string) result
(** Compare the incremental legality mirror object-by-object against the
    from-scratch oracle ({!Bmx.Audit.union_reachable}); [Error] names the
    first divergent indexes. *)
