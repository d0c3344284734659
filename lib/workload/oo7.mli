(** An OO7-flavoured design-database workload.

    The paper motivates BMX with design databases (§1); OO7 (Carey,
    DeWitt & Naughton) is the classic benchmark for that shape: a module
    of hierarchical {e assemblies} whose base level references
    {e composite parts}, each owning a small connected graph of
    {e atomic parts}.  This is a scaled-down OO7 built entirely through
    the public mutator API: assemblies live in one bunch, composite
    parts round-robin across several others, so base-assembly →
    composite edges exercise the write barrier's inter-bunch SSPs.

    Traversals follow the benchmark's naming: T1 is a read-only
    depth-first sweep touching every atomic part; T2 updates every
    atomic part it visits.  Structural churn (replacing composite parts)
    generates the floating garbage the collector must pick up. *)

type config = {
  levels : int;  (** assembly-tree depth (complex above base) *)
  assembly_fanout : int;
  comp_per_base : int;  (** composite parts per base assembly *)
  atomic_per_comp : int;  (** atomic parts per composite graph *)
  part_bunches : int;  (** bunches the composite parts spread over *)
  seed : int;
}

val default : config
(** levels 3, fanout 3, 3 composites per base, 8 atomics per composite,
    3 part bunches — a few hundred objects. *)

type t

val build : Bmx.Cluster.t -> node:Bmx_util.Ids.Node.t -> config -> t
(** Build the module at [node] and root it there. *)

val config : t -> config
val size : t -> int
(** Objects the module comprises (assemblies + composites + atomics). *)

val t1 : t -> node:Bmx_util.Ids.Node.t -> int
(** Read-only traversal: acquire read tokens down the hierarchy, touch
    every atomic part; returns atomic parts visited. *)

val t2 : t -> node:Bmx_util.Ids.Node.t -> int
(** Update traversal: like T1 but bumps every atomic part's build date
    under a write token; returns atomic parts updated. *)

val churn : t -> node:Bmx_util.Ids.Node.t -> int
(** Structural update: rebuild one composite part per base assembly (a
    fresh part graph replaces the old one, which becomes garbage);
    returns objects newly made unreachable. *)
