(** Bounded exhaustive schedule explorer — a small-scope model checker
    for the GC/DSM cooperation.

    A scenario is a deterministic builder that sets up a cluster, runs
    mutator/collector operations, and leaves background messages
    pending.  The explorer then enumerates every legal delivery order of
    those messages (legal = any interleaving that preserves the per-pair
    FIFO of §6.1, via {!Bmx_netsim.Net.step_pair}), optionally
    interleaving node-local steps (e.g. "run the owner's BGC now") at
    any point.  Each complete schedule replays the scenario from scratch
    — the simulator is deterministic — drains the network, and runs the
    trace linter plus the caller's safety check.

    The enumeration is exhaustive up to [depth] choice points; deeper
    schedules fall back to FIFO delivery for the remainder, so the
    explorer always terminates and every run ends in a fully drained,
    checkable state. *)

type choice =
  | Deliver of Bmx_util.Ids.Node.t * Bmx_util.Ids.Node.t
      (** deliver the oldest pending message of the (src, dst) pair *)
  | Local of int  (** run the [i]-th local step of the scenario *)

val choice_to_string : choice -> string

type report = {
  schedules : int;  (** complete schedules executed and checked *)
  truncated : bool;  (** hit [max_schedules] before exhausting the space *)
  violations : (choice list * string) list;
      (** failing schedule prefixes with the violation message *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  ?depth:int ->
  ?max_schedules:int ->
  build:(unit -> Bmx.Cluster.t) ->
  ?locals:(Bmx.Cluster.t -> unit) list ->
  ?finish:(Bmx.Cluster.t -> unit) ->
  ?check:(Bmx.Cluster.t -> (unit, string) result) ->
  unit ->
  report
(** [run ~build ()] explores delivery schedules of the scenario.
    [depth] (default 8) bounds the exhaustively explored choice points;
    [max_schedules] (default 2000) caps the total schedules.  [locals]
    are node-local steps each schedulable (at most once, at any
    position) alongside deliveries.  [finish] (default: nothing) runs at
    every leaf after the unused locals and before the final settle — a
    crash scenario uses it to guarantee recovery happens on schedules
    that never placed the recovery local.  [check] (default:
    {!Bmx.Audit.check_safety} then {!Bmx.Audit.check_tokens}) runs on
    every settled final state; the trace linter always runs.  [build]
    must be deterministic and should create the cluster with
    [~trace_events:true] so the linter sees the whole history. *)

(** A named scenario for [bmxctl explore]. *)
type scenario = {
  sc_name : string;
  sc_desc : string;
  sc_build : unit -> Bmx.Cluster.t;
  sc_locals : (Bmx.Cluster.t -> unit) list;
  sc_finish : Bmx.Cluster.t -> unit;
}

val builtin_scenarios : scenario list
val find_scenario : string -> scenario option
