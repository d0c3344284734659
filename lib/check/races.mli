(** The happens-before certifier: data races, the per-object read
    mapping, and the GC non-interference erasure theorem, all derived
    from the {!Hb} engine.

    {b Races.}  Two accesses to the same object conflict when at least
    one is a write.  Under entry consistency every token-covered access
    must be happens-before-ordered with every conflicting covered
    access; an unordered pair is a data race and the certificate fails.
    Explicitly weak ([~weak]) reads opted out of coherence and are
    exempt (but counted).

    {b Read mapping.}  Every covered read must observe the {e maximal}
    write in happens-before order: the object version it records must
    equal the version of the last covered write.  An older version is a
    {e stale read} (an invalidation or update was skipped); a newer one
    is a {e phantom version} (a write nobody recorded — e.g. the
    collector mutating an object).  Ownership adoption after a crash
    reseats the basis: the version chain restarts at the next write
    (honest RVM-truncation staleness is the fsck contract's business,
    not the certifier's).

    {b Erasure theorem.}  The paper's §5 claim, per trace: deleting
    every GC-classified event and replaying the engine must leave all
    application-event vector clocks and all application-anchored read
    findings bit-for-bit unchanged.  The engine's clock model makes
    this hold by construction for a passive collector, so any diff is a
    detected interference — a GC token acquire reclassifies grant
    events, a GC write shifts the version mapping.  The check is one
    pass with two {!Hb} engines in lockstep: the full engine steps
    every event, the erased engine only those the full one classified
    App, and each application event's two timestamps are compared as
    soon as both exist.

    All findings are deterministically ordered (trace position, then
    kind, then node, then text) and deduplicated. *)

type kind =
  | Race  (** conflicting covered accesses unordered by happens-before *)
  | Stale_read  (** covered read observed an older version than the
                    happens-before-maximal write *)
  | Phantom_version  (** covered read observed a version newer than any
                         recorded write *)
  | Gc_interference  (** the collector acquired a token, held one at an
                         access, or wrote a shared object *)
  | Erasure_broken  (** erasing GC events changed an application clock
                        or the read mapping *)
  | Incomplete_trace  (** overflowed/unparseable log: cannot certify *)

type finding = {
  kind : kind;
  at : int;  (** trace index of the anchoring event, [-1] if none *)
  node : int;  (** primary node, [-1] if none *)
  uid : int;  (** object, [-1] if none *)
  detail : string;
}

type t = {
  events : int;
  app_events : int;
  gc_events : int;
  reads : int;
  writes : int;
  weak_reads : int;
  objects : int;  (** distinct objects accessed *)
  erasure_ok : bool;
  findings : finding list;  (** sorted, deduplicated; empty = certified *)
}

val certify : ?overflowed:bool -> Bmx_util.Trace_event.t list -> t
(** Check everything above in one pass over the trace (plus a pass that
    only computes the clock width).  [overflowed] adds an
    {!Incomplete_trace} finding: a truncated trace certifies nothing.
    O(events × nodes). *)

val check_log : Bmx_util.Trace_event.log -> t
(** {!certify} decoding the log one event at a time (no event list is
    built), with [overflowed] taken from the log. *)

val ok : t -> bool
(** No findings. *)

val finding_to_string : finding -> string
val pp_finding : Format.formatter -> finding -> unit

val to_text : t -> string
(** Human-readable certificate: counters, verdict, findings. *)

val to_json : t -> Bmx_obs.Json.t
