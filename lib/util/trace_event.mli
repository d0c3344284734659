(** Structured protocol/GC event trace for mechanical verification.

    The one event log.  It records {e typed} events: the offline linter
    ([Bmx_check.Lint]) replays them against the protocol state machine,
    the observability layer pairs them into spans and latency series,
    and [bmxctl workload --trace] prints them.  They cover token
    acquisitions with their acting subsystem, grant messages with their
    piggybacked location-update counts, the §5 invariant hook firings,
    copy-set forwards, collection boundaries, and every network message
    with its per-pair sequence number.

    The log is owned by the protocol instance and shared with the
    network simulator and the collector; it is disabled by default.
    Events serialize to a stable one-line text format so traces can be
    saved and linted offline ([bmxctl check --trace FILE]).

    {b Storage.}  Events are packed as ints into [int array] chunks on
    the OCaml heap (the first small, then doubling to 64 Ki words; a
    filled chunk is never copied) and decoded when read.  An event is a
    timestamp word, then a header word: the constructor tag (6 bits), a
    wide flag, up to 4 flag bits (actor, tok, bools), the 8-bit interned
    id of its kind or fault string (255: the id follows as a
    word) and two 20-bit node fields biased by one so [Node.invalid]
    fits.  A node that does not fit sets the wide flag and both nodes
    follow as words.  Then come the int fields in text order and any
    list as its length and elements.  Strings are interned per log;
    decoding returns the interned string.  {!record} allocates nothing
    on the minor heap: a new chunk goes straight to the major heap. *)

include module type of struct
  include Trace_types
end

type log

val create_log : ?capacity:int -> unit -> log
(** Disabled by default.  [capacity] (default 1_000_000) bounds memory:
    past it, recording stops and {!overflowed} reports the truncation so
    the linter can refuse to certify an incomplete trace. *)

val enabled : log -> bool
val set_enabled : log -> bool -> unit

val set_clock : log -> (unit -> int) -> unit
(** Anchor event timestamps to a virtual clock (typically [Net.now]).
    The default clock is constantly 0, in which case timestamps are just
    the event's 1-based position in the log. *)

val quantum : int
(** Virtual µsteps per clock tick (1000).  {!record} stamps each event
    [max (previous + 1) (clock () * quantum)]: timestamps are strictly
    increasing, anchored to the clock, and the slack between ticks counts
    intervening events — a deterministic measure of protocol work. *)

val add_tap : log -> (int -> t -> unit) -> unit
(** Register a live observer called as [f ts event] for every event the
    log actually records (enabled, under capacity), after it is appended.
    Taps fire in registration order and cannot be removed — they are
    wired once per cluster.  The continuous-observability layer (the
    timeseries sampler and the flight recorder) attaches here. *)

val record : log -> t -> unit
(** Append an event (when enabled and under capacity), then run the taps
    on it. *)

val iter : log -> (int -> t -> unit) -> unit
(** [iter l f] decodes the events oldest first and calls [f ts event],
    with the µstep timestamp assigned at {!record} time. *)

val fold : log -> ('a -> int -> t -> 'a) -> 'a -> 'a
(** {!iter} threading an accumulator: [f acc ts event]. *)

val events : log -> t list
(** Oldest first.  Decodes the whole log into a list; prefer {!iter}. *)

val timed_events : log -> (int * t) list
(** {!events} with timestamps. *)

val length : log -> int
(** Events recorded, without decoding. *)

val words : log -> int
(** Words the recorded events occupy, up to the write cursor. *)

val overflowed : log -> bool
val clear : log -> unit
(** Drop all events (and the chunks holding them), reset the overflow
    flag and the timestamp cursor; leaves [enabled], the clock and the
    taps alone. *)

val nodes : t -> Ids.Node.t list
(** The event's node fields in text order: one node, or two for a pair
    event (granter and requester, src and dst, at and sender). *)

(** {1 Serialization} — stable one-line format, [to_line] ∘ [of_line] = id. *)

val to_line : t -> string
val of_line : string -> (t, string) result
