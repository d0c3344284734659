(** Counters and summary statistics for experiments.

    Every subsystem (network, DSM, GC) records into a [registry]; the bench
    harness snapshots registries before/after a run to build the tables of
    EXPERIMENTS.md. *)

type registry

val create_registry : unit -> registry

val incr : registry -> string -> unit
(** Bump the named counter by one (created at zero on first use). *)

val add : registry -> string -> int -> unit
(** [add reg name n] adds [n] to the named counter (created at zero on
    first use, so [n] = 0 creates it).  Neither allocates once the
    counter exists. *)

val get : registry -> string -> int
(** Current value of a counter (0 if never bumped). *)

val reset : registry -> unit
(** Zero every counter. *)

val counters : registry -> (string * int) list
(** All counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list
  -> (string * int) list
(** Per-counter deltas ([after - before]); names absent on one side count
    as zero. *)

(** Streaming summary of a sample (Welford's algorithm).

    Count, mean, stddev, min and max are exact for every sample ever
    [add]ed.  Percentiles are computed over a fixed-size reservoir
    (Vitter's algorithm R, capacity {!Summary.reservoir_capacity}) so a
    summary uses O(1) memory regardless of how many samples it absorbs;
    up to the capacity they are exact, beyond it they are an unbiased
    estimate.  Replacement decisions come from a private deterministic
    {!Rng} stream, so identical sample sequences always yield identical
    percentiles. *)
module Summary : sig
  type t

  val reservoir_capacity : int
  (** Number of samples retained for percentile estimation (1024). *)

  val create : ?seed:int -> unit -> t
  (** [seed] seeds the reservoir's private RNG (a fixed default keeps
      existing callers deterministic). *)

  val add : t -> float -> unit
  val n : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0,100]; exact up to
      {!reservoir_capacity} samples, reservoir-estimated beyond. *)

  (** {2 The estimator's two steps}, shared with the windowed reservoirs
      of the virtual-time series so both estimate alike. *)

  val reservoir_slot : Rng.t -> n:int -> cap:int -> int
  (** Where the [n]-th sample offered (1-based) goes in a reservoir of
      [cap] slots: slot [n - 1] while the reservoir fills, then a draw
      from [rng] that keeps it with probability [cap / n]; [-1] discards
      it.  {!add} is this step over the {!reservoir_capacity} slots. *)

  val nearest_rank : float array -> float -> float
  (** [nearest_rank samples p] sorts [samples] in place and picks the
      round-to-nearest-rank [p]-th percentile; [0.] when empty.
      {!percentile} is this pick over the retained samples. *)
end
