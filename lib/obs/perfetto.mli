(** Chrome-trace-event export of a span list (Perfetto-compatible).

    One trace "process" per node (pid = node id, named via [process_name]
    metadata), one "thread" per {!Span.track} (tid = track index, named
    via [thread_name]).  Finished spans become complete events
    ([ph = "X"], with [ts]/[dur] in virtual µsteps), instants become
    thread-scoped instant events ([ph = "i"]).  Load the output at
    ui.perfetto.dev or chrome://tracing. *)

val to_string : ?extra:Json.t list -> Span.t list -> string
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}].  [extra] events
    (e.g. {!Timeseries.perfetto_counters} counter tracks) append to the
    span events verbatim. *)

val write_file : ?extra:Json.t list -> string -> Span.t list -> unit
