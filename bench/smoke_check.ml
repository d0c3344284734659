(* Gate for the @bench-smoke alias: re-parse the BENCH line the
   e20-smoke run printed and fail the build if the run broke one of the
   tracked invariants — the collector must never touch the DSM token
   machinery (§5), and the steady-state delta encoding must not cost
   more than full tables would have.  The partitioned configuration
   additionally gates the degraded mode: §5 must hold across a network
   cut, and the delta-table streams must resynchronize within a bounded
   number of cleaner cycles after heal.

   Performance gates ride along, locking in the flat-heap hot path, the
   churn-proportional cleaner and the packed event log: a wall-clock
   throughput floor (the pre-flat-heap driver managed ~155 ops/sec at
   8x1280; even the miniature smoke configuration must clear ten times
   that), an OCaml-runtime allocation budget per mutator op (the
   legality memo, handle table and op dispatch are flat arrays and
   bitmaps; only Rng.float boxing and a few option cells remain), an
   allocation budget for the collector waves per mutator op, and
   deterministic budgets for the stub-table bytes, total wire bytes and
   messages the run sends, for the edges the cleaner builds into its
   edge sets and for the event log's words per recorded event. *)

module Json = Bmx_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let int_member name obj =
  match Json.member name obj with
  | Some (Json.Int i) -> i
  | Some _ -> die "bench-smoke: %S is not an integer" name
  | None -> die "bench-smoke: missing field %S" name

let float_member name obj =
  match Json.member name obj with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some _ -> die "bench-smoke: %S is not a number" name
  | None -> die "bench-smoke: missing field %S" name

(* 10x the seed driver's 8x1280 wall-clock throughput. *)
let ops_per_sec_floor = 1550.0

(* Minor words allocated per mutator op, measured across the whole
   workload batch.  An op is a token acquire + field access + release
   through the full DSM protocol simulation (messages, trace events),
   which legitimately allocates a few hundred words; the driver's own
   bookkeeping — legality memo, rooted set, node/handle lookup — is flat
   arrays and bitmaps and contributes almost nothing.  What matters is
   that the figure is a heap-size-independent constant (the complexity
   tests compare it across heap sizes); the budget here catches a
   reintroduced per-op traversal, not ordinary message allocation.
   The smoke configuration measures 174 words/op, with no histogram
   observation per grant (183 while each grant fed a per-node histogram
   of its location updates), a token grant allocating only what it
   ships (380 while lookups on the acquire path
   boxed options and tuples, a grant coalesced its updates through a
   hash table and cloned over the requester's stale copy, and every
   message hashed four metric keys; 381 while every
   collection also handed the node its own tables through a mirror of
   them; 382 before a stub table kept the edge set a full ships; 415
   while a counter bump boxed its optional increment and its lookup's
   option, and the scion tables kept a list view refiltered after
   removals; 463 while
   every economical collection that found garbage evacuated, so grants
   carried more location updates; 533 while the event log consed a
   boxed event per record).  The budget sits ~10% above 174, which
   absorbs compiler and runtime drift while still catching any
   O(population) cost that sneaks back onto the per-op or per-sample
   path. *)
let minor_words_per_op_budget = 191.0

(* Minor words the collector waves between the mutator batches allocate,
   per mutator op: 302 in the smoke configuration, where a collection
   charges its phase times to Perfcount alone (321 while it also fed
   five per-node histograms and logged five events), the store's
   lookups and the arena's slot allocation box nothing (343 while they
   returned options and zeroed a slot through a [Bigarray.sub] proxy),
   a node checks
   its own scions against the table it just rebuilt (356 while every
   collection handed the node its own tables, folding each round's
   delta into a mirror of them), a stub table keeps the edge set a full
   ships and a round's read folds the round's edge flips into it (361
   while a round's fulls built theirs from the edge counts), an SSP
   table is its member set and one index (382 while scion tables also
   kept a list view and counter bumps boxed their arguments), every
   receiver of a
   round's fulls stores the edge sets the sender built once (385 while
   each receiver copied the edges into hash tables of its own and kept
   per-target claim counts beside them), and an economical collection
   evacuates only when its bunch's own allocation segments are under
   3/4 live (443 when every collection that found garbage evacuated).
   The budget sits ~10% above 302.  A second trace per collection fails
   it (448 when the base was 384), and so would the heavier allocating
   lookup and the wholesale stub-table rebuild it was set against (641
   and 558 at 500 words/op, before the packed log).
   It holds total wave allocation only, so CPU-bound regressions on the
   smoke's small tables can pass it: a claim scan over every mirror did,
   and a stub table's edge set rebuilt at every read measured 351 when
   the base was 321 and the budget 353. *)
let wave_minor_words_per_op_budget = 332.0

(* Deterministic wire budgets: for a fixed seed the smoke configuration
   sends exactly the same messages and stub-table bytes on every machine,
   so these sit just above the measured values and any change to what
   the protocol or the cleaner puts on the wire must move them on
   purpose.  Stub-table bytes ([tables.delta_bytes]: fulls, deltas and
   resync pulls) are 2 076 with every integer of a message a varint:
   its kind, stream, basis, section lengths and every id, and a full's
   edges gap-coded (each its major id's difference from the edge before,
   and its minor id or the minor's difference).  With each edge of a
   full its two ids they were 2 086: the smoke's tables are too small
   for gap coding to show, so these budgets do not catch a return to
   plain ids, and test_perf_model's "a dense full is priced gap-coded"
   is that gate.  With each of
   those a fixed 8-byte field they were 10 176, stub entries shipped as
   16-byte edges (the header names the sender and bunch once) and
   exiting entries sent only to their owner, as bare uids; at 8 bytes
   per field, whole 24-byte match keys gave 12 640, sending each
   destination its own entries with the owner kept (16 bytes each)
   12 896, and shipping every destination the whole exiting list with
   owners 20 992 (against 10 368 when every economical collection that
   found garbage evacuated).  Messages are 867 wire messages: a stub
   table sent while the pair's previous table is still queued rides in
   it; sending each payload as a message of its own gives 991.  Total
   wire bytes are 53 858 with gap-coded fulls (53 868 with plain varint
   edges) and every piggybacked
   location update counted once, as piggyback.  With 8-byte table
   fields they were 63 364 (71 692 when every economical collection
   that found garbage evacuated, and grants carried the moves); 24-byte
   match keys gave 65 956, and counting each grant's updates a second
   time in the grant itself 65 908.  The byte budgets sit ~10% above
   the measured values, so pricing ids at 8 bytes again fails both. *)
let table_bytes_budget = 2_280
let messages_budget = 900
let bytes_budget = 59_200

(* Deterministic edge-set work: the edges the cleaner puts into edge
   sets, counted by [Perfcount.s_gc_edges_inserted] — every edge a stub
   table's journal fold adds to its kept set (the first fold sorts them
   all in at once) and every edge a receiver's delta adds to its own
   mirror.  The smoke configuration inserts 166: a table's set is built
   once and then only follows the round's net flips, every full and
   resync pull ships the set the table keeps, and a node keeps no
   mirror of its own tables (191 while every collection folded the
   round's delta into one; 194 while a round's fulls built theirs once
   a round; 432 while each destination's full built its own).
   Rebuilding a table's set at every read inserts 402; its wave
   allocation (351 words/op when the base was 321) passed the wave
   budget then, so this gate is the one that catches it at three
   nodes.  The budget sits ~10% above 166. *)
let edges_inserted_budget = 183

(* Deterministic event-log density: words the typed event log stores per
   recorded event.  The packed log measures 3.31 (11 522 words for 3 477
   events; 3.28, 12 947 words for 3 952, while every collection also
   logged five three-word phase-time events); a cons list of boxed
   (timestamp, event) pairs holds about 11. *)
let event_log_words_per_event_budget = 4.0

let () =
  let path = Sys.argv.(1) in
  let ic = open_in path in
  let bench = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 6 && String.sub line 0 6 = "BENCH " then
         bench := Some (String.sub line 6 (String.length line - 6))
     done
   with End_of_file -> close_in ic);
  let raw =
    match !bench with
    | Some s -> s
    | None -> die "bench-smoke: no BENCH line in %s" path
  in
  let json =
    match Json.parse raw with
    | Ok j -> j
    | Error e -> die "bench-smoke: BENCH line does not parse: %s" e
  in
  let configs =
    match Json.member "configs" json with
    | Some (Json.List l) -> l
    | _ -> die "bench-smoke: no configs list"
  in
  if configs = [] then die "bench-smoke: empty configs list";
  List.iter
    (fun cfg ->
      let nodes = int_member "nodes" cfg in
      let tokens = int_member "gc_token_acquires" cfg in
      if tokens <> 0 then
        die "bench-smoke: %d-node run acquired %d GC tokens (must be 0)"
          nodes tokens;
      if Json.member "partitioned" cfg = Some (Json.Bool true) then begin
        (if Json.member "converged" cfg <> Some (Json.Bool true) then
           die
             "bench-smoke: %d-node partitioned run never stopped resyncing \
              after heal"
             nodes);
        let rounds = int_member "heal_resync_rounds" cfg in
        if rounds > 4 then
          die
            "bench-smoke: %d-node partitioned run took %d cleaner cycles to \
             resync after heal (bound 4)"
            nodes rounds;
        Printf.printf
          "bench-smoke: %d nodes partitioned ok — gc tokens 0, resynced %d \
           cycle(s) after heal\n"
          nodes rounds
      end
      else begin
      let ops_per_sec = float_member "ops_per_sec" cfg in
      if ops_per_sec < ops_per_sec_floor then
        die
          "bench-smoke: %d-node run managed %.0f ops/sec (floor %.0f — the \
           superlinear legality memo is back?)"
          nodes ops_per_sec ops_per_sec_floor;
      let words_per_op = float_member "minor_words_per_op" cfg in
      if words_per_op > minor_words_per_op_budget then
        die
          "bench-smoke: %d-node run allocated %.0f minor words per op \
           (budget %.0f — a mutator or DSM path regained a per-op \
           allocation, e.g. an allocating address lookup?)"
          nodes words_per_op minor_words_per_op_budget;
      let wave_words_per_op = float_member "wave_minor_words_per_op" cfg in
      if wave_words_per_op > wave_minor_words_per_op_budget then
        die
          "bench-smoke: %d-node run's collector waves allocated %.0f minor \
           words per op (budget %.0f — the collector regained per-object \
           allocation: a second trace, a stub-table rebuild, an \
           allocating address or root lookup?)"
          nodes wave_words_per_op wave_minor_words_per_op_budget;
      let table_bytes = int_member "tables_delta_bytes" cfg in
      if table_bytes > table_bytes_budget then
        die
          "bench-smoke: %d-node run sent %d stub-table bytes (budget %d — \
           fuller tables on the wire: whole match keys or stub records \
           instead of edges, more fulls, exiting entries sent to other \
           nodes than their owner?)"
          nodes table_bytes table_bytes_budget;
      let messages = int_member "messages" cfg in
      if messages > messages_budget then
        die "bench-smoke: %d-node run sent %d messages (budget %d)" nodes
          messages messages_budget;
      let bytes = int_member "bytes" cfg in
      if bytes > bytes_budget then
        die
          "bench-smoke: %d-node run sent %d wire bytes (budget %d — a \
           byte counted twice, e.g. piggybacked updates inside the grant \
           too?)"
          nodes bytes bytes_budget;
      let edges = int_member "edges_inserted" cfg in
      if edges > edges_inserted_budget then
        die
          "bench-smoke: %d-node run inserted %d edges into cleaner edge sets \
           (budget %d — a table's kept set rebuilt instead of folded, or \
           copied at each receiver?)"
          nodes edges edges_inserted_budget;
      let events = int_member "events" cfg in
      let log_words = int_member "event_log_words" cfg in
      let words_per_event =
        if events = 0 then 0.0 else float_of_int log_words /. float_of_int events
      in
      if words_per_event > event_log_words_per_event_budget then
        die
          "bench-smoke: %d-node run's event log holds %.2f words per event \
           (%d words, %d events; budget %.1f — boxed events back in the log?)"
          nodes words_per_event log_words events
          event_log_words_per_event_budget;
      let delta = int_member "steady_delta_bytes" cfg in
      let full = int_member "steady_full_bytes" cfg in
      if delta > full then
        die
          "bench-smoke: %d-node steady-state delta bytes (%d) exceed \
           full-table bytes (%d)"
          nodes delta full;
      Printf.printf
        "bench-smoke: %d nodes ok — gc tokens 0, %.0f ops/sec (floor %.0f), \
         %.0f alloc words/op (budget %.0f), %.0f wave words/op (budget %.0f), \
         %d table bytes (budget %d), %d messages (budget %d), \
         %d wire bytes (budget %d), %d edges inserted (budget %d), \
         %.2f event-log words/event (budget %.1f), \
         steady delta %dB <= full %dB (%.1f%%)\n"
        nodes ops_per_sec ops_per_sec_floor words_per_op
        minor_words_per_op_budget wave_words_per_op
        wave_minor_words_per_op_budget table_bytes table_bytes_budget
        messages messages_budget bytes bytes_budget edges
        edges_inserted_budget words_per_event
        event_log_words_per_event_budget delta full
        (if full = 0 then 0.0 else 100.0 *. float_of_int delta /. float_of_int full)
      end)
    configs
