(* E20: scalability sweep — objects-per-bunch × nodes.

   The paper's performance story (§4.3–§4.4, §8) is that BGC costs stay
   local and cleaner traffic stays background; this experiment measures
   whether the reproduction scales past toy sizes.  Each configuration
   runs the mixed mutator workload interleaved with collector waves
   (as E5/E6 do) and reports wall-clock throughput, GC pause
   percentiles (virtual time, via bmx_obs spans), and wire totals.  A
   steady-state phase then runs light-churn cleaner cycles to compare
   delta-table bytes against full-table bytes.

   Output: a table per run plus a machine-readable BENCH_SCALE.json
   (also echoed as one "BENCH {...}" line per configuration for the
   perf-trajectory scraper). *)

open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Net = Bmx_netsim.Net
module Json = Bmx_obs.Json
module Driver = Bmx_workload.Driver

type run_result = {
  r_nodes : int;
  r_objects_per_bunch : int;
  r_ops : int;
  r_elapsed_ms : float;
  r_ops_per_sec : float;
  r_gc_pause : Bmx_obs.Metrics.summary option;
  r_messages : int;
  r_payloads : int;
  r_bytes : int;
  r_stub_table_msgs : int;
  r_stub_table_payloads : int;
  r_delta_bytes : int;
  r_full_wire_bytes : int;
  r_delta_wire_bytes : int;
  r_resync_bytes : int;
  r_full_bytes : int;
  r_steady_delta_bytes : int;
  r_steady_full_bytes : int;
  r_full_sent : int;
  r_delta_sent : int;
  r_resyncs : int;
  r_gc_token_acquires : int;
  r_minor_words_per_op : float;
  r_wave_minor_words_per_op : float;
  r_events : int;
  r_event_log_words : int;
  r_edges_inserted : int;
  r_components : (Net.Component.t * int) list;
}

let now_ns () = Monotonic_clock.now ()

(* Source revision written into every BENCH_SCALE.json line
   ([bench/main.exe --rev REV]). *)
let rev = ref "unknown"

(* Wire messages and the payloads they carried: a payload that rode
   another message of its pair ([Net.send]'s riders) adds to the
   second count only. *)
let payloads net = Net.total_messages net + Net.total_coalesced net

(* One collector wave: BGC every replicated bunch at every holder, then
   drain — the E5/E6 shape, kept identical so throughput numbers include
   collection work. *)
let gc_wave c =
  List.iter
    (fun bunch ->
      List.iter
        (fun node -> ignore (Cluster.bgc ~economical:true c ~node ~bunch))
        (Protocol.bunch_replica_nodes (Cluster.proto c) bunch))
    (Protocol.bunches (Cluster.proto c));
  ignore (Cluster.drain c)

let run_config ~nodes ~objects_per_bunch ~ops ~waves =
  let cfg =
    {
      Driver.default with
      nodes;
      bunches = nodes;
      objects_per_bunch;
      ops;
      seed = 20;
    }
  in
  let perf0 = Perfcount.snapshot () in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  Cluster.set_event_trace c true;
  (* Continuous sampling stays ON during the measured loop: the
     @bench-smoke throughput/allocation floors double as the
     observer-effect budget for the telemetry path. *)
  let ts = Cluster.enable_timeseries c in
  let chunk = max 1 (ops / waves) in
  (* OCaml-runtime allocation attributable to the mutator loop itself
     and, separately, to the collector waves between its batches: the
     flat-heap hot path is supposed to allocate O(1) words per op, the
     waves should allocate for what churned rather than for the mirrored
     tables, and the smoke gate holds both. *)
  let mutator_words = ref 0.0 and wave_words = ref 0.0 in
  let t0 = now_ns () in
  for _ = 1 to waves do
    let w0 = Gc.minor_words () in
    (* [resync_first:false]: between batches only driver ops and
       collector waves ran, and collections preserve the object graph
       (forwarders move copies, never edges), so the O(population)
       mirror re-extraction is pure overhead here.  Billing it to the
       mutator was what made words/op grow with the heap across the
       sweep (641 → 3738 from the 4×64 to the 16×4096 leg). *)
    Driver.run_ops d ~resync_first:false ~ops:chunk ();
    let w1 = Gc.minor_words () in
    mutator_words := !mutator_words +. (w1 -. w0);
    gc_wave c;
    wave_words := !wave_words +. (Gc.minor_words () -. w1)
  done;
  ignore (Cluster.collect_until_quiescent c ());
  let t1 = now_ns () in
  let elapsed_ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
  let stats = Cluster.stats c in
  let delta_before = Stats.get stats "tables.delta_bytes" in
  let full_before = Stats.get stats "tables.full_bytes" in
  (* [tables.delta_bytes] is every stub-table byte sent, split by
     encoding: full tables, deltas and resync pulls. *)
  let full_wire = Stats.get stats "tables.full_wire_bytes" in
  let delta_wire = Stats.get stats "tables.delta_wire_bytes" in
  let resync = Stats.get stats "tables.resync_bytes" in
  (* Steady state: light churn between cleaner cycles.  With delta
     tables, Stub_table bytes here are O(churn), not O(table). *)
  for _ = 1 to 4 do
    Driver.run_ops d ~resync_first:false ~ops:20 ();
    gc_wave c
  done;
  Bmx_obs.Timeseries.freeze ts;
  let report =
    Bmx_obs.Report.of_iter ~metrics:(Cluster.metrics c)
      (Trace_event.iter (Cluster.evlog c))
  in
  let net = Cluster.net c in
  let per_op words =
    let total = float_of_int (chunk * waves) in
    if total <= 0.0 then 0.0 else words /. total
  in
  {
    r_nodes = nodes;
    r_objects_per_bunch = objects_per_bunch;
    r_ops = ops;
    r_elapsed_ms = elapsed_ms;
    r_ops_per_sec =
      (if elapsed_ms <= 0.0 then 0.0
       else float_of_int ops /. (elapsed_ms /. 1000.0));
    r_gc_pause = Bmx_obs.Report.latency report "gc.pause";
    r_messages = Net.total_messages net;
    r_payloads = payloads net;
    r_bytes = Net.total_bytes net;
    r_stub_table_msgs = Net.sent net Net.Stub_table;
    r_stub_table_payloads =
      Net.sent net Net.Stub_table + Net.coalesced net Net.Stub_table;
    r_delta_bytes = delta_before;
    r_full_wire_bytes = full_wire;
    r_delta_wire_bytes = delta_wire;
    r_resync_bytes = resync;
    r_full_bytes = full_before;
    r_steady_delta_bytes = Stats.get stats "tables.delta_bytes" - delta_before;
    r_steady_full_bytes = Stats.get stats "tables.full_bytes" - full_before;
    r_full_sent = Stats.get stats "gc.cleaner.full_sent";
    r_delta_sent = Stats.get stats "gc.cleaner.delta_sent";
    r_resyncs = Stats.get stats "gc.cleaner.resyncs";
    r_gc_token_acquires =
      Stats.get stats "dsm.gc.acquire_read"
      + Stats.get stats "dsm.gc.acquire_write";
    r_minor_words_per_op = per_op !mutator_words;
    r_wave_minor_words_per_op = per_op !wave_words;
    r_events = Trace_event.length (Cluster.evlog c);
    r_event_log_words = Trace_event.words (Cluster.evlog c);
    r_edges_inserted =
      (Perfcount.diff ~before:perf0 ~after:(Perfcount.snapshot ()))
        .Perfcount.s_gc_edges_inserted;
    r_components =
      List.map
        (fun comp -> (comp, Net.component_bytes net comp))
        Net.Component.all;
  }

(* BENCH_SCALE.json holds one JSON object per line, one per experiment
   (e20's throughput sweep, e22's sharded-registry sweep).  Rewriting an
   experiment replaces its own line and preserves the others, so the
   committed artifact can be regenerated piecemeal in either order. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let upsert_json_line ~path ~experiment json =
  let tag = Printf.sprintf "\"experiment\":%S" experiment in
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let rec go acc =
        match input_line ic with
        | l -> go (if String.length l = 0 then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let ls = go [] in
      close_in ic;
      ls
    end
    else []
  in
  let kept = List.filter (fun l -> not (contains_substring l tag)) existing in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    kept;
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let summary_json = function
  | None -> Json.Null
  | Some s ->
      Json.Obj
        [
          ("n", Json.Int s.Bmx_obs.Metrics.s_count);
          ("p50", Json.Float s.Bmx_obs.Metrics.s_p50);
          ("p90", Json.Float s.Bmx_obs.Metrics.s_p90);
          ("p99", Json.Float s.Bmx_obs.Metrics.s_p99);
          ("max", Json.Float s.Bmx_obs.Metrics.s_max);
        ]

let result_json r =
  Json.Obj
    [
      ("nodes", Json.Int r.r_nodes);
      ("objects_per_bunch", Json.Int r.r_objects_per_bunch);
      ("ops", Json.Int r.r_ops);
      ("elapsed_ms", Json.Float r.r_elapsed_ms);
      ("ops_per_sec", Json.Float r.r_ops_per_sec);
      ("gc_pause_usteps", summary_json r.r_gc_pause);
      ("messages", Json.Int r.r_messages);
      ("payloads", Json.Int r.r_payloads);
      ("bytes", Json.Int r.r_bytes);
      ("stub_table_msgs", Json.Int r.r_stub_table_msgs);
      ("stub_table_payloads", Json.Int r.r_stub_table_payloads);
      ("tables_delta_bytes", Json.Int r.r_delta_bytes);
      ("tables_full_wire_bytes", Json.Int r.r_full_wire_bytes);
      ("tables_delta_wire_bytes", Json.Int r.r_delta_wire_bytes);
      ("tables_resync_bytes", Json.Int r.r_resync_bytes);
      ("tables_full_bytes", Json.Int r.r_full_bytes);
      ("steady_delta_bytes", Json.Int r.r_steady_delta_bytes);
      ("steady_full_bytes", Json.Int r.r_steady_full_bytes);
      ("full_msgs", Json.Int r.r_full_sent);
      ("delta_msgs", Json.Int r.r_delta_sent);
      ("resyncs", Json.Int r.r_resyncs);
      ("gc_token_acquires", Json.Int r.r_gc_token_acquires);
      ("minor_words_per_op", Json.Float r.r_minor_words_per_op);
      ("wave_minor_words_per_op", Json.Float r.r_wave_minor_words_per_op);
      ("events", Json.Int r.r_events);
      ("event_log_words", Json.Int r.r_event_log_words);
      ("edges_inserted", Json.Int r.r_edges_inserted);
      ( "components",
        Json.Obj
          (List.map
             (fun (comp, bytes) ->
               (Net.Component.to_string comp, Json.Int bytes))
             r.r_components) );
    ]

let sweep_json ?(extra_configs = []) results =
  Json.Obj
    [
      ("experiment", Json.String "e20");
      ("rev", Json.String !rev);
      ("unit", Json.String "ops_per_sec_wallclock");
      ("configs", Json.List (List.map result_json results @ extra_configs));
    ]

(* Partitioned configuration for the smoke gate (§5 under degradation):
   split one node off mid-run, keep mutating and collecting on both
   sides of the cut, heal, and count the cleaner cycles the delta-table
   streams need before no further full-table resyncs happen.  The §5
   property — the collector acquires no DSM token — must survive the
   partition, and resync after heal must converge in a bounded number
   of cycles rather than degenerating into perpetual full tables. *)
let run_partitioned_config ~nodes ~objects_per_bunch ~ops =
  let cfg =
    {
      Driver.default with
      nodes;
      bunches = nodes;
      objects_per_bunch;
      ops;
      seed = 21;
    }
  in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  let stats = Cluster.stats c in
  Driver.run_ops d ~ops:(ops / 2) ();
  gc_wave c;
  let lone = nodes - 1 in
  let rest = List.filter (fun n -> n <> lone) (Cluster.nodes c) in
  Cluster.partition c ~groups:[ [ lone ]; rest ];
  Driver.run_ops d ~ops:(ops / 2) ();
  gc_wave c;
  gc_wave c;
  Cluster.heal_all_links c;
  ignore (Cluster.settle c);
  let rounds = ref 0 and quiet = ref false in
  while (not !quiet) && !rounds < 8 do
    let before =
      Stats.get stats "gc.cleaner.resyncs"
      + Stats.get stats "gc.cleaner.full_sent"
    in
    gc_wave c;
    incr rounds;
    if
      Stats.get stats "gc.cleaner.resyncs"
      + Stats.get stats "gc.cleaner.full_sent"
      = before
    then quiet := true
  done;
  Json.Obj
    [
      ("nodes", Json.Int nodes);
      ("objects_per_bunch", Json.Int objects_per_bunch);
      ("ops", Json.Int ops);
      ("partitioned", Json.Bool true);
      ( "gc_token_acquires",
        Json.Int
          (Stats.get stats "dsm.gc.acquire_read"
          + Stats.get stats "dsm.gc.acquire_write") );
      ("heal_resync_rounds", Json.Int !rounds);
      ("converged", Json.Bool !quiet);
    ]

let run_sweep ?(extra_configs = []) ~configs ~json_path () =
  let t =
    Table.create
      ~title:
        "E20 (§4.3/§8): scalability sweep — wall-clock throughput with \
         collector waves, GC pause p99 (virtual µsteps), wire totals and \
         steady-state cleaner bytes"
      ~columns:
        [
          "nodes";
          "objs/bunch";
          "ops";
          "ms";
          "ops/sec";
          "gc p99";
          "msgs";
          "payloads";
          "steady delta B";
          "steady full B";
          "gc tokens";
          "alloc w/op";
          "wave w/op";
          "edges ins";
        ]
  in
  let results =
    List.map
      (fun (nodes, objects_per_bunch, ops) ->
        let r = run_config ~nodes ~objects_per_bunch ~ops ~waves:4 in
        Table.add_row t
          [
            string_of_int r.r_nodes;
            string_of_int r.r_objects_per_bunch;
            string_of_int r.r_ops;
            Printf.sprintf "%.1f" r.r_elapsed_ms;
            Printf.sprintf "%.0f" r.r_ops_per_sec;
            (match r.r_gc_pause with
            | Some s -> Printf.sprintf "%.0f" s.Bmx_obs.Metrics.s_p99
            | None -> "-");
            string_of_int r.r_messages;
            string_of_int r.r_payloads;
            string_of_int r.r_steady_delta_bytes;
            string_of_int r.r_steady_full_bytes;
            string_of_int r.r_gc_token_acquires;
            Printf.sprintf "%.0f" r.r_minor_words_per_op;
            Printf.sprintf "%.0f" r.r_wave_minor_words_per_op;
            string_of_int r.r_edges_inserted;
          ];
        r)
      configs
  in
  let json = sweep_json ~extra_configs results in
  Printf.printf "BENCH %s\n" (Json.to_string json);
  (match json_path with
  | None -> ()
  | Some path -> upsert_json_line ~path ~experiment:"e20" json);
  [ t ]

(* Full sweep: the largest configuration is 64× the default
   objects-per-bunch and 4× the default node count (65536 objects) —
   feasible only because the driver's legality memo and the collectors'
   copy paths are no longer superlinear in the heap. *)
let e20 () =
  run_sweep
    ~configs:
      [
        (4, 64, 2000);
        (4, 320, 3000);
        (6, 640, 4000);
        (8, 1280, 5000);
        (16, 4096, 8000);
      ]
    ~json_path:(Some "BENCH_SCALE.json") ()

(* Phase timing at one configuration, with Perfcount deltas — the
   HACKING.md profiling recipe packaged as a command
   (`dune exec bench/main.exe -- e20-diag [nodes objs_per_bunch]`).
   Prints where a sweep leg's wall-clock goes: setup, mutator chunk,
   one collector wave, one full gc_round, quiescence.  Counters name
   the culprit when one of those is superlinear in the heap. *)
let e20_diag_at ~nodes ~objects_per_bunch =
  let module P = Perfcount in
  let stats = ref None in
  (* Stub-table bytes sent so far, by encoding and, the same bytes, by
     section. *)
  let by_encoding =
    [ ("full", "full_wire_bytes"); ("delta", "delta_wire_bytes"); ("resync", "resync_bytes") ]
  and by_section =
    [
      ("header", "bytes.header");
      ("inter", "bytes.inter");
      ("intra", "bytes.intra");
      ("exiting", "bytes.exiting");
    ]
  in
  let read counters =
    List.map
      (fun (_, name) ->
        match !stats with None -> 0 | Some s -> Stats.get s ("tables." ^ name))
      counters
  in
  let phase name f =
    let encodings0 = read by_encoding and sections0 = read by_section in
    let before = P.snapshot () in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f () in
    let ms = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6 in
    let minor = Gc.minor_words () -. w0 in
    let d = P.diff ~before ~after:(P.snapshot ()) in
    Printf.printf
      "%-22s %9.1f ms  gc_objs=%-9d gc_tbl=%-9d store_cells=%-9d        flat_words=%-10d reach=%-8d obs=%-8d minor_kw=%.0f
%!"
      name ms d.P.s_gc_objects_touched d.P.s_gc_table_entries
      d.P.s_store_cells_touched d.P.s_flat_words_copied
      d.P.s_reach_nodes_touched d.P.s_obs_sample_work (minor /. 1000.0);
    let pn =
      d.P.s_gc_ns_trace + d.P.s_gc_ns_flip + d.P.s_gc_ns_copy
      + d.P.s_gc_ns_scan + d.P.s_gc_ns_reconcile
    in
    let ms ns = float_of_int ns /. 1e6 in
    if pn > 0 then begin
      let sent counters before =
        String.concat " "
          (List.map2
             (fun (label, _) (now, was) -> Printf.sprintf "%s=%d" label (now - was))
             counters
             (List.combine (read counters) before))
      in
      Printf.printf
        "%-22s %12s gc-phase-ms: trace=%.1f flip=%.1f copy=%.1f scan=%.1f \
         reconcile=%.1f (recv delta=%.1f full=%.1f) table-bytes: %s (%s)\n\
         %!"
        "" "" (ms d.P.s_gc_ns_trace) (ms d.P.s_gc_ns_flip)
        (ms d.P.s_gc_ns_copy) (ms d.P.s_gc_ns_scan) (ms d.P.s_gc_ns_reconcile)
        (ms d.P.s_gc_ns_recv_delta) (ms d.P.s_gc_ns_recv_full)
        (sent by_encoding encodings0)
        (sent by_section sections0)
    end;
    r
  in
  Printf.printf "--- e20-diag: %d nodes x %d objs/bunch ---
%!" nodes
    objects_per_bunch;
  let cfg =
    {
      Driver.default with
      nodes;
      bunches = nodes;
      objects_per_bunch;
      seed = 20;
    }
  in
  let d = phase "setup" (fun () -> Driver.setup cfg) in
  let c = Driver.cluster d in
  stats := Some (Cluster.stats c);
  Cluster.set_event_trace c true;
  phase "mutate 2000 ops" (fun () -> Driver.run_ops d ~ops:2000 ());
  phase "mutate (no resync)" (fun () ->
      Driver.run_ops d ~resync_first:false ~ops:2000 ());
  phase "gc_wave (replicas)" (fun () -> gc_wave c);
  phase "gc_round (all nodes)" (fun () -> ignore (Cluster.gc_round c));
  phase "gc_round again" (fun () -> ignore (Cluster.gc_round c));
  phase "quiescence" (fun () -> ignore (Cluster.collect_until_quiescent c ()));
  (* Where the memory sits once the collector is quiescent: the GC
     state by kind, shared structure counted once per row, beside the
     whole cluster and the live heap (the last forces a major
     collection). *)
  let kib words = words * (Sys.word_size / 8) / 1024 in
  List.iter
    (fun (kind, words) ->
      Printf.printf "memory: %-18s %10d words %8d KiB\n" kind words (kib words))
    (Bmx_gc.Gc_state.words_held (Cluster.gc c)
    @ [
        ("cluster", Obj.reachable_words (Obj.repr c));
        ("live heap", (Gc.stat ()).Gc.live_words);
      ]);
  let net = Cluster.net c in
  Printf.printf "net: %d msgs, %d bytes, %d events
%!"
    (Net.total_messages net) (Net.total_bytes net)
    (Trace_event.length (Cluster.evlog c))

let e20_diag () =
  List.iter
    (fun (nodes, objects_per_bunch) -> e20_diag_at ~nodes ~objects_per_bunch)
    [ (8, 1280); (16, 4096) ];
  []

(* Miniature configuration for the @bench-smoke runtest alias, plus one
   partitioned run gating the degraded-mode invariants. *)
let e20_smoke () =
  run_sweep
    ~extra_configs:
      [ run_partitioned_config ~nodes:3 ~objects_per_bunch:48 ~ops:400 ]
    ~configs:[ (3, 48, 400) ] ~json_path:None ()

(* E22: sharded-registry scaling sweep — nodes × shards, with a fixed
   per-node working set.

   The point of sharding the registry and partitioning the location
   service is that no component's per-node traffic grows with N.  This
   sweep holds objects-per-bunch, per-node ops and the driver's locality
   window constant while widening the cluster to 16/32/64 nodes over a
   fixed shard count, then runs {!Net.scaling_check} over the points —
   including the per-shard rows, so a single hot shard soaking up an
   O(N) stream fails the gate even when the cluster-wide average looks
   flat.  Exits nonzero on a scaling violation or on any GC token
   acquire. *)

module Registry = Bmx_memory.Registry
module Persist = Bmx.Persist

type e22_result = {
  s_nodes : int;
  s_shards : int;
  s_ops : int;
  s_elapsed_ms : float;
  s_ops_per_sec : float;
  s_messages : int;
  s_payloads : int;
  s_bytes : int;
  s_gc_token_acquires : int;
  s_dsm : Perfcount.snapshot;  (* the DSM work counters over the run *)
  s_point : Net.scaling_point;
  s_shard_bytes : (int * (Net.Component.t * int) list) list;
  s_shard_msgs : (int * (Net.Component.t * int) list) list;
}

let e22_point ~nodes ~shards ~ops_per_node ~waves =
  let ops = ops_per_node * nodes in
  let cfg =
    {
      Driver.default with
      nodes;
      bunches = nodes;
      objects_per_bunch = 96;
      ops;
      seed = 22;
      shards;
      locality = 3;
    }
  in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  let stats = Cluster.stats c in
  let chunk = max 1 (ops / waves) in
  let perf0 = Perfcount.snapshot () in
  let t0 = now_ns () in
  for _ = 1 to waves do
    Driver.run_ops d ~resync_first:false ~ops:chunk ();
    gc_wave c
  done;
  let elapsed_ms = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6 in
  let dsm = Perfcount.diff ~before:perf0 ~after:(Perfcount.snapshot ()) in
  let net = Cluster.net c in
  {
    s_nodes = nodes;
    s_shards = shards;
    s_ops = ops;
    s_elapsed_ms = elapsed_ms;
    s_ops_per_sec =
      (if elapsed_ms <= 0.0 then 0.0
       else float_of_int ops /. (elapsed_ms /. 1000.0));
    s_messages = Net.total_messages net;
    s_payloads = payloads net;
    s_bytes = Net.total_bytes net;
    s_gc_token_acquires =
      Stats.get stats "dsm.gc.acquire_read"
      + Stats.get stats "dsm.gc.acquire_write";
    s_dsm = dsm;
    s_point = Net.scaling_point net ~nodes;
    s_shard_bytes = Net.shard_components net;
    s_shard_msgs = Net.shard_component_msgs net;
  }

let shard_rows_json rows =
  Json.Obj
    (List.map
       (fun (s, comps) ->
         ( Printf.sprintf "s%d" s,
           Json.Obj
             (List.map
                (fun (comp, v) -> (Net.Component.to_string comp, Json.Int v))
                comps) ))
       rows)

let e22_result_json r =
  Json.Obj
    [
      ("nodes", Json.Int r.s_nodes);
      ("shards", Json.Int r.s_shards);
      ("ops", Json.Int r.s_ops);
      ("elapsed_ms", Json.Float r.s_elapsed_ms);
      ("ops_per_sec", Json.Float r.s_ops_per_sec);
      ("messages", Json.Int r.s_messages);
      ("payloads", Json.Int r.s_payloads);
      ("bytes", Json.Int r.s_bytes);
      ("bytes_per_node", Json.Float (float_of_int r.s_bytes /. float_of_int r.s_nodes));
      ("gc_token_acquires", Json.Int r.s_gc_token_acquires);
      ("shard_bytes", shard_rows_json r.s_shard_bytes);
      ("shard_msgs", shard_rows_json r.s_shard_msgs);
      ( "components",
        Json.Obj
          (List.map
             (fun (comp, bytes) -> (Net.Component.to_string comp, Json.Int bytes))
             r.s_point.Net.sp_bytes) );
    ]

let scaling_rows_table ~title rows =
  let t =
    Table.create ~title
      ~columns:
        [ "component"; "shard"; "B/node first"; "B/node last"; "growth"; "verdict" ]
  in
  List.iter
    (fun (r : Net.scaling_row) ->
      Table.add_row t
        [
          Net.Component.to_string r.Net.sr_component;
          (match r.Net.sr_shard with
          | None -> "all"
          | Some s -> Printf.sprintf "s%d (hottest)" s);
          Printf.sprintf "%.0f" r.Net.sr_first_per_node;
          Printf.sprintf "%.0f" r.Net.sr_last_per_node;
          Printf.sprintf "%.2f" r.Net.sr_growth;
          (if r.Net.sr_ok then "ok" else "FAIL")
          ^ (if r.Net.sr_note = "" then "" else " — " ^ r.Net.sr_note);
        ])
    rows;
  t

let run_e22 ~sweep ~shards ~ops_per_node ~json_path ~extra_json =
  let results =
    List.map (fun nodes -> e22_point ~nodes ~shards ~ops_per_node ~waves:4) sweep
  in
  let points = List.map (fun r -> r.s_point) results in
  let rows, scaling_ok = Net.scaling_check points in
  let tokens = List.fold_left (fun a r -> a + r.s_gc_token_acquires) 0 results in
  let summary =
    Table.create
      ~title:
        (Printf.sprintf
           "E22: sharded registry + partitioned location service — %s nodes \
            over %d shard(s), fixed per-node working set (locality window 3)"
           (String.concat "/" (List.map string_of_int sweep))
           shards)
      ~columns:
        [
          "nodes";
          "shards";
          "ops";
          "ms";
          "ops/sec";
          "msgs";
          "payloads";
          "B/node";
          "gc tokens";
          "updates/op";
          "fwd fields/op";
          "copyset visits/op";
        ]
  in
  List.iter
    (fun r ->
      let per_op n = Printf.sprintf "%.3f" (float_of_int n /. float_of_int r.s_ops) in
      Table.add_row summary
        [
          string_of_int r.s_nodes;
          string_of_int r.s_shards;
          string_of_int r.s_ops;
          Printf.sprintf "%.1f" r.s_elapsed_ms;
          Printf.sprintf "%.0f" r.s_ops_per_sec;
          string_of_int r.s_messages;
          string_of_int r.s_payloads;
          Printf.sprintf "%.0f" (float_of_int r.s_bytes /. float_of_int r.s_nodes);
          string_of_int r.s_gc_token_acquires;
          per_op r.s_dsm.Perfcount.s_dsm_updates;
          per_op r.s_dsm.Perfcount.s_dsm_fields_forwarded;
          per_op r.s_dsm.Perfcount.s_dsm_copyset_visits;
        ])
    results;
  let growth =
    scaling_rows_table
      ~title:
        "E22: per-component per-node growth, cluster-wide and hottest-shard \
         rows (gc-cleaner exempt; everything else must stay flat)"
      rows
  in
  let json =
    Json.Obj
      ([
         ("experiment", Json.String "e22");
         ("rev", Json.String !rev);
         ("unit", Json.String "bytes_per_node_flat");
         ("scaling_ok", Json.Bool scaling_ok);
         ("gc_token_acquires", Json.Int tokens);
         ("configs", Json.List (List.map e22_result_json results));
       ]
      @ extra_json)
  in
  Printf.printf "BENCH %s\n" (Json.to_string json);
  (match json_path with
  | None -> ()
  | Some path -> upsert_json_line ~path ~experiment:"e22" json);
  if not scaling_ok then begin
    Table.print summary;
    Table.print growth;
    prerr_endline "e22: per-component scaling check failed";
    exit 1
  end;
  if tokens <> 0 then begin
    prerr_endline "e22: collector acquired DSM tokens";
    exit 1
  end;
  [ summary; growth ]

let e22 () =
  run_e22 ~sweep:[ 16; 32; 64 ] ~shards:8 ~ops_per_node:60
    ~json_path:(Some "BENCH_SCALE.json") ~extra_json:[]

(* @scale-smoke: a small 3-point sweep gating the no-growth contract and
   tokens=0, plus a shard crash/recovery convergence check — the shard
   service dies mid-run with journals attached, mutation continues
   degraded, recovery replays the journal, fsck must be clean, and a
   collector wave plus fresh carves must succeed afterwards. *)
let e22_smoke () =
  let crash_recovery_json =
    let nodes = 16 and shards = 2 in
    let cfg =
      {
        Driver.default with
        nodes;
        bunches = nodes;
        objects_per_bunch = 32;
        ops = 400;
        seed = 23;
        shards;
        locality = 3;
      }
    in
    let d = Driver.setup cfg in
    let c = Driver.cluster d in
    Cluster.set_event_trace c true;
    let reg = Protocol.registry (Cluster.proto c) in
    let disks = Persist.attach_shard_journals c in
    Driver.run_ops d ~ops:200 ();
    let victim = 0 in
    Cluster.crash_shard c ~shard:victim;
    (* Degraded window: mutation continues (ops never carve), and the
       service being down is observable as a refused carve. *)
    let refused =
      match
        Registry.alloc_range reg ~bunch:victim ~origin:0 ()
      with
      | exception Failure _ -> true
      | _ -> false
    in
    Driver.run_ops d ~resync_first:false ~ops:100 ();
    let owner = Registry.shard_owner reg victim in
    let replayed = Persist.recover_shard c ~shard:victim ~node:owner disks.(victim) in
    let fsck = Persist.verify_shard c ~shard:victim disks.(victim) in
    (* Convergence: the recovered shard serves carves again and a full
       collector wave (whose to-space carves route through it) runs. *)
    let carved =
      match Registry.alloc_range reg ~bunch:victim ~origin:0 () with
      | _ -> true
      | exception Failure _ -> false
    in
    gc_wave c;
    Driver.run_ops d ~resync_first:false ~ops:100 ();
    let lint =
      Bmx_check.Lint.check_log (Cluster.evlog c)
      |> List.filter (fun v ->
             v.Bmx_check.Lint.rule = Bmx_check.Lint.Shard_ownership)
    in
    let ok =
      refused && carved && fsck.Persist.s_missing = [] && lint = []
      && Registry.shard_up reg victim
    in
    if not ok then begin
      Printf.eprintf
        "e22-smoke: shard crash/recovery failed — refused=%b carved=%b \
         fsck_missing=%d lint=%d up=%b\n"
        refused carved
        (List.length fsck.Persist.s_missing)
        (List.length lint)
        (Registry.shard_up reg victim);
      exit 1
    end;
    Json.Obj
      [
        ("shard_crash_recovery", Json.Bool ok);
        ("journal_replayed", Json.Int replayed);
        ("fsck_checked", Json.Int fsck.Persist.s_checked);
        ("fsck_missing", Json.Int (List.length fsck.Persist.s_missing));
      ]
  in
  run_e22 ~sweep:[ 8; 12; 16 ] ~shards:2 ~ops_per_node:25 ~json_path:None
    ~extra_json:[ ("crash_recovery", crash_recovery_json) ]

(* E24: per-component wire attribution across a node sweep — the
   scaling shape gate.  Every message kind is totally mapped to a
   component (dsm / gc-cleaner / gc-bgc / registry / rvm / app); a
   3-point sweep widening only the cluster checks that gc-cleaner
   traffic grows with sharing (it is O(inter-node references), which the
   sweep increases) while no other component's per-node bytes grow
   superlinearly in N.  Exits nonzero when a component breaks its
   scaling contract — this is how an accidental O(N) broadcast sneaks
   into a "background" path gets caught. *)
let e24 () =
  let point nodes =
    let cfg =
      {
        Driver.default with
        nodes;
        bunches = nodes;
        objects_per_bunch = 48;
        ops = 400;
        seed = 24;
      }
    in
    let d = Driver.setup cfg in
    let c = Driver.cluster d in
    let ts = Cluster.enable_timeseries c in
    Driver.run_ops d ();
    for _ = 1 to 3 do
      gc_wave c
    done;
    ignore (Cluster.collect_until_quiescent c ());
    Bmx_obs.Timeseries.freeze ts;
    Net.scaling_point (Cluster.net c) ~nodes
  in
  let sweep = [ 3; 4; 6 ] in
  let points = List.map point sweep in
  let rows, ok = Net.scaling_check points in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E24: per-component wire scaling — bytes/node across a %s-node \
            sweep (gc-cleaner must grow with sharing; nothing else \
            superlinear in N)"
           (String.concat "/" (List.map string_of_int sweep)))
      ~columns:
        [ "component"; "B/node first"; "B/node last"; "growth"; "verdict" ]
  in
  List.iter
    (fun (r : Net.scaling_row) ->
      Table.add_row t
        [
          Net.Component.to_string r.Net.sr_component;
          Printf.sprintf "%.0f" r.Net.sr_first_per_node;
          Printf.sprintf "%.0f" r.Net.sr_last_per_node;
          Printf.sprintf "%.2f" r.Net.sr_growth;
          (if r.Net.sr_ok then "ok" else "FAIL")
          ^ (if r.Net.sr_note = "" then "" else " — " ^ r.Net.sr_note);
        ])
    rows;
  if not ok then begin
    Table.print t;
    prerr_endline "e24: per-component scaling check failed";
    exit 1
  end;
  [ t ]
