(* Continuous telemetry: virtual-time series windows and the flight
   recorder.

   The series tests pin the contract that makes window queries trustable:
   merged window reservoirs reproduce the whole-run Stats.Summary
   estimator exactly whenever nothing evicted (same round-to-nearest-rank
   rule), the JSONL export parses back to the values the queries give,
   eviction under pressure is deterministic per seed, and the live
   latency series agrees with the whole-run Report family by family —
   both drive Span's one pairing, duplicated deliveries included.  The flight tests pin the
   auto triggers (§5 alarm, truncating recovery), the ring/dump bounds,
   and that a dump slice replays through the lint and happens-before
   certifiers — clean slices come back clean, a §5 violation slice names
   Gc_acquired_token. *)

open Bmx_util
module T = Trace_event
module Ts = Bmx_obs.Timeseries
module Flight = Bmx_obs.Flight
module Metrics = Bmx_obs.Metrics
module Report = Bmx_obs.Report
module Json = Bmx_obs.Json
module Cluster = Bmx.Cluster
module Net = Bmx_netsim.Net
module Driver = Bmx_workload.Driver

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ------------------------------------------------------------- series *)

(* Deterministic sample stream: spread over [windows] windows of [w]
   µsteps, [per] samples each, values drawn from a private Rng. *)
let feed_samples ts ~w ~windows ~per =
  let rng = Rng.make 99 in
  let all = ref [] in
  for win = 0 to windows - 1 do
    for k = 0 to per - 1 do
      let at = (win * w) + (k * w / per) in
      let v = float_of_int (Rng.int rng 10_000) in
      Ts.observe ts at ("latency.test", None) v;
      all := v :: !all
    done
  done;
  Ts.freeze ts;
  List.rev !all

let test_percentiles_match_summary_oracle () =
  (* 5 windows x 50 samples: under the per-window reservoir cap (128)
     and the whole-run Summary cap (1024), so neither side evicts and
     both must agree exactly at every percentile. *)
  let w = 1000 in
  let ts = Ts.create ~window:w () in
  let samples = feed_samples ts ~w ~windows:5 ~per:50 in
  let oracle = Stats.Summary.create () in
  List.iter (Stats.Summary.add oracle) samples;
  check_int "all samples offered" 250
    (Ts.sample_count ts ~since:0 ~until:(5 * w) "latency.test");
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%g equals whole-run reservoir" p)
        (Stats.Summary.percentile oracle p)
        (Ts.percentile ts ~since:0 ~until:(5 * w) "latency.test" p))
    [ 0.; 50.; 90.; 99.; 99.9; 100. ]

let test_window_restriction () =
  (* Window k carries only the value k: an interval query must see
     exactly the windows it overlaps. *)
  let w = 100 in
  let ts = Ts.create ~window:w () in
  for win = 0 to 3 do
    for _ = 1 to 10 do
      Ts.observe ts (win * w) ("latency.test", None) (float_of_int win)
    done
  done;
  Ts.freeze ts;
  check (Alcotest.float 0.0) "single window" 2.
    (Ts.percentile ts ~since:200 ~until:300 "latency.test" 50.);
  check_int "interval sample count" 20
    (Ts.sample_count ts ~since:100 ~until:300 "latency.test");
  check (Alcotest.float 0.0) "two-window max" 2.
    (Ts.percentile ts ~since:100 ~until:300 "latency.test" 100.)

let test_counter_windows () =
  (* Counters sample as per-window deltas of the shared registry. *)
  let m = Metrics.create () in
  let ts = Ts.create ~window:100 ~metrics:m () in
  Ts.note ts 0;
  Metrics.incr m ~by:0 "ops";
  (* Close window 0: the new cell registers with its baseline here. *)
  Ts.note ts 100;
  Metrics.incr m ~by:20 "ops";
  Ts.note ts 200;
  Metrics.incr m ~by:5 "ops";
  Ts.note ts 300;
  Metrics.set_gauge m "level" 42;
  Ts.freeze ts;
  check_int "window 1 delta" 20 (Ts.counter_sum ts ~since:100 ~until:200 "ops");
  check_int "window 2 delta" 5 (Ts.counter_sum ts ~since:200 ~until:300 "ops");
  check_int "total" 25 (Ts.counter_sum ts ~since:0 ~until:400 "ops");
  check (Alcotest.option Alcotest.int) "gauge level at last close" (Some 42)
    (Ts.gauge_last ts ~since:0 ~until:400 "level")

let test_jsonl_round_trip () =
  let m = Metrics.create () in
  let ts = Ts.create ~window:100 ~metrics:m () in
  Ts.note ts 0;
  Metrics.incr m ~by:0 "ops";
  Ts.note ts 100;
  Metrics.incr m ~by:7 "ops";
  Metrics.set_gauge m ~node:2 "depth" 3;
  for k = 0 to 9 do
    Ts.observe ts (100 + (k * 10)) ("latency.test", None) (float_of_int k)
  done;
  Ts.note ts 300;
  Ts.freeze ts;
  let windows =
    String.split_on_char '\n' (Ts.to_jsonl ts)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Json.parse l with
           | Ok j -> j
           | Error e -> Alcotest.failf "unparseable window %S: %s" l e)
  in
  check_int "one line per window" (Ts.closed_windows ts) (List.length windows);
  let entries field name ?node () =
    List.concat_map
      (fun w ->
        match Json.member field w with
        | Some (Json.List l) ->
            List.filter
              (fun e ->
                Json.member "name" e = Some (Json.String name)
                && Json.member "node" e = Option.map (fun n -> Json.Int n) node)
              l
        | _ -> Alcotest.failf "window lacks %s" field)
      windows
  in
  let int_of field e =
    match Json.member field e with
    | Some (Json.Int v) -> v
    | _ -> Alcotest.failf "entry lacks %s" field
  in
  check_int "counter survives"
    (Ts.counter_sum ts ~since:0 ~until:400 "ops")
    (List.fold_left (fun acc e -> acc + int_of "v" e) 0
       (entries "counters" "ops" ()));
  check (Alcotest.option Alcotest.int) "node-labelled gauge survives"
    (Ts.gauge_last ts ~since:0 ~until:400 ~node:2 "depth")
    (match List.rev (entries "gauges" "depth" ~node:2 ()) with
    | e :: _ -> Some (int_of "v" e)
    | [] -> None);
  let histos = entries "histos" "latency.test" () in
  check_int "samples survive"
    (Ts.sample_count ts ~since:0 ~until:400 "latency.test")
    (List.fold_left (fun acc e -> acc + int_of "n" e) 0 histos);
  let samples =
    List.concat_map
      (fun e ->
        match Json.member "samples" e with
        | Some (Json.List l) ->
            List.map
              (function
                | Json.Float f -> f
                | Json.Int i -> float_of_int i
                | _ -> Alcotest.fail "non-numeric sample")
              l
        | _ -> Alcotest.fail "histogram lacks samples")
      histos
  in
  check (Alcotest.float 0.0) "percentiles survive"
    (Ts.percentile ts ~since:0 ~until:400 "latency.test" 90.)
    (Stats.Summary.nearest_rank (Array.of_list samples) 90.)

let test_eviction_deterministic_per_seed () =
  (* 400 samples into a 16-slot reservoir: heavy eviction.  Identical
     seeds must retain identical samples (and so identical JSONL). *)
  let run seed =
    let ts = Ts.create ~window:1000 ~reservoir:16 ~seed () in
    ignore (feed_samples ts ~w:1000 ~windows:2 ~per:200);
    ts
  in
  let a = run 1 in
  check_string "same seed, same series" (Ts.to_jsonl a) (Ts.to_jsonl (run 1));
  check_bool "another seed retains other samples" true
    (Ts.to_jsonl a <> Ts.to_jsonl (run 2));
  check_int "offered count independent of eviction" 400
    (Ts.sample_count a ~since:0 ~until:2000 "latency.test")

(* Words allocated so far.  Not [Gc.allocated_bytes]: on OCaml 5.1 its
   minor-heap term undercounts what the current minor heap holds, so an
   allocation between two minor collections barely shows. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A window holds reservoirs only for the columns it sampled.  With 200
   histogram columns registered, 50 windows of 20 samples each into one
   column must allocate a small constant per sample, not a 128-float
   reservoir per column per window (about 50 x 200 x 129 words). *)
let test_idle_columns_allocate_nothing () =
  let w = 100 and columns = 200 and windows = 50 and per = 20 in
  let ts = Ts.create ~window:w () in
  let keys = Array.init columns (fun k -> (Printf.sprintf "h%d" k, None)) in
  Array.iter (fun key -> Ts.observe ts 0 key 1.) keys;
  let key = keys.(columns - 1) in
  let before = allocated_words () in
  for win = 1 to windows do
    for k = 0 to per - 1 do
      Ts.observe ts ((win * w) + k) key (float_of_int k)
    done
  done;
  let words = allocated_words () -. before in
  let samples = windows * per in
  let budget = float_of_int (32 * samples) in
  check_bool
    (Printf.sprintf "%.0f words allocated for %d samples (budget %.0f)" words
       samples budget)
    true (words <= budget);
  Ts.freeze ts;
  check_int "every sample offered" samples
    (Ts.sample_count ts ~since:w ~until:((windows + 1) * w) (fst key));
  check (Alcotest.float 0.0) "window maximum retained" (float_of_int (per - 1))
    (Ts.percentile ts ~since:w ~until:(2 * w) (fst key) 100.)

(* The live series and the whole-run report pair the same intervals.
   Over a run whose reservoirs never evict (1024 slots per window, fewer
   samples per family than Summary's 1024), every latency family has
   the same count, p50 and p99 in both.  The second leg duplicates stub
   tables (unreliable by design, §6.1): a duplicate closes nothing, so
   neither side may sample it. *)
let test_live_series_matches_report () =
  let families =
    [
      "token_acquire.read";
      "token_acquire.write";
      "token_acquire.gc";
      "gc.pause";
      "msg.stub_table";
      "msg.scion_message";
    ]
  in
  let run ~dup =
    let d =
      Driver.setup
        {
          Driver.default with
          nodes = 3;
          bunches = 3;
          objects_per_bunch = 24;
          ops = 400;
          seed = 7;
        }
    in
    let c = Driver.cluster d in
    Cluster.set_event_trace c true;
    let ts = Cluster.enable_timeseries ~reservoir:1024 c in
    if dup then
      Net.set_fault (Cluster.net c) ~kind:Net.Stub_table ~drop:0. ~dup:0.3
        ~rng:(Rng.make 5);
    Driver.run_ops d ();
    ignore (Cluster.collect_until_quiescent c ());
    Net.clear_faults (Cluster.net c);
    ignore (Cluster.settle c);
    Ts.freeze ts;
    let report =
      Report.of_iter ~metrics:(Cluster.metrics c) (T.iter (Cluster.evlog c))
    in
    let leg = if dup then "dup" else "clean" in
    if dup then
      check_bool "stub tables were duplicated" true
        (Stats.get (Cluster.stats c) "net.duplicated.stub_table" > 0);
    let since, until =
      match Ts.span ts with
      | Some r -> r
      | None -> Alcotest.fail "no windows closed"
    in
    check_bool "the ring kept every window" true
      (Ts.closed_windows ts <= 512);
    List.iter
      (fun fam ->
        let name = "latency." ^ fam in
        let live = Ts.sample_count ts ~since ~until name in
        match Report.latency report fam with
        | None -> check_int (Printf.sprintf "%s %s: no samples" leg fam) 0 live
        | Some s ->
            check_bool (leg ^ " " ^ fam ^ ": under the reservoir") true
              (s.Metrics.s_count <= Stats.Summary.reservoir_capacity);
            check_int (Printf.sprintf "%s %s count" leg fam) s.Metrics.s_count live;
            List.iter
              (fun (p, v) ->
                check (Alcotest.float 0.0)
                  (Printf.sprintf "%s %s p%g" leg fam p)
                  v
                  (Ts.percentile ts ~since ~until name p))
              [ (50., s.Metrics.s_p50); (99., s.Metrics.s_p99) ])
      families;
    Report.latency report "msg.stub_table"
  in
  (match (run ~dup:false, run ~dup:true) with
  | Some clean, Some dup ->
      check_bool "both legs carry stub-table flights" true
        (clean.Metrics.s_count > 0 && dup.Metrics.s_count > 0)
  | _ -> Alcotest.fail "no stub-table flights")

(* ------------------------------------------------------------- flight *)

(* A lint-clean, certifier-clean event slice: an App acquire/release with
   a valid address, one FIFO-respecting message, one collection. *)
let benign_events =
  [
    (1, T.Acquire_start { actor = T.App; node = 0; uid = 1; tok = T.Read });
    ( 2,
      T.Acquire_done
        { actor = T.App; node = 0; uid = 1; tok = T.Read; addr_valid = true } );
    (3, T.Release { node = 0; uid = 1 });
    (4, T.Msg_sent { src = 0; dst = 1; kind = "stub_table"; seq = 1; rel = false });
    ( 5,
      T.Msg_delivered
        { src = 0; dst = 1; kind = "stub_table"; seq = 1; rel = false } );
    (6, T.Gc_begin { node = 1; group = false; bunches = [ 0 ] });
    (7, T.Gc_end { node = 1; group = false; live = 2; reclaimed = 0 });
  ]

let slice_events dump =
  String.split_on_char '\n' dump.Flight.text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match T.of_line line with
           | Ok e -> Some e
           | Error m -> Alcotest.failf "unparseable dump line %S: %s" line m)

let test_auto_trip_on_gc_token_acquire () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "some.counter";
  let f = Flight.create ~metrics:m () in
  List.iter (fun (ts, e) -> Flight.record f ts e) benign_events;
  check_int "no dump before the alarm" 0 (List.length (Flight.dumps f));
  (* The §5 alarm: the collector entered the token-acquire path. *)
  Flight.record f 8
    (T.Acquire_start { actor = T.Gc; node = 1; uid = 7; tok = T.Read });
  match Flight.dumps f with
  | [ d ] ->
      check_string "trip reason names node and object" "gc-token-acquire:n1:o7"
        d.Flight.reason;
      check_int "tripped at the alarm event" 8 d.Flight.at;
      check_bool "metrics snapshot embedded" true
        (let re = "# metrics=" in
         let rec find i =
           i + String.length re <= String.length d.Flight.text
           && (String.sub d.Flight.text i (String.length re) = re
              || find (i + 1))
         in
         find 0);
      (* The slice replays through the linter and names the finding. *)
      let events = slice_events d in
      let vs = Bmx_check.Lint.run events in
      check_bool "lint names gc-acquired-token" true
        (List.exists
           (fun v -> v.Bmx_check.Lint.rule = Bmx_check.Lint.Gc_acquired_token)
           vs)
  | ds -> Alcotest.failf "expected exactly one dump, got %d" (List.length ds)

let test_auto_trip_on_truncating_recovery () =
  let f = Flight.create () in
  Flight.record f 1 (T.Crash { node = 2 });
  Flight.record f 2 (T.Restart { node = 2 });
  (* A clean recovery must not trip... *)
  Flight.record f 3 (T.Rvm_recover { node = 2; dropped = 0; lost = 0 });
  check_int "clean recovery is quiet" 0 (List.length (Flight.dumps f));
  (* ...a truncating one must. *)
  Flight.record f 4 (T.Rvm_recover { node = 2; dropped = 3; lost = 1 });
  match Flight.dumps f with
  | [ d ] -> check_string "reason" "rvm-truncation:n2" d.Flight.reason
  | ds -> Alcotest.failf "expected exactly one dump, got %d" (List.length ds)

let test_clean_slice_replays_clean () =
  let f = Flight.create () in
  List.iter (fun (ts, e) -> Flight.record f ts e) benign_events;
  Flight.trip f "external:test";
  match Flight.dumps f with
  | [ d ] ->
      let events = slice_events d in
      check_int "whole slice retained" (List.length benign_events)
        (List.length events);
      check_int "lint clean" 0 (List.length (Bmx_check.Lint.run events));
      let cert = Bmx_check.Races.certify ~overflowed:false events in
      check_bool "certifier clean" true (Bmx_check.Races.ok cert)
  | ds -> Alcotest.failf "expected exactly one dump, got %d" (List.length ds)

let test_ring_and_dump_bounds () =
  let f = Flight.create ~per_node:4 ~max_dumps:2 () in
  for i = 1 to 20 do
    Flight.record f i (T.Release { node = 0; uid = i })
  done;
  Flight.trip f "first";
  Flight.trip f "second";
  Flight.trip f "third (dropped)";
  let ds = Flight.dumps f in
  check_int "max_dumps bounds a trip storm" 2 (List.length ds);
  let d = List.hd ds in
  let events = slice_events d in
  check_int "ring keeps only the last per_node events" 4 (List.length events);
  (* The retained slice is the most recent suffix. *)
  check_bool "latest event present" true
    (List.exists (function T.Release { uid = 20; _ } -> true | _ -> false) events)

let test_pair_events_land_in_both_rings () =
  let f = Flight.create ~per_node:4 () in
  (* 8 node-0-only events overflow node 0's ring; the pair event with
     node 5 survives in node 5's ring. *)
  Flight.record f 1
    (T.Msg_sent { src = 0; dst = 5; kind = "stub_table"; seq = 1; rel = false });
  for i = 2 to 9 do
    Flight.record f i (T.Release { node = 0; uid = i })
  done;
  Flight.trip f "pair";
  let events = slice_events (List.hd (Flight.dumps f)) in
  check_bool "peer ring preserved the pair event" true
    (List.exists (function T.Msg_sent _ -> true | _ -> false) events)

let () =
  Alcotest.run "timeseries"
    [
      ( "series",
        [
          Alcotest.test_case "window percentiles match Summary oracle" `Quick
            test_percentiles_match_summary_oracle;
          Alcotest.test_case "interval queries respect windows" `Quick
            test_window_restriction;
          Alcotest.test_case "counter deltas and gauge levels" `Quick
            test_counter_windows;
          Alcotest.test_case "JSONL round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "eviction deterministic per seed" `Quick
            test_eviction_deterministic_per_seed;
          Alcotest.test_case "idle columns allocate nothing" `Quick
            test_idle_columns_allocate_nothing;
          Alcotest.test_case "live series matches whole-run report" `Quick
            test_live_series_matches_report;
        ] );
      ( "flight",
        [
          Alcotest.test_case "auto trip on GC token acquire" `Quick
            test_auto_trip_on_gc_token_acquire;
          Alcotest.test_case "auto trip on truncating recovery" `Quick
            test_auto_trip_on_truncating_recovery;
          Alcotest.test_case "clean slice replays clean" `Quick
            test_clean_slice_replays_clean;
          Alcotest.test_case "ring and dump bounds" `Quick
            test_ring_and_dump_bounds;
          Alcotest.test_case "pair events land in both rings" `Quick
            test_pair_events_land_in_both_rings;
        ] );
    ]
