(* Observability layer: JSON, metrics registry, span derivation, Perfetto
   export, trace round-trip, virtual timestamps, reservoir summaries. *)

open Bmx_util
module Json = Bmx_obs.Json
module Metrics = Bmx_obs.Metrics
module Span = Bmx_obs.Span
module Perfetto = Bmx_obs.Perfetto
module Report = Bmx_obs.Report
module T = Trace_event

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ------------------------------------------------------------------ json *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("s", Json.String "a \"b\"\n\tc\\d");
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check_bool "round-trips" true (v = v')
  | Error m -> Alcotest.failf "reparse failed: %s" m

let test_json_parse_misc () =
  check_bool "int stays int" true (Json.parse "7" = Ok (Json.Int 7));
  check_bool "exp is float" true (Json.parse "1e3" = Ok (Json.Float 1000.));
  check_bool "ws tolerated" true
    (Json.parse "  [ 1 , 2 ]  " = Ok (Json.List [ Json.Int 1; Json.Int 2 ]));
  check_bool "unicode escape" true
    (Json.parse "\"\\u0041\\n\"" = Ok (Json.String "A\n"));
  check_bool "trailing junk rejected" true
    (match Json.parse "1 2" with Error _ -> true | Ok _ -> false);
  check_bool "unterminated rejected" true
    (match Json.parse "[1," with Error _ -> true | Ok _ -> false);
  check_string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_bool "member" true
    (Json.member "a" (Json.Obj [ ("a", Json.Int 1) ]) = Some (Json.Int 1))

(* --------------------------------------------------------------- metrics *)

let test_metrics_basic () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:2 "c";
  Metrics.incr m ~node:1 "c";
  Metrics.set_gauge m "g" 5;
  Metrics.set_gauge m "g" 7;
  Metrics.gauge_fn m "gf" (fun () -> 11);
  List.iter (fun v -> Metrics.observe m "h" v) [ 1.; 2.; 3.; 4. ];
  let snap = Metrics.snapshot m in
  check_bool "counter" true (Metrics.get snap "c" = Some (Metrics.Counter 3));
  check_bool "labelled counter" true
    (Metrics.get snap ~node:1 "c" = Some (Metrics.Counter 1));
  check_int "counter_total sums labels" 4 (Metrics.counter_total snap "c");
  check_bool "gauge keeps last" true
    (Metrics.get snap "g" = Some (Metrics.Gauge 7));
  check_bool "gauge_fn sampled" true
    (Metrics.get snap "gf" = Some (Metrics.Gauge 11));
  (match Metrics.get snap "h" with
  | Some (Metrics.Histogram s) ->
      check_int "histo count" 4 s.Metrics.s_count;
      check_bool "histo p50" true (s.Metrics.s_p50 >= 2. && s.Metrics.s_p50 <= 3.);
      check_bool "histo max" true (s.Metrics.s_max = 4.)
  | _ -> Alcotest.fail "histogram missing");
  (* Snapshot ordering: sorted by name, unlabelled before labelled. *)
  let keys = List.map fst snap in
  check_bool "sorted" true (keys = List.sort compare keys)

let test_metrics_diff_and_json () =
  let m = Metrics.create () in
  Metrics.incr m ~by:5 "c";
  Metrics.set_gauge m "g" 1;
  let before = Metrics.snapshot m in
  Metrics.incr m ~by:2 "c";
  Metrics.set_gauge m "g" 9;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  check_bool "counter delta" true (Metrics.get d "c" = Some (Metrics.Counter 2));
  check_bool "gauge is a level" true (Metrics.get d "g" = Some (Metrics.Gauge 9));
  (* JSON export parses and names every metric. *)
  match Json.parse (Json.to_string (Metrics.to_json after)) with
  | Ok (Json.List entries) ->
      check_int "one entry per metric" (List.length after) (List.length entries);
      List.iter
        (fun e ->
          match Json.member "name" e with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.fail "entry without name")
        entries
  | _ -> Alcotest.fail "metrics JSON unparseable"

let test_metrics_kind_conflict () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "kind conflict"
    (Invalid_argument "Metrics: \"x\" already registered as a non-gauge")
    (fun () -> Metrics.set_gauge m "x" 1)

(* -------------------------------------------- trace round-trip (generated) *)

(* Every constructor, with parameter grids; to_line ∘ of_line = id. *)
let generated_events () =
  let nodes = [ 0; 7 ] and uids = [ 0; 123 ] in
  let acts = [ T.App; T.Gc ] and toks = [ T.Read; T.Write ] in
  let bools = [ true; false ] in
  let kinds = [ "token_grant"; "stub_table" ] in
  let lists = [ []; [ 1 ]; [ 2; 5; 9 ] ] in
  let cart f xs ys = List.concat_map (fun x -> List.map (f x) ys) xs in
  List.concat
    [
      cart (fun actor (node, (uid, tok)) -> T.Acquire_start { actor; node; uid; tok })
        acts
        (cart (fun n ut -> (n, ut)) nodes (cart (fun u k -> (u, k)) uids toks));
      cart
        (fun actor (tok, addr_valid) ->
          T.Acquire_done { actor; node = 3; uid = 9; tok; addr_valid })
        acts
        (cart (fun t b -> (t, b)) toks bools);
      cart (fun node uid -> T.Release { node; uid }) nodes uids;
      cart
        (fun tok updates ->
          T.Grant_sent { granter = 1; requester = 2; uid = 4; tok; updates })
        toks [ 0; 3 ];
      [ T.Hook_ssp { granter = 0; requester = 1; uid = 2 } ];
      [ T.Invalidate { src = 1; dst = 2; uid = 3 } ];
      List.map (fun uids -> T.Updates_applied { node = 1; uids }) lists;
      List.map (fun peers -> T.Forward_due { node = 2; uid = 5; peers }) lists;
      [ T.Copyset_forward { src = 0; dst = 1; uid = 2 } ];
      cart (fun group bunches -> T.Gc_begin { node = 1; group; bunches }) bools
        lists;
      cart (fun group live -> T.Gc_end { node = 2; group; live; reclaimed = 7 })
        bools [ 0; 50 ];
      cart
        (fun kind rel -> T.Msg_sent { src = 0; dst = 1; kind; seq = 3; rel })
        kinds bools;
      cart
        (fun kind rel -> T.Msg_delivered { src = 1; dst = 0; kind; seq = 9; rel })
        kinds bools;
      List.map
        (fun kind -> T.Msg_retransmit { src = 0; dst = 2; kind; seq = 4; attempt = 2 })
        kinds;
      [ T.Msg_suppressed { src = 0; dst = 1; kind = "addr_update"; seq = 8 } ];
      [ T.Msg_buffered { src = 2; dst = 0; kind = "scion_message"; seq = 6 } ];
      [ T.Rpc { src = 1; dst = 2; kind = "token_request"; seq = 5 } ];
      List.map (fun node -> T.Crash { node }) nodes;
      List.map (fun node -> T.Restart { node }) nodes;
      List.map (fun dst -> T.Link_cut { src = 1; dst }) nodes;
      List.map (fun dst -> T.Link_heal { src = 1; dst }) nodes;
      cart (fun src on -> T.Suspect { src; dst = 2; on }) nodes bools;
      cart
        (fun node (uid, prev) -> T.Owner_adopted { node; uid; prev })
        nodes
        (cart (fun u p -> (u, p)) uids [ -1; 7 ]);
      cart
        (fun sender seq ->
          T.Tables_processed { at = 0; sender; bunch = 3; seq })
        nodes [ 1; 42 ];
      List.map
        (fun fault -> T.Disk_fault { node = 1; fault })
        [ "flip_bits:0"; "truncate_mid_record" ];
      cart
        (fun node dropped -> T.Rvm_recover { node; dropped; lost = 1 })
        nodes [ 0; 5 ];
      cart (fun node missing -> T.Bunch_verified { node; missing }) nodes
        [ 0; 2 ];
      cart (fun shard node -> T.Shard_alloc { shard; node }) [ 0; 7 ] nodes;
      cart (fun shard node -> T.Shard_adopted { shard; node }) [ 0; 7 ] nodes;
      cart
        (fun actor covered ->
          T.Read_obs { actor; node = 1; uid = 4; version = 3; covered })
        acts bools;
      cart
        (fun actor covered ->
          T.Write_obs { actor; node = 2; uid = 6; version = 8; covered })
        acts bools;
    ]

let test_trace_roundtrip_all_constructors () =
  let events = generated_events () in
  check_bool "covers a healthy grid" true (List.length events > 50);
  List.iter
    (fun e ->
      match T.of_line (T.to_line e) with
      | Ok e' ->
          if e <> e' then
            Alcotest.failf "round-trip changed %S into %S" (T.to_line e)
              (T.to_line e')
      | Error m -> Alcotest.failf "unparseable %S: %s" (T.to_line e) m)
    events;
  (* The grid reaches every constructor (paranoia against a new variant
     being forgotten here): count distinct leading words. *)
  let heads =
    List.sort_uniq compare
      (List.map
         (fun e -> List.hd (String.split_on_char ' ' (T.to_line e)))
         events)
  in
  check_int "all 31 constructors serialized" 31 (List.length heads)

(* ----------------------------------------------------- virtual timestamps *)

let test_trace_timestamps () =
  let l = T.create_log () in
  T.set_enabled l true;
  let clock = ref 0 in
  T.set_clock l (fun () -> !clock);
  T.record l (T.Crash { node = 0 });
  T.record l (T.Restart { node = 0 });
  clock := 2;
  T.record l (T.Crash { node = 1 });
  T.record l (T.Restart { node = 1 });
  (match T.timed_events l with
  | [ (t1, _); (t2, _); (t3, _); (t4, _) ] ->
      check_int "first event at one µstep" 1 t1;
      check_int "second strictly after" 2 t2;
      check_int "clock jump lands on quantum" (2 * T.quantum) t3;
      check_int "then strictly increasing" ((2 * T.quantum) + 1) t4
  | _ -> Alcotest.fail "expected 4 events");
  check_int "events unchanged" 4 (List.length (T.events l));
  T.clear l;
  clock := 0;
  T.record l (T.Crash { node = 2 });
  check_bool "clear resets the cursor" true
    (match T.timed_events l with [ (1, _) ] -> true | _ -> false)

(* ------------------------------------------------ packed log = boxed events *)

(* Events at the edges of the packing: nodes that fit a header slot and
   nodes that take the wide path, extreme ints, empty lists. *)
let edge_events () =
  List.concat_map
    (fun node ->
      [
        T.Crash { node };
        T.Msg_sent
          { src = node; dst = 0; kind = "stub_table"; seq = max_int; rel = true };
        T.Msg_delivered
          { src = 3; dst = node; kind = "stub_table"; seq = min_int; rel = false };
        T.Read_obs
          { actor = T.Gc; node; uid = 1; version = min_int; covered = true };
        T.Write_obs
          { actor = T.App; node; uid = max_int; version = max_int; covered = false };
        T.Disk_fault { node; fault = "copy" };
        T.Rvm_recover { node; dropped = max_int; lost = min_int };
        T.Forward_due { node; uid = 2; peers = [ node; -1; 1 lsl 20 ] };
        T.Gc_begin { node; group = true; bunches = [] };
        T.Tables_processed
          { at = node; sender = node; bunch = min_int; seq = max_int };
      ])
    [ -1; 0; (1 lsl 20) - 2; (1 lsl 20) - 1; 1 lsl 20; max_int; min_int ]

(* Every constructor and the packing's edge cases, recorded with a tap
   that keeps each event boxed, as the log stored it before packing. *)
let test_packed_log_matches_boxed () =
  let l = T.create_log () in
  T.set_enabled l true;
  let tapped = ref [] in
  T.add_tap l (fun ts e -> tapped := (ts, e) :: !tapped);
  let boxed () = List.rev !tapped in
  let clock = ref 0 in
  T.set_clock l (fun () -> !clock);
  (* More distinct strings than the header's 8-bit id holds. *)
  let kinds =
    List.init 300 (fun i ->
        T.Rpc { src = 0; dst = 1; kind = Printf.sprintf "k%d" i; seq = i })
  in
  (* One list longer than a chunk: the event spans chunks. *)
  let uids = List.init 200_000 (fun i -> (7 * i) - 3) in
  let big = T.Updates_applied { node = 4; uids } in
  let events =
    generated_events () @ edge_events () @ kinds @ [ big ] @ generated_events ()
  in
  List.iteri
    (fun i e ->
      if i mod 5 = 0 then clock := i;
      T.record l e)
    events;
  check_int "length" (List.length events) (T.length l);
  check_bool "words span several chunks" true (T.words l > 3 * 65_536);
  check_bool "decoded events equal the recorded ones" true
    (T.events l = events);
  check_bool "timed events equal the tapped ones" true
    (T.timed_events l = boxed ());
  check_bool "iter decodes the same stream" true
    (List.rev (T.fold l (fun acc ts e -> (ts, e) :: acc) []) = boxed ());
  (* [clear] drops the chunks and the string table; the log is reusable. *)
  T.clear l;
  check_int "cleared length" 0 (T.length l);
  check_int "cleared words" 0 (T.words l);
  clock := 0;
  let again =
    [
      T.Msg_sent
        { src = 2; dst = -1; kind = "fresh_kind"; seq = 1; rel = true };
      T.Disk_fault { node = 1 lsl 20; fault = "trace" };
      T.Updates_applied { node = 0; uids = [] };
    ]
  in
  List.iter (T.record l) again;
  check_bool "reuse after clear" true
    (T.timed_events l = List.mapi (fun i e -> (i + 1, e)) again)

(* The per-constructor node attribution Flight and Hb wrote by hand
   before [Trace_event.nodes] derived it from the schema. *)
let hand_nodes = function
  | T.Acquire_start { node; _ }
  | T.Acquire_done { node; _ }
  | T.Release { node; _ }
  | T.Updates_applied { node; _ }
  | T.Forward_due { node; _ }
  | T.Gc_begin { node; _ }
  | T.Gc_end { node; _ }
  | T.Crash { node }
  | T.Restart { node }
  | T.Owner_adopted { node; _ }
  | T.Disk_fault { node; _ }
  | T.Rvm_recover { node; _ }
  | T.Bunch_verified { node; _ }
  | T.Shard_alloc { node; _ }
  | T.Shard_adopted { node; _ }
  | T.Read_obs { node; _ }
  | T.Write_obs { node; _ } ->
      [ node ]
  | T.Grant_sent { granter; requester; _ }
  | T.Hook_ssp { granter; requester; _ } ->
      [ granter; requester ]
  | T.Invalidate { src; dst; _ }
  | T.Copyset_forward { src; dst; _ }
  | T.Msg_sent { src; dst; _ }
  | T.Msg_delivered { src; dst; _ }
  | T.Msg_retransmit { src; dst; _ }
  | T.Msg_suppressed { src; dst; _ }
  | T.Msg_buffered { src; dst; _ }
  | T.Rpc { src; dst; _ }
  | T.Link_cut { src; dst }
  | T.Link_heal { src; dst }
  | T.Suspect { src; dst; _ } ->
      [ src; dst ]
  | T.Tables_processed { at; sender; _ } -> [ at; sender ]

let test_nodes_match_hand_attribution () =
  List.iter
    (fun e ->
      if T.nodes e <> hand_nodes e then
        Alcotest.failf "nodes of %S differ from the hand attribution"
          (T.to_line e))
    (generated_events () @ edge_events ())

(* A random workload with collector waves and message faults: the
   decoded log equals what a tap saw, event for event and as text. *)
let test_workload_log_matches_tap () =
  let module Driver = Bmx_workload.Driver in
  let module Cluster = Bmx.Cluster in
  let d =
    Driver.setup
      {
        Driver.default with
        nodes = 4;
        bunches = 4;
        objects_per_bunch = 32;
        ops = 600;
        seed = 31;
      }
  in
  let c = Driver.cluster d in
  let l = Cluster.evlog c in
  T.set_enabled l true;
  let boxed = ref [] in
  T.add_tap l (fun ts e -> boxed := (ts, e) :: !boxed);
  Bmx_netsim.Net.set_fault (Cluster.net c) ~kind:Bmx_netsim.Net.Stub_table
    ~drop:0.1 ~dup:0.2 ~rng:(Rng.make 3);
  for _ = 1 to 3 do
    Driver.run_ops d ~ops:200 ();
    ignore (Cluster.gc_round c)
  done;
  Bmx_netsim.Net.clear_faults (Cluster.net c);
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.settle c);
  let boxed = List.rev !boxed in
  check_bool "a real trace" true (List.length boxed > 1000);
  check_int "length" (List.length boxed) (T.length l);
  let decoded = T.timed_events l in
  check_bool "decoded log equals the tapped events" true (decoded = boxed);
  let text evs =
    String.concat "\n"
      (List.map (fun (ts, e) -> string_of_int ts ^ " " ^ T.to_line e) evs)
  in
  check_string "same to_line stream" (text boxed) (text decoded)

(* Words allocated so far: minor words plus direct major allocations.
   Not [Gc.allocated_bytes]: on OCaml 5.1 its minor-heap term
   undercounts what the current minor heap holds. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* [record] writes words into chunks and allocates nothing else.  The
   chunks never touch the minor heap, so minor words per event are the
   per-record cost (0.00 here; a log of boxed events allocated 6: a cons
   cell and a (timestamp, event) pair).  Storage is 3.27 words per event
   (boxed, about 11), and everything allocated beyond it (0.66 per
   event) is the unfilled tail of the last chunk. *)
let test_record_allocation () =
  let n = 100_000 in
  let pool = Array.of_list (generated_events ()) in
  let events =
    Array.init n (fun i -> pool.(i * 7919 mod Array.length pool))
  in
  let l = T.create_log () in
  T.set_enabled l true;
  let minor0 = Gc.minor_words () and total0 = allocated_words () in
  Array.iter (T.record l) events;
  let minor = Gc.minor_words () -. minor0
  and total = allocated_words () -. total0 in
  let stored = float_of_int (T.words l) in
  let per x = x /. float_of_int n in
  let within what x budget =
    check_bool
      (Printf.sprintf "%.2f %s per event (budget %.0f)" (per x) what budget)
      true
      (per x <= budget)
  in
  within "minor words allocated" minor 1.0;
  within "words stored" stored 4.0;
  within "words allocated beyond storage" (total -. stored) 1.0

(* ----------------------------------------------------------------- spans *)

(* A hand-built trace: an app read acquire spanning two other events, a
   GC cycle, a reliable message with one retransmit, and a crash window. *)
let hand_trace =
  [
    (10, T.Acquire_start { actor = T.App; node = 0; uid = 5; tok = T.Read });
    (12, T.Msg_sent { src = 0; dst = 1; kind = "addr_update"; seq = 1; rel = true });
    (14, T.Acquire_done
           { actor = T.App; node = 0; uid = 5; tok = T.Read; addr_valid = true });
    (20, T.Gc_begin { node = 1; group = false; bunches = [ 0; 1 ] });
    (25, T.Msg_retransmit
           { src = 0; dst = 1; kind = "addr_update"; seq = 1; attempt = 2 });
    (30, T.Gc_end { node = 1; group = false; live = 4; reclaimed = 2 });
    (35, T.Msg_delivered
           { src = 0; dst = 1; kind = "addr_update"; seq = 1; rel = true });
    (40, T.Crash { node = 2 });
    (50, T.Restart { node = 2 });
    (60, T.Acquire_start { actor = T.Gc; node = 2; uid = 9; tok = T.Write });
  ]

let spans_of timed =
  Span.of_iter (fun f -> List.iter (fun (ts, e) -> f ts e) timed)

let find_span spans name =
  match List.find_opt (fun (s : Span.t) -> s.Span.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not derived" name

let test_span_derivation () =
  let spans = spans_of hand_trace in
  let acq = find_span spans "acquire.read" in
  check_int "acquire start" 10 acq.Span.ts;
  check_bool "acquire duration" true (acq.Span.dur = Some 4);
  check_bool "app acquire on dsm track" true (acq.Span.track = Span.Dsm);
  let gc = find_span spans "gc.bgc" in
  check_int "gc start" 20 gc.Span.ts;
  check_bool "gc duration" true (gc.Span.dur = Some 10);
  check_int "gc node" 1 gc.Span.node;
  check_bool "bunch count in args" true
    (List.assoc_opt "bunches" gc.Span.args = Some (Json.Int 2));
  let msg = find_span spans "msg.addr_update" in
  check_int "flight starts at send" 12 msg.Span.ts;
  check_bool "flight spans the retransmit epoch" true (msg.Span.dur = Some 23);
  check_bool "attempts counted" true
    (List.assoc_opt "attempts" msg.Span.args = Some (Json.Int 2));
  let rx = find_span spans "retransmit.addr_update" in
  check_bool "retransmit is an instant" true (rx.Span.dur = None);
  let down = find_span spans "down" in
  check_bool "down window" true (down.Span.dur = Some 10 && down.Span.node = 2);
  let orphan = find_span spans "acquire.write" in
  check_bool "unmatched start is an unfinished instant" true
    (orphan.Span.dur = None
    && List.assoc_opt "unfinished" orphan.Span.args = Some (Json.Bool true));
  check_bool "gc-actor acquire on gc track" true (orphan.Span.track = Span.Gc);
  (* Output is sorted by start time. *)
  let ts = List.map (fun (s : Span.t) -> s.Span.ts) spans in
  check_bool "sorted by ts" true (ts = List.sort compare ts)

(* -------------------------------------------------------------- perfetto *)

let test_perfetto_export () =
  let spans = spans_of hand_trace in
  let body = Perfetto.to_string spans in
  match Json.parse body with
  | Error m -> Alcotest.failf "perfetto JSON unparseable: %s" m
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let phases =
            List.filter_map
              (fun e ->
                match Json.member "ph" e with
                | Some (Json.String p) -> Some p
                | _ -> None)
          in
          let meta = List.filter (fun e -> Json.member "ph" e = Some (Json.String "M")) evs in
          (* 3 nodes appear (0, 1, 2): one process_name each + 4 thread
             names each. *)
          check_int "metadata rows" (3 * 5) (List.length meta);
          check_int "one record per span + metadata"
            (List.length spans + (3 * 5))
            (List.length evs);
          check_bool "has complete events" true (List.mem "X" (phases evs));
          check_bool "has instants" true (List.mem "i" (phases evs));
          List.iter
            (fun e ->
              match (Json.member "ph" e, Json.member "dur" e) with
              | Some (Json.String "X"), Some (Json.Int d) ->
                  check_bool "dur non-negative" true (d >= 0)
              | Some (Json.String "X"), _ -> Alcotest.fail "X without dur"
              | _ -> ())
            evs
      | _ -> Alcotest.fail "no traceEvents array")

(* ---------------------------------------------------------------- report *)

let test_report () =
  let m = Metrics.create () in
  let r = Report.of_events ~metrics:m hand_trace in
  (* The hand trace ends with a GC-actor acquire start: unfinished, but
     still a GC acquisition — the non-interference verdict must trip. *)
  check_int "gc acquire counted" 1 (Report.gc_token_acquires r);
  check_bool "not ok" false (Report.ok r);
  (match Report.latency r "token_acquire.read" with
  | Some s ->
      check_int "one read sample" 1 s.Metrics.s_count;
      check_bool "latency is the span duration" true (s.Metrics.s_p50 = 4.)
  | None -> Alcotest.fail "read latency missing");
  (match Report.latency r "gc.pause" with
  | Some s -> check_bool "gc pause sampled" true (s.Metrics.s_count = 1)
  | None -> Alcotest.fail "gc pause missing");
  let clean = Report.of_events ~metrics:(Metrics.create ()) [] in
  check_int "counter exists even on empty trace" 0
    (Report.gc_token_acquires clean);
  check_bool "empty trace is ok" true (Report.ok clean);
  check_bool "text mentions the verdict" true
    (let t = Report.to_text clean in
     let needle = "gc.token_acquires = 0" in
     let n = String.length needle in
     let rec scan i =
       i + n <= String.length t && (String.sub t i n = needle || scan (i + 1))
     in
     scan 0)

(* Stub tables travel unreliably (§6.1), so a duplicated delivery is
   normal input: the second copy closes no interval and must not count
   as a second, zero-latency flight. *)
let test_duplicate_delivery () =
  let sent =
    T.Msg_sent { src = 0; dst = 1; kind = "stub_table"; seq = 1; rel = false }
  and delivered =
    T.Msg_delivered
      { src = 0; dst = 1; kind = "stub_table"; seq = 1; rel = false }
  in
  let r =
    Report.of_events ~metrics:(Metrics.create ())
      [ (1300, sent); (1450, delivered); (1460, delivered) ]
  in
  (match Report.latency r "msg.stub_table" with
  | Some s ->
      check_int "one flight" 1 s.Metrics.s_count;
      check (Alcotest.float 0.0) "its latency" 150. s.Metrics.s_p50
  | None -> Alcotest.fail "stub-table latency missing");
  match List.filter (fun (s : Span.t) -> s.Span.ts = 1460) (Report.spans r) with
  | [ dup ] ->
      check_bool "the copy is an unmatched instant" true
        (dup.Span.dur = None && dup.Span.family = None
        && List.assoc_opt "unmatched" dup.Span.args = Some (Json.Bool true))
  | l -> Alcotest.failf "expected one span at the copy, got %d" (List.length l)

(* ------------------------------------------------------ reservoir summary *)

let test_reservoir_summary () =
  let s = Stats.Summary.create () in
  let n = (Stats.Summary.reservoir_capacity * 4) + 7 in
  for i = 1 to n do
    Stats.Summary.add s (float_of_int i)
  done;
  check_int "n exact" n (Stats.Summary.n s);
  check_bool "min exact" true (Stats.Summary.min s = 1.);
  check_bool "max exact" true (Stats.Summary.max s = float_of_int n);
  let p50 = Stats.Summary.percentile s 50. in
  let mid = float_of_int n /. 2. in
  check_bool "p50 near the middle" true
    (Float.abs (p50 -. mid) < mid *. 0.15);
  (* Determinism: the same stream always yields the same percentiles. *)
  let s2 = Stats.Summary.create () in
  for i = 1 to n do
    Stats.Summary.add s2 (float_of_int i)
  done;
  check_bool "deterministic" true
    (Stats.Summary.percentile s2 90. = Stats.Summary.percentile s 90.)

(* ------------------------------------------------------------- wiring --- *)

let test_cluster_wiring () =
  (* End-to-end: a tiny workload populates metrics and the report reads
     0 GC token acquires. *)
  let module Cluster = Bmx.Cluster in
  let c = Cluster.create ~nodes:2 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a =
    Cluster.alloc c ~node:0 ~bunch:b [| Bmx_memory.Value.Data 1 |]
  in
  Cluster.add_root c ~node:0 a;
  let a1 = Cluster.acquire_read c ~node:1 a in
  Cluster.release c ~node:1 a1;
  ignore (Cluster.bgc c ~node:0 ~bunch:b);
  ignore (Cluster.settle c);
  let r =
    Report.of_iter ~metrics:(Cluster.metrics c)
      (Trace_event.iter (Cluster.evlog c))
  in
  check_bool "non-interference holds" true (Report.ok r);
  let snap = Report.snapshot r in
  check_bool "heap gauge sampled" true
    (match Metrics.get snap ~node:0 "gc.heap.objects" with
    | Some (Metrics.Gauge g) -> g >= 1
    | _ -> false);
  check_bool "copyset histogram fed" true
    (match Metrics.get snap ~node:0 "dsm.copyset.size" with
    | Some (Metrics.Histogram s) -> s.Metrics.s_count >= 1
    | _ -> false);
  match Report.latency r "token_acquire.read" with
  | Some s -> check_bool "acquire latency measured" true (s.Metrics.s_count >= 1)
  | None -> Alcotest.fail "no acquire latency"

(* A collection's pause is the µsteps from its [Gc_begin] to its
   [Gc_end], and every recorded event advances the clock by at least
   one, so the log between them must hold only what the collection did.
   Evacuating one live object of a bunch carves one to-space range from
   the registry shard. *)
let test_gc_pause_counts_work () =
  let module Cluster = Bmx.Cluster in
  let c = Cluster.create ~nodes:1 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let live = Cluster.alloc c ~node:0 ~bunch:b [| Bmx_memory.Value.Data 1 |] in
  ignore (Cluster.alloc c ~node:0 ~bunch:b [| Bmx_memory.Value.Data 2 |]);
  Cluster.add_root c ~node:0 live;
  ignore (Cluster.bgc c ~node:0 ~bunch:b);
  let rec from_begin = function
    | (_, T.Gc_begin _) :: _ as l -> l
    | _ :: rest -> from_begin rest
    | [] -> []
  in
  let rec to_end = function
    | ((_, T.Gc_end _) as e) :: _ -> [ e ]
    | e :: rest -> e :: to_end rest
    | [] -> []
  in
  let pause = to_end (from_begin (T.timed_events (Cluster.evlog c))) in
  let name (_, e) = List.hd (String.split_on_char ' ' (T.to_line e)) in
  check
    Alcotest.(list string)
    "events of the pause"
    [ "gc_begin"; "shard_alloc"; "gc_end" ]
    (List.map name pause);
  check_int "its µsteps" 2 (fst (List.nth pause 2) - fst (List.hd pause))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse misc" `Quick test_json_parse_misc;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basic" `Quick test_metrics_basic;
          Alcotest.test_case "diff+json" `Quick test_metrics_diff_and_json;
          Alcotest.test_case "kind conflict" `Quick test_metrics_kind_conflict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip all constructors" `Quick
            test_trace_roundtrip_all_constructors;
          Alcotest.test_case "virtual timestamps" `Quick test_trace_timestamps;
          Alcotest.test_case "packed log = boxed events" `Quick
            test_packed_log_matches_boxed;
          Alcotest.test_case "schema nodes = hand attribution" `Quick
            test_nodes_match_hand_attribution;
          Alcotest.test_case "workload log = tapped events" `Quick
            test_workload_log_matches_tap;
          Alcotest.test_case "record allocates only storage" `Quick
            test_record_allocation;
        ] );
      ( "spans",
        [
          Alcotest.test_case "derivation" `Quick test_span_derivation;
          Alcotest.test_case "perfetto export" `Quick test_perfetto_export;
          Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "duplicate delivery is one flight" `Quick
            test_duplicate_delivery;
        ] );
      ( "summary",
        [ Alcotest.test_case "reservoir" `Quick test_reservoir_summary ] );
      ( "wiring",
        [
          Alcotest.test_case "cluster end-to-end" `Quick test_cluster_wiring;
          Alcotest.test_case "a collection's pause counts only what it did"
            `Quick test_gc_pause_counts_work;
        ] );
    ]
