(* The certifier certified: the happens-before engine must (a) certify
   honest runs — clean, faulted, partitioned — and (b) BITE on every
   seeded protocol mutation.  Mutations come in two flavours: synthetic
   traces forging a violation in isolation, and trace surgery on a real
   run (delete the events a buggy protocol would have skipped, e.g. the
   invalidation of one copy-set member) replayed through the certifier. *)

open Bmx_util
module E = Trace_event
module Races = Bmx_check.Races
module Lint = Bmx_check.Lint
module Cluster = Bmx.Cluster
module Driver = Bmx_workload.Driver
module Value = Bmx_memory.Value

let check_bool = Alcotest.check Alcotest.bool

let has kind (cert : Races.t) =
  List.exists (fun (f : Races.finding) -> f.Races.kind = kind) cert.findings

let fail_with_findings name (cert : Races.t) =
  Alcotest.failf "%s: %s" name
    (String.concat "; "
       (List.map Races.finding_to_string cert.Races.findings))

(* ------------------------------------------------- honest runs certify *)

let driver_workload_log ?(partition = false) ?(crash = false) ~seed () =
  let cfg =
    { Driver.default with nodes = 4; bunches = 4; objects_per_bunch = 32;
      ops = 300; seed }
  in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  Cluster.set_event_trace c true;
  Driver.run_ops d ~ops:100 ();
  if partition then begin
    Cluster.partition c ~groups:[ [ 3 ]; [ 0; 1; 2 ] ];
    Driver.run_ops d ~ops:100 ();
    Cluster.heal_all_links c;
    ignore (Cluster.settle c)
  end;
  if crash then begin
    Cluster.crash_node c ~node:2;
    Driver.run_ops d ~ops:60 ();
    Cluster.restart_node c ~node:2;
    ignore (Cluster.settle c)
  end;
  Driver.run_ops d ();
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.drain c);
  Cluster.evlog c

let certify_driver_workload ?partition ?crash ~seed () =
  Races.check_log (driver_workload_log ?partition ?crash ~seed ())

let test_clean_workload_certifies () =
  let cert = certify_driver_workload ~seed:31 () in
  if not (Races.ok cert) then fail_with_findings "clean workload" cert;
  check_bool "erasure holds" true cert.Races.erasure_ok;
  check_bool "saw accesses" true (cert.Races.reads > 0 && cert.Races.writes > 0)

let test_partitioned_workload_certifies () =
  let cert = certify_driver_workload ~partition:true ~seed:32 () in
  if not (Races.ok cert) then fail_with_findings "partitioned workload" cert

let test_crash_workload_certifies () =
  let cert = certify_driver_workload ~crash:true ~seed:33 () in
  if not (Races.ok cert) then fail_with_findings "crash workload" cert

(* ------------------------------------------- synthetic forged traces *)

let w ?(actor = E.App) ?(covered = true) node uid version =
  E.Write_obs { actor; node; uid; version; covered }

let r ?(actor = E.App) ?(covered = true) node uid version =
  E.Read_obs { actor; node; uid; version; covered }

(* Two covered writes at different nodes with no happens-before edge:
   the certifier must call the write-write race. *)
let test_unordered_writes_race () =
  let cert = Races.certify [ w 0 1 1; w 1 1 2 ] in
  check_bool "write-write race flagged" true (has Races.Race cert)

(* Negative control: the same two writes ordered through a token
   hand-off (grant edge) are clean. *)
let test_token_transfer_orders_writes () =
  let cert =
    Races.certify
      [
        w 0 1 1;
        E.Acquire_start { actor = E.App; node = 1; uid = 1; tok = E.Write };
        E.Grant_sent
          { granter = 0; requester = 1; uid = 1; tok = E.Write; updates = 0 };
        E.Hook_ssp { granter = 0; requester = 1; uid = 1 };
        E.Acquire_done
          { actor = E.App; node = 1; uid = 1; tok = E.Write; addr_valid = true };
        w 1 1 2;
        E.Release { node = 1; uid = 1 };
      ]
  in
  if not (Races.ok cert) then fail_with_findings "token transfer" cert

(* A covered read observing an older version than the HB-maximal write
   — the grant arrived but the fresh contents did not (e.g. delivered
   across a cut with the invalidation dropped). *)
let test_stale_read_detected () =
  let cert =
    Races.certify
      [
        w 0 1 1;
        w 0 1 2;
        E.Link_cut { src = 0; dst = 1 };
        E.Acquire_start { actor = E.App; node = 1; uid = 1; tok = E.Read };
        E.Grant_sent
          { granter = 0; requester = 1; uid = 1; tok = E.Read; updates = 0 };
        E.Acquire_done
          { actor = E.App; node = 1; uid = 1; tok = E.Read; addr_valid = true };
        r 1 1 1;
      ]
  in
  check_bool "stale read flagged" true (has Races.Stale_read cert)

(* A covered read observing a version newer than any recorded write. *)
let test_phantom_version_detected () =
  let cert = Races.certify [ w 0 1 1; r 0 1 5 ] in
  check_bool "phantom version flagged" true (has Races.Phantom_version cert)

(* The collector acquiring a token is interference, full stop. *)
let test_gc_acquire_is_interference () =
  let cert =
    Races.certify
      [
        E.Acquire_start { actor = E.Gc; node = 0; uid = 7; tok = E.Read };
        E.Acquire_done
          { actor = E.Gc; node = 0; uid = 7; tok = E.Read; addr_valid = true };
        E.Release { node = 0; uid = 7 };
      ]
  in
  check_bool "gc acquire flagged" true (has Races.Gc_interference cert)

(* A collector write both is interference and breaks the erasure
   theorem: erasing it moves the read mapping's version basis. *)
let test_gc_write_breaks_erasure () =
  let cert =
    Races.certify [ w 0 1 1; w ~actor:E.Gc 0 1 2; r 0 1 2 ] in
  check_bool "gc write flagged" true (has Races.Gc_interference cert);
  check_bool "erasure broken" false cert.Races.erasure_ok;
  check_bool "erasure finding emitted" true (has Races.Erasure_broken cert)

(* A GC acquire turns N0's grant into a GC event, yet the application
   acquire at N1 still joins the grant's snapshot: the full replay's
   clock for event 4 carries N0's write, the erased replay's does not.
   The only test that reaches the erasure's clock branch. *)
let test_gc_grant_moves_app_clock () =
  let trace =
    List.map
      (fun l -> match E.of_line l with Ok e -> e | Error m -> failwith m)
      [
        "write_obs app 0 5 1 1";
        "acquire_start gc 1 7 r";
        "grant_sent 0 1 7 r 0";
        "acquire_start app 1 7 r";
        "acquire_done app 1 7 r 1";
        "read_obs app 1 7 0 1";
      ]
  in
  let cert = Races.certify trace in
  Alcotest.(check (list (pair string int)))
    "exactly the interference and the erasure finding"
    [
      ("[erasure-broken] erasing GC events changed the vector clock of \
        application event 4", -1);
      ("[gc-interference] event 1: the collector acquired a read token for \
        o7 at N1", 1);
    ]
    (List.map
       (fun (f : Races.finding) -> (Races.finding_to_string f, f.Races.at))
       cert.Races.findings)

(* An overflowed log is never certifiable. *)
let test_overflow_uncertifiable () =
  let cert = Races.certify ~overflowed:true [ w 0 1 1 ] in
  check_bool "incomplete trace flagged" true (has Races.Incomplete_trace cert)

(* Findings are deterministic: certifying the same trace twice yields
   the same report, sorted by trace position. *)
let test_findings_deterministic () =
  let trace = [ w 0 1 1; w 1 1 2; w 0 2 1; w 1 2 2; r 1 1 9 ] in
  let a = Races.certify trace and b = Races.certify trace in
  check_bool "same findings" true
    (List.map Races.finding_to_string a.Races.findings
    = List.map Races.finding_to_string b.Races.findings);
  let ats = List.map (fun (f : Races.finding) -> f.Races.at) a.Races.findings in
  check_bool "sorted by position" true (List.sort compare ats = ats)

(* The log entry point and the list entry point certify alike: on the
   honest workload traces, and on a log that overflowed part-way. *)
let test_log_matches_list () =
  let same name log =
    Alcotest.(check string)
      name
      (Bmx_obs.Json.to_string
         (Races.to_json
            (Races.certify ~overflowed:(E.overflowed log) (E.events log))))
      (Bmx_obs.Json.to_string (Races.to_json (Races.check_log log)))
  in
  let clean = driver_workload_log ~seed:31 () in
  same "clean" clean;
  same "partitioned" (driver_workload_log ~partition:true ~seed:32 ());
  same "crash" (driver_workload_log ~crash:true ~seed:33 ());
  let small = E.create_log ~capacity:(E.length clean / 2) () in
  E.set_enabled small true;
  E.iter clean (fun _ e -> E.record small e);
  check_bool "small log overflowed" true (E.overflowed small);
  same "overflowed" small

(* ------------------------------------------------------ trace surgery *)

(* A deterministic three-node scenario with a copy-set: N1 and N2 read
   x (home N0), then N1 acquires the write token — a remote grant, so
   the SSP hook runs and N2's read copy is invalidated — then N2 reads
   again. *)
let copyset_scenario () =
  let c = Cluster.create ~nodes:3 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  let uid = Cluster.uid_at c ~node:0 x in
  let read_at node =
    let a = Cluster.acquire_read c ~node x in
    ignore (Cluster.read c ~node a 0);
    Cluster.release c ~node a
  in
  read_at 1;
  read_at 2;
  let a = Cluster.acquire_write c ~node:1 x in
  Cluster.write c ~node:1 a 0 (Value.Data 2);
  Cluster.release c ~node:1 a;
  read_at 2;
  ignore (Cluster.drain c);
  (E.events (Cluster.evlog c), uid)

let test_copyset_scenario_baseline_clean () =
  let events, _ = copyset_scenario () in
  let cert = Races.certify events in
  if not (Races.ok cert) then fail_with_findings "copy-set baseline" cert

(* Mutation: the writer skips invalidating one copy-set member — drop
   every trace of the invalidation exchange with N2 (the [Invalidate]
   record and its wire messages), exactly what a protocol that lost the
   copy-set forward would produce.  The write is then unordered with
   N2's covered read and the certifier must call the race. *)
let test_skipped_invalidation_races () =
  let events, uid = copyset_scenario () in
  let target = 2 in
  let doctored =
    List.filter
      (fun (e : E.t) ->
        match e with
        | E.Invalidate { dst; uid = u; _ } -> not (dst = target && u = uid)
        | E.Rpc { src; dst; kind = "invalidate"; _ }
        | E.Msg_sent { src; dst; kind = "invalidate"; _ }
        | E.Msg_delivered { src; dst; kind = "invalidate"; _ } ->
            not (src = target || dst = target)
        | _ -> true)
      events
  in
  check_bool "surgery removed something" true
    (List.length doctored < List.length events);
  let cert = Races.certify doctored in
  check_bool "skipped invalidation flagged as race" true (has Races.Race cert)

(* Mutation: disable the SSP-creation hook on an ownership transfer.
   Happens-before is unaffected (the grant edge still exists), so this
   tripwire belongs to the linter: Invariant 3. *)
let test_disabled_ssp_hook_flagged () =
  let events, uid = copyset_scenario () in
  let doctored =
    List.filter
      (fun (e : E.t) ->
        match e with E.Hook_ssp { uid = u; _ } -> u <> uid | _ -> true)
      events
  in
  check_bool "surgery removed the hook" true
    (List.length doctored < List.length events);
  let vs = Lint.run doctored in
  check_bool "missing hook flagged" true
    (List.exists (fun v -> v.Lint.rule = Lint.Invariant3) vs)

(* Mutation: a grant delivered across a partition cut.  The linter owns
   the quarantine rule; forge the split delivery and check it bites
   (the certifier's stale-read side of this story is synthetic above). *)
let test_delivery_across_cut_flagged () =
  let vs =
    Lint.run
      [
        E.Link_cut { src = 0; dst = 1 };
        E.Msg_sent
          { src = 0; dst = 1; kind = "token_grant"; seq = 1; rel = true };
        E.Msg_delivered
          { src = 0; dst = 1; kind = "token_grant"; seq = 1; rel = true };
      ]
  in
  check_bool "delivery across cut flagged" true
    (List.exists (fun v -> v.Lint.rule = Lint.Partition_quarantine) vs)

(* ------------------------------------------------------------- report *)

let test_report_carries_verdict () =
  let events, _ = copyset_scenario () in
  let cert = Races.certify events in
  let report =
    Bmx_obs.Report.of_events
      ~metrics:(Bmx_obs.Metrics.create ())
      (List.map (fun e -> (0, e)) events)
  in
  check_bool "unset by default" true
    (Bmx_obs.Report.certified report = None);
  let report = Bmx_obs.Report.with_certified report (Races.ok cert) in
  check_bool "verdict recorded" true
    (Bmx_obs.Report.certified report = Some true)

let () =
  Alcotest.run "certify"
    [
      ( "honest runs",
        [
          Alcotest.test_case "clean workload certifies" `Quick
            test_clean_workload_certifies;
          Alcotest.test_case "partitioned workload certifies" `Quick
            test_partitioned_workload_certifies;
          Alcotest.test_case "crash workload certifies" `Quick
            test_crash_workload_certifies;
          Alcotest.test_case "copy-set scenario baseline clean" `Quick
            test_copyset_scenario_baseline_clean;
          Alcotest.test_case "log and list entry points agree" `Quick
            test_log_matches_list;
        ] );
      ( "forged traces",
        [
          Alcotest.test_case "unordered writes race" `Quick
            test_unordered_writes_race;
          Alcotest.test_case "token transfer orders writes" `Quick
            test_token_transfer_orders_writes;
          Alcotest.test_case "stale read detected" `Quick
            test_stale_read_detected;
          Alcotest.test_case "phantom version detected" `Quick
            test_phantom_version_detected;
          Alcotest.test_case "gc acquire is interference" `Quick
            test_gc_acquire_is_interference;
          Alcotest.test_case "gc write breaks erasure" `Quick
            test_gc_write_breaks_erasure;
          Alcotest.test_case "gc grant moves an app clock" `Quick
            test_gc_grant_moves_app_clock;
          Alcotest.test_case "overflowed log uncertifiable" `Quick
            test_overflow_uncertifiable;
          Alcotest.test_case "findings deterministic and sorted" `Quick
            test_findings_deterministic;
        ] );
      ( "trace surgery",
        [
          Alcotest.test_case "skipped invalidation races" `Quick
            test_skipped_invalidation_races;
          Alcotest.test_case "disabled SSP hook flagged" `Quick
            test_disabled_ssp_hook_flagged;
          Alcotest.test_case "delivery across cut flagged" `Quick
            test_delivery_across_cut_flagged;
        ] );
      ( "report",
        [
          Alcotest.test_case "report carries verdict" `Quick
            test_report_carries_verdict;
        ] );
    ]
