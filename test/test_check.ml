(* The checker checked: unit tests for the trace linter, the schedule
   explorer, the layering scanner, and the audit's stale-edge report.

   The positive direction (real runs lint clean) is exercised by
   test_races and test_integration; here we mostly make sure the linter
   actually BITES — forged violations of each rule must be flagged. *)

open Bmx_util
module E = Trace_event
module Lint = Bmx_check.Lint
module Explore = Bmx_check.Explore
module Layering = Bmx_check.Layering
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Value = Bmx_memory.Value

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let rules vs = List.map (fun v -> v.Lint.rule) vs

let has rule vs = List.mem rule (rules vs)

(* ------------------------------------------------------------- linter *)

(* A forged acquire by the collector must be flagged — this is the
   paper's central claim, wired through the [actor] parameter. *)
let test_gc_acquire_flagged () =
  let c = Cluster.create ~nodes:2 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  (* Bypass the facade and acquire as the collector would be forbidden
     to: the linter, not the type system, is the tripwire. *)
  let proto = Cluster.proto c in
  let a = Protocol.acquire proto ~actor:Protocol.Gc ~node:1 x `Read in
  Protocol.release proto ~node:1 a;
  let vs = Lint.check_all proto in
  check_bool "forged Gc acquire flagged" true (has Lint.Gc_acquired_token vs)

let test_app_acquire_clean () =
  let c = Cluster.create ~nodes:2 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  let a = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 a;
  ignore (Cluster.drain c);
  check_int "clean trace has no violations" 0
    (List.length (Lint.check_all (Cluster.proto c)))

(* Synthetic logs: each §5 invariant violation in isolation. *)
let test_invariant1_flagged () =
  let vs =
    Lint.run
      [
        E.Acquire_done
          { actor = E.App; node = 1; uid = 7; tok = E.Read; addr_valid = false };
      ]
  in
  check_bool "acquire without valid address flagged" true (has Lint.Invariant1 vs);
  let vs =
    Lint.run
      [
        E.Grant_sent
          { granter = 0; requester = 1; uid = 7; tok = E.Read; updates = 2 };
        (* updates never applied at N1 before the acquire completes *)
        E.Acquire_done
          { actor = E.App; node = 1; uid = 7; tok = E.Read; addr_valid = true };
      ]
  in
  check_bool "unapplied piggybacked updates flagged" true (has Lint.Invariant1 vs)

let test_invariant2_flagged () =
  let vs = Lint.run [ E.Forward_due { node = 0; uid = 5; peers = [ 1; 2 ] } ] in
  check_int "one violation per unforwarded peer" 2 (List.length vs);
  check_bool "dropped copy-set forward flagged" true (has Lint.Invariant2 vs);
  (* Discharged obligations are clean. *)
  let vs =
    Lint.run
      [
        E.Forward_due { node = 0; uid = 5; peers = [ 1 ] };
        E.Copyset_forward { src = 0; dst = 1; uid = 5 };
      ]
  in
  check_int "forwarded copy-set is clean" 0 (List.length vs)

let test_invariant3_flagged () =
  let grant =
    E.Grant_sent { granter = 0; requester = 1; uid = 7; tok = E.Write; updates = 0 }
  in
  let vs = Lint.run [ grant ] in
  check_bool "write grant without SSP hook flagged" true (has Lint.Invariant3 vs);
  let vs = Lint.run [ E.Hook_ssp { granter = 0; requester = 1; uid = 7 }; grant ] in
  check_bool "hooked write grant is clean" false (has Lint.Invariant3 vs)

let test_fifo_flagged () =
  let msg seq =
    E.Msg_sent { src = 0; dst = 1; kind = "addr_update"; seq; rel = false }
  in
  let del seq =
    E.Msg_delivered { src = 0; dst = 1; kind = "addr_update"; seq; rel = false }
  in
  let vs = Lint.run [ msg 2; msg 1 ] in
  check_bool "non-monotonic send seq flagged" true (has Lint.Fifo_order vs);
  let vs = Lint.run [ msg 1; msg 2; del 2; del 1 ] in
  check_bool "reordered delivery flagged" true (has Lint.Fifo_order vs);
  (* Drops (gaps) and duplicates (repeats) are legal; synchronous RPCs
     overtake the background channel legally too. *)
  let vs =
    Lint.run
      [
        msg 1;
        msg 2;
        msg 3;
        E.Rpc { src = 0; dst = 1; kind = "token_req"; seq = 4 };
        del 1;
        del 3;
        del 3;
      ]
  in
  check_int "gaps, dups and rpc overtaking are clean" 0 (List.length vs)

let test_forwarder_cycle_flagged () =
  (* [Store.set_forwarder] refuses to close a cycle (address reuse can
     legally move an object A -> B -> A): the stale back-chain is
     re-pointed and the linter finds the graph acyclic.  Both the 2-cycle
     and a longer loop are exercised, plus a self-link. *)
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  let y = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 2 |] in
  let z = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 3 |] in
  let store = Protocol.store (Cluster.proto c) 0 in
  Store.set_forwarder store ~at:x ~target:y;
  Store.set_forwarder store ~at:y ~target:x;
  check_int "2-cycle refused; graph stays acyclic" 0
    (List.length (Lint.check_stores (Cluster.proto c)));
  Store.set_forwarder store ~at:y ~target:z;
  Store.set_forwarder store ~at:z ~target:x;
  Store.set_forwarder store ~at:x ~target:y;
  check_int "3-cycle refused; graph stays acyclic" 0
    (List.length (Lint.check_stores (Cluster.proto c)));
  Store.set_forwarder store ~at:z ~target:z;
  check_bool "self-link ignored" true
    (match Store.cell store z with
    | Some (Store.Forwarder t) -> not (Addr.equal t z)
    | _ -> true);
  check_int "still acyclic after self-link attempt" 0
    (List.length (Lint.check_stores (Cluster.proto c)))

let test_overflow_refused () =
  let log = E.create_log ~capacity:2 () in
  E.set_enabled log true;
  for uid = 1 to 3 do
    E.record log (E.Release { node = 0; uid })
  done;
  check_bool "overflowed" true (E.overflowed log);
  check_bool "truncated log cannot be certified" true
    (has Lint.Incomplete_trace (Lint.check_log log))

(* Split-brain adoption is judged by the owner the protocol recorded
   when it adopted ([prev]): flagged only while that node is up and cut
   off from the adopter. *)
let adoption prev = E.Owner_adopted { node = 2; uid = 5; prev }
let cut = [ E.Link_cut { src = 1; dst = 2 } ]

let test_adoption_across_cut_flagged () =
  check_bool "live owner across a cut flagged" true
    (has Lint.Split_brain_ownership (Lint.run (cut @ [ adoption 1 ])));
  check_bool "crashed owner across a cut is clean" false
    (has Lint.Split_brain_ownership
       (Lint.run ((E.Crash { node = 1 } :: cut) @ [ adoption 1 ])))

let test_adoption_without_owner_clean () =
  check_bool "no recorded owner is clean" false
    (has Lint.Split_brain_ownership
       (Lint.run (cut @ [ adoption Ids.Node.invalid ])))

let test_adoption_from_reachable_owner_clean () =
  check_bool "reachable owner is clean" false
    (has Lint.Split_brain_ownership (Lint.run [ adoption 1 ]))

(* ------------------------------------------------------ serialization *)

let test_event_roundtrip () =
  let samples =
    [
      E.Acquire_start { actor = E.App; node = 1; uid = 2; tok = E.Read };
      E.Acquire_done
        { actor = E.Gc; node = 1; uid = 2; tok = E.Write; addr_valid = true };
      E.Release { node = 3; uid = 4 };
      E.Grant_sent { granter = 0; requester = 2; uid = 9; tok = E.Write; updates = 3 };
      E.Hook_ssp { granter = 0; requester = 2; uid = 9 };
      E.Invalidate { src = 1; dst = 2; uid = 9 };
      E.Updates_applied { node = 2; uids = [ 9; 11 ] };
      E.Updates_applied { node = 2; uids = [] };
      E.Forward_due { node = 2; uid = 9; peers = [ 0; 1 ] };
      E.Copyset_forward { src = 2; dst = 0; uid = 9 };
      E.Gc_begin { node = 0; group = false; bunches = [ 1; 2 ] };
      E.Gc_end { node = 0; group = true; live = 17; reclaimed = 4 };
      E.Msg_sent { src = 0; dst = 1; kind = "stub_table"; seq = 12; rel = false };
      E.Msg_delivered
        { src = 0; dst = 1; kind = "stub_table"; seq = 12; rel = false };
      E.Msg_sent { src = 0; dst = 1; kind = "scion_message"; seq = 14; rel = true };
      E.Msg_delivered
        { src = 0; dst = 1; kind = "scion_message"; seq = 14; rel = true };
      E.Msg_retransmit { src = 0; dst = 1; kind = "scion_message"; seq = 14; attempt = 2 };
      E.Msg_suppressed { src = 0; dst = 1; kind = "scion_message"; seq = 14 };
      E.Msg_buffered { src = 0; dst = 1; kind = "addr_update"; seq = 15 };
      E.Crash { node = 2 };
      E.Restart { node = 2 };
      E.Rpc { src = 1; dst = 0; kind = "token_grant"; seq = 13 };
      E.Read_obs { actor = E.App; node = 1; uid = 9; version = 3; covered = true };
      E.Read_obs
        { actor = E.App; node = 2; uid = 9; version = 0; covered = false };
      E.Write_obs
        { actor = E.Gc; node = 0; uid = 7; version = 4; covered = true };
    ]
  in
  List.iter
    (fun e ->
      match E.of_line (E.to_line e) with
      | Ok e' -> check_bool (E.to_line e) true (e = e')
      | Error m -> Alcotest.failf "%s: %s" (E.to_line e) m)
    samples;
  check_bool "garbage rejected" true (Result.is_error (E.of_line "acquire_start x"));
  check_bool "unknown rejected" true (Result.is_error (E.of_line "warp_core 1 2"))

(* ----------------------------------------------------------- explorer *)

let test_explorer_scenarios_clean () =
  List.iter
    (fun sc ->
      let name = sc.Explore.sc_name in
      let r =
        Explore.run ~depth:5 ~max_schedules:500 ~build:sc.Explore.sc_build
          ~locals:sc.Explore.sc_locals ~finish:sc.Explore.sc_finish ()
      in
      check_bool (name ^ ": explored") true (r.Explore.schedules >= 2);
      (match r.Explore.violations with
      | [] -> ()
      | (sched, msg) :: _ ->
          Alcotest.failf "%s: [%s] %s" name
            (String.concat " " (List.map Explore.choice_to_string sched))
            msg);
      check_bool (name ^ ": not truncated") false r.Explore.truncated)
    Explore.builtin_scenarios

let test_explorer_catches_planted_bug () =
  (* A check that always fails must surface on every explored schedule —
     the explorer's reporting path, exercised end to end. *)
  let build () = Cluster.create ~nodes:2 ~trace_events:true () in
  let r =
    Explore.run ~depth:2 ~max_schedules:50 ~build
      ~locals:[ (fun _ -> ()) ]
      ~check:(fun _ -> Error "planted")
      ()
  in
  check_bool "planted failure reported" true
    (List.exists (fun (_, m) -> m = "planted") r.Explore.violations)

(* ----------------------------------------------------------- layering *)

let test_layering_catches_direct_call () =
  let src = "let f proto x = Protocol.acquire proto ~node:0 x `Read\n" in
  let fs = Layering.scan_source ~file:"lib/core/bad.ml" src in
  check_int "direct call caught" 1 (List.length fs);
  check Alcotest.string "path" "Protocol.acquire" (List.hd fs).Layering.path

let test_layering_tracks_aliases () =
  let src =
    "module P = Bmx_dsm.Protocol\nmodule Q = P\nlet f proto x = Q.release proto x\n"
  in
  let fs = Layering.scan_source ~file:"lib/core/bad.ml" src in
  check_int "aliased call caught" 1 (List.length fs);
  check_int "on the right line" 3 (List.hd fs).Layering.line

let test_layering_ignores_comments_and_strings () =
  let src =
    "(* Protocol.acquire is forbidden here — see {!Protocol.acquire}. *)\n\
     let s = \"Protocol.release proto\"\n\
     let ok proto n = Protocol.store proto n\n"
  in
  check_int "comments and strings are not calls" 0
    (List.length (Layering.scan_source ~file:"lib/core/fine.ml" src))

let test_layering_sanctioned_hook () =
  let src = "let install t = Protocol.set_hooks t hooks\n" in
  check_int "set_hooks sanctioned in invariants.ml" 0
    (List.length (Layering.scan_source ~file:"lib/core/invariants.ml" src));
  check_int "set_hooks forbidden elsewhere" 1
    (List.length (Layering.scan_source ~file:"lib/core/collect.ml" src))

let test_layering_real_tree_clean () =
  (* dune runtest runs in _build/default/test; dune exec from the root. *)
  let dir =
    if Sys.file_exists "../lib/core" then "../lib/core" else "lib/core"
  in
  check_int "lib/core is token-free" 0 (List.length (Layering.scan_dir dir))

(* -------------------------------------------------------------- audit *)

let test_stale_edge_sources_reported () =
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 x;
  let x1 = Cluster.acquire_read c ~node:1 x in
  Cluster.release c ~node:1 x1;
  ignore (Cluster.drain c);
  let x_uid = Cluster.uid_at c ~node:0 x in
  check_bool "initially authoritative" false
    (Ids.Uid_set.mem x_uid (Bmx.Audit.stale_edge_sources c));
  (* Surgically drop the owner's copy: only N1's stale replica remains,
     so the authoritative graph must fall back — and say so. *)
  let store0 = Protocol.store (Cluster.proto c) 0 in
  (match Store.addr_of_uid store0 x_uid with
  | Some a -> Store.remove store0 a
  | None -> Alcotest.fail "owner copy missing before surgery");
  check_bool "fallback reported" true
    (Ids.Uid_set.mem x_uid (Bmx.Audit.stale_edge_sources c))

let () =
  Alcotest.run "check"
    [
      ( "trace linter",
        [
          Alcotest.test_case "forged Gc-actor acquire flagged" `Quick
            test_gc_acquire_flagged;
          Alcotest.test_case "clean app trace passes" `Quick test_app_acquire_clean;
          Alcotest.test_case "invariant 1 (valid address) flagged" `Quick
            test_invariant1_flagged;
          Alcotest.test_case "invariant 2 (copy-set forward) flagged" `Quick
            test_invariant2_flagged;
          Alcotest.test_case "invariant 3 (SSP before write grant) flagged" `Quick
            test_invariant3_flagged;
          Alcotest.test_case "per-pair FIFO flagged" `Quick test_fifo_flagged;
          Alcotest.test_case "forwarder cycles refused at the store" `Quick
            test_forwarder_cycle_flagged;
          Alcotest.test_case "overflowed log refused" `Quick test_overflow_refused;
          Alcotest.test_case "adoption from an owner across a cut flagged"
            `Quick test_adoption_across_cut_flagged;
          Alcotest.test_case "adoption with no recorded owner clean" `Quick
            test_adoption_without_owner_clean;
          Alcotest.test_case "adoption from a reachable owner clean" `Quick
            test_adoption_from_reachable_owner_clean;
        ] );
      ( "event serialization",
        [ Alcotest.test_case "to_line/of_line round-trip" `Quick test_event_roundtrip ] );
      ( "schedule explorer",
        [
          Alcotest.test_case "built-in scenarios clean on all schedules" `Quick
            test_explorer_scenarios_clean;
          Alcotest.test_case "planted failure surfaces" `Quick
            test_explorer_catches_planted_bug;
        ] );
      ( "layering lint",
        [
          Alcotest.test_case "direct call caught" `Quick
            test_layering_catches_direct_call;
          Alcotest.test_case "module aliases tracked" `Quick
            test_layering_tracks_aliases;
          Alcotest.test_case "comments and strings ignored" `Quick
            test_layering_ignores_comments_and_strings;
          Alcotest.test_case "sanctioned hook installation" `Quick
            test_layering_sanctioned_hook;
          Alcotest.test_case "real collector layer clean" `Quick
            test_layering_real_tree_clean;
        ] );
      ( "audit",
        [
          Alcotest.test_case "stale-edge fallback reported" `Quick
            test_stale_edge_sources_reported;
        ] );
    ]
