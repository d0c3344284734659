open Bmx_util
module Net = Bmx_netsim.Net
module Lint = Bmx_check.Lint

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let make () =
  let stats = Stats.create_registry () in
  let net : string Net.t = Net.create ~stats () in
  (net, stats)

let test_fifo_seq_per_pair () =
  let net, _ = make () in
  let seen = ref [] in
  Net.set_handler net (fun env -> seen := (env.Net.src, env.Net.dst, env.Net.seq) :: !seen);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "a";
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "b";
  Net.send net ~src:0 ~dst:2 ~kind:Net.Stub_table "c";
  Net.send net ~src:0 ~dst:1 ~kind:Net.Scion_message "d";
  ignore (Net.drain net);
  let seqs_01 =
    List.rev !seen
    |> List.filter (fun (s, d, _) -> s = 0 && d = 1)
    |> List.map (fun (_, _, q) -> q)
  in
  check (Alcotest.list Alcotest.int) "seqs increase per pair" [ 1; 2; 3 ] seqs_01;
  let seqs_02 =
    List.rev !seen |> List.filter (fun (_, d, _) -> d = 2) |> List.map (fun (_, _, q) -> q)
  in
  check (Alcotest.list Alcotest.int) "independent stream" [ 1 ] seqs_02

let test_delivery_order_fifo () =
  let net, _ = make () in
  let seen = ref [] in
  Net.set_handler net (fun env -> seen := env.Net.payload :: !seen);
  List.iter (fun p -> Net.send net ~src:0 ~dst:1 ~kind:Net.App_message p)
    [ "1"; "2"; "3"; "4" ];
  ignore (Net.drain net);
  check (Alcotest.list Alcotest.string) "in order" [ "1"; "2"; "3"; "4" ]
    (List.rev !seen)

let test_handler_can_send () =
  (* A delivery handler may send more messages; drain keeps going. *)
  let net, _ = make () in
  Net.set_handler net (fun env ->
      if env.Net.payload = "ping" then
        Net.send net ~src:env.Net.dst ~dst:env.Net.src ~kind:Net.App_message "pong");
  Net.send net ~src:0 ~dst:1 ~kind:Net.App_message "ping";
  let delivered = Net.drain net in
  check_int "both delivered" 2 delivered;
  check_int "pending empty" 0 (Net.pending net)

let test_accounting () =
  let net, stats = make () in
  Net.set_handler net (fun _ -> ());
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table ~bytes:100 "x";
  Net.record_rpc net ~src:1 ~dst:0 ~kind:Net.Token_grant ~bytes:50 ();
  Net.record_piggyback net ~src:1 ~kind:Net.Token_grant ~bytes:24 ();
  check_int "sent stub_table" 1 (Net.sent net Net.Stub_table);
  check_int "sent grant" 1 (Net.sent net Net.Token_grant);
  check_int "total messages" 2 (Net.total_messages net);
  check_int "total bytes" 174 (Net.total_bytes net);
  check_int "piggyback count" 1 (Stats.get stats "net.piggyback.token_grant");
  check_int "piggyback bytes" 24 (Stats.get stats "net.bytes.piggyback")

(* A shard-labelled piggyback adds its bytes to the shard's byte row and
   no message to its message row: it rides a message counted elsewhere. *)
let test_piggyback_shard_rows () =
  let net, _ = make () in
  Net.record_rpc net ~src:1 ~dst:0 ~kind:Net.Token_grant ~bytes:50 ~shard:0 ();
  Net.record_piggyback net ~src:1 ~kind:Net.Token_grant ~bytes:24 ~shard:0 ();
  let row rows =
    match List.assoc_opt 0 rows with
    | Some comps -> List.assoc_opt Net.Component.Dsm comps
    | None -> None
  in
  check (Alcotest.option Alcotest.int) "shard 0 dsm bytes" (Some 74)
    (row (Net.shard_components net));
  check (Alcotest.option Alcotest.int) "shard 0 dsm messages" (Some 1)
    (row (Net.shard_component_msgs net))

(* Every copy on the wire pays its bytes; an unreliable copy is also a
   message, a reliable send is one logical message however many copies. *)
let test_dup_accounting_unreliable () =
  let net, _ = make () in
  Net.set_handler net (fun _ -> ());
  Net.set_fault net ~kind:Net.Stub_table ~drop:0.0 ~dup:1.0 ~rng:(Rng.make 1);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table ~bytes:100 "x";
  check_int "two messages" 2 (Net.sent net Net.Stub_table);
  check_int "two byte charges" 200 (Net.total_bytes net)

let test_dup_accounting_reliable () =
  let net, _ = make () in
  Net.set_reliable net [ Net.Scion_message ];
  Net.set_handler net (fun _ -> ());
  Net.set_fault net ~kind:Net.Scion_message ~drop:0.0 ~dup:1.0
    ~rng:(Rng.make 1);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Scion_message ~bytes:100 "x";
  check_int "one logical message" 1 (Net.sent net Net.Scion_message);
  check_int "two byte charges" 200 (Net.total_bytes net)

let test_retransmit_accounting () =
  let net, stats = make () in
  Net.set_reliable net [ Net.Scion_message ];
  Net.set_handler net (fun _ -> ());
  Net.set_fault net ~kind:Net.Scion_message ~drop:1.0 ~dup:0.0
    ~rng:(Rng.make 1);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Scion_message ~bytes:100 "x";
  check_int "a dropped copy pays no bytes" 0 (Net.total_bytes net);
  Net.clear_faults net;
  check_int "one retransmission" 1 (Net.tick ~dt:4 net);
  check_int "retransmission counted" 1
    (Stats.get stats "net.retransmit.scion_message");
  check_int "still one message" 1 (Net.sent net Net.Scion_message);
  check_int "the retransmission pays its bytes" 100 (Net.total_bytes net);
  ignore (Net.drain net);
  check_int "acked" 0 (Net.unacked_count net)

let test_drop_consumes_seq () =
  let net, stats = make () in
  let seqs = ref [] in
  Net.set_handler net (fun env -> seqs := env.Net.seq :: !seqs);
  (* Drop everything: the stream sequence numbers advance anyway, as over
     a real lossy link. *)
  let rng = Rng.make 1 in
  Net.set_fault net ~kind:Net.Stub_table ~drop:1.0 ~dup:0.0 ~rng;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "lost";
  Net.clear_faults net;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "kept";
  ignore (Net.drain net);
  check (Alcotest.list Alcotest.int) "gap observed" [ 2 ] !seqs;
  check_int "drop counted" 1 (Stats.get stats "net.dropped.stub_table");
  check_int "only one sent" 1 (Net.sent net Net.Stub_table)

let test_duplication () =
  let net, stats = make () in
  let count = ref 0 in
  Net.set_handler net (fun _ -> incr count);
  let rng = Rng.make 1 in
  Net.set_fault net ~kind:Net.Stub_table ~drop:0.0 ~dup:1.0 ~rng;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "x";
  ignore (Net.drain net);
  check_int "delivered twice" 2 !count;
  check_int "duplication counted" 1 (Stats.get stats "net.duplicated.stub_table")

let test_fault_scoped_by_kind () =
  let net, _ = make () in
  let count = ref 0 in
  Net.set_handler net (fun _ -> incr count);
  let rng = Rng.make 1 in
  Net.set_fault net ~kind:Net.Stub_table ~drop:1.0 ~dup:0.0 ~rng;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Scion_message "untouched";
  ignore (Net.drain net);
  check_int "other kinds unaffected" 1 !count

let test_step_empty () =
  let net, _ = make () in
  Net.set_handler net (fun _ -> ());
  check_bool "step on empty queue" false (Net.step net)

(* ----------------------------------------------------------- partitions *)

let test_cut_blackholes_until_heal () =
  let net, stats = make () in
  let count = ref 0 in
  Net.set_handler net (fun _ -> incr count);
  Net.cut_link net ~src:0 ~dst:1;
  check_bool "link reported cut" true (Net.is_cut net ~src:0 ~dst:1);
  check_bool "pair not reachable" false (Net.reachable net 0 1);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "lost";
  ignore (Net.drain net);
  check_int "blackholed at delivery" 0 !count;
  check_int "accounted as cut-dropped" 1
    (Stats.get stats "net.cut_dropped.total");
  Net.heal_link net ~src:0 ~dst:1;
  check_bool "pair reachable again" true (Net.reachable net 0 1);
  (* Unreliable traffic lost during the cut stays lost (§6.1 semantics);
     new sends flow. *)
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "after";
  ignore (Net.drain net);
  check_int "post-heal traffic delivered" 1 !count

let test_cut_is_directed () =
  let net, _ = make () in
  let seen = ref [] in
  Net.set_handler net (fun env -> seen := env.Net.payload :: !seen);
  Net.cut_link net ~src:0 ~dst:1;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "forward";
  Net.send net ~src:1 ~dst:0 ~kind:Net.Stub_table "reverse";
  ignore (Net.drain net);
  check
    (Alcotest.list Alcotest.string)
    "only the cut direction blackholes" [ "reverse" ] !seen

let test_partition_groups () =
  let net, _ = make () in
  let count = ref 0 in
  Net.set_handler net (fun _ -> incr count);
  Net.partition net ~groups:[ [ 0; 1 ]; [ 2; 3 ] ];
  check_bool "intra-group reachable" true (Net.reachable net 0 1);
  check_bool "cross-group severed" false (Net.reachable net 0 2);
  check_bool "severed both ways" false (Net.reachable net 3 1);
  check_int "four directed pairs cut per side pair" 8
    (List.length (Net.cut_pairs net));
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "in";
  Net.send net ~src:0 ~dst:2 ~kind:Net.Stub_table "across";
  ignore (Net.drain net);
  check_int "only intra-group traffic flows" 1 !count;
  Net.heal_all_links net;
  check_int "no cut links left" 0 (List.length (Net.cut_pairs net));
  Net.send net ~src:0 ~dst:2 ~kind:Net.Stub_table "healed";
  ignore (Net.drain net);
  check_int "cross-group flows after heal" 2 !count

let test_rpc_refused_on_cut () =
  let net, stats = make () in
  Net.set_handler net (fun _ -> ());
  Net.cut_link net ~src:1 ~dst:0;
  (* An RPC needs both directions: a cut reverse path (the reply's) is
     just as fatal as a cut forward path. *)
  let refused =
    try
      Net.record_rpc net ~src:0 ~dst:1 ~kind:Net.Token_request ();
      false
    with Failure _ -> true
  in
  check_bool "rpc raises across a cut" true refused;
  check_int "refusal accounted" 1 (Stats.get stats "net.rpc_unreachable");
  Net.heal_link net ~src:1 ~dst:0;
  Net.record_rpc net ~src:0 ~dst:1 ~kind:Net.Token_request ();
  check_int "healed rpc accounted as sent" 1 (Net.sent net Net.Token_request)

let test_kind_names_unique () =
  let names = List.map Net.kind_to_string Net.all_kinds in
  check_int "all kind names distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* -------------------------------------------------------------- riders *)

let send3 ?(bytes = 64) ?shard net =
  List.iter
    (fun p -> Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table ~bytes ?shard p)
    [ "a"; "b"; "c" ]

(* Back-to-back background sends on a pair travel as one wire message:
   one message in every row, every payload's bytes, and one handler call
   per payload, in send order, each with its own sequence number. *)
let test_riders_share_a_message () =
  let net, stats = make () in
  let seen = ref [] in
  Net.set_handler net (fun env ->
      seen := (env.Net.payload, env.Net.seq) :: !seen);
  send3 ~bytes:100 net;
  check_int "one wire message" 1 (Net.sent net Net.Stub_table);
  check_int "net.sent.total" 1 (Stats.get stats "net.sent.total");
  check_int "two riders" 2 (Stats.get stats "net.coalesced.stub_table");
  check_int "net.coalesced.total" 2 (Stats.get stats "net.coalesced.total");
  check_int "summed bytes" 300 (Net.total_bytes net);
  check_int "one message pending" 1 (Net.pending net);
  check_bool "one step" true (Net.step net);
  check
    Alcotest.(list (pair string int))
    "three handler calls in send order"
    [ ("a", 1); ("b", 2); ("c", 3) ]
    (List.rev !seen);
  check_int "nothing left" 0 (Net.pending net)

(* Anything stamped on the pair, a clock tick or the carrier's delivery
   between two sends starts a new message; a send on another pair does
   not. *)
let test_rider_rule () =
  let second_send between =
    let net, stats = make () in
    Net.set_reliable net [ Net.Scion_message ];
    Net.set_handler net (fun _ -> ());
    Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "first";
    between net;
    Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "second";
    Stats.get stats "net.coalesced.stub_table"
  in
  List.iter
    (fun (what, between) ->
      check_int (what ^ " starts a new message") 0 (second_send between))
    [
      ( "a send of another kind",
        fun net -> Net.send net ~src:0 ~dst:1 ~kind:Net.App_message "x" );
      ( "a reliable send",
        fun net -> Net.send net ~src:0 ~dst:1 ~kind:Net.Scion_message "x" );
      ( "an rpc on the pair",
        fun net -> Net.record_rpc net ~src:0 ~dst:1 ~kind:Net.Token_request ()
      );
      ("a tick", fun net -> ignore (Net.tick net));
      ("the carrier's delivery", fun net -> ignore (Net.step net));
    ];
  check_int "a send on another pair lets the second ride" 1
    (second_send (fun net ->
         Net.send net ~src:0 ~dst:2 ~kind:Net.Stub_table "x"))

(* Each copy of a duplicated message would hand its riders off again,
   taking the stream's seqs backwards: a copied carrier takes none. *)
let test_duplicated_carrier_takes_no_riders () =
  let net, _ = make () in
  let log = Trace_event.create_log () in
  Trace_event.set_enabled log true;
  Net.set_evlog net log;
  let seqs = ref [] in
  Net.set_handler net (fun env -> seqs := env.Net.seq :: !seqs);
  Net.set_fault net ~kind:Net.Stub_table ~drop:0.0 ~dup:1.0 ~rng:(Rng.make 1);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "a";
  Net.clear_faults net;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "b";
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "c";
  ignore (Net.drain net);
  check
    Alcotest.(list string)
    "lint passes" []
    (List.map Lint.violation_to_string (Lint.check_log log));
  check Alcotest.(list int) "delivered seqs" [ 1; 1; 2; 3 ] (List.rev !seqs);
  check_int "two copies, then b carrying c" 3 (Net.sent net Net.Stub_table)

(* A crash purges the carrier with its riders, each payload counted
   once; the restarted pair's next send is a message of its own. *)
let test_crash_purges_riders () =
  let net, stats = make () in
  let count = ref 0 in
  Net.set_handler net (fun _ -> incr count);
  send3 net;
  Net.set_down net 1;
  check_int "each payload purged once" 3
    (Stats.get stats "net.crash.purged_in_flight");
  check_int "nothing pending" 0 (Net.pending net);
  Net.set_up net 1;
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "d";
  check_int "a new message after set_up" 2 (Net.sent net Net.Stub_table);
  ignore (Net.drain net);
  check_int "only that payload delivered" 1 !count

(* A dead or cut destination loses every payload aboard, each counted
   once in its row. *)
let test_lost_riders_count_once () =
  let net, stats = make () in
  Net.set_handler net (fun _ -> Alcotest.fail "nothing may arrive");
  Net.set_down net 1;
  send3 net;
  ignore (Net.drain net);
  check_int "down-dropped per payload" 3
    (Stats.get stats "net.down_dropped.stub_table");
  Net.set_up net 1;
  Net.cut_link net ~src:0 ~dst:1;
  send3 net;
  ignore (Net.drain net);
  check_int "cut-dropped per payload" 3
    (Stats.get stats "net.cut_dropped.stub_table");
  check_int "two wire messages" 2 (Net.sent net Net.Stub_table)

(* The explorer's pair step delivers a carrier's riders with it, even
   past a message on another pair queued between them. *)
let test_step_pair_delivers_riders () =
  let net, _ = make () in
  let seen = ref [] in
  Net.set_handler net (fun env -> seen := env.Net.payload :: !seen);
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "a";
  Net.send net ~src:0 ~dst:2 ~kind:Net.Stub_table "x";
  Net.send net ~src:0 ~dst:1 ~kind:Net.Stub_table "b";
  check_bool "pair stepped" true (Net.step_pair net ~src:0 ~dst:1);
  check Alcotest.(list string) "carrier, then rider" [ "a"; "b" ] (List.rev !seen);
  check
    Alcotest.(list (pair int int))
    "only the other pair left" [ (0, 2) ] (Net.deliverable_pairs net)

(* A shard-labelled rider adds its bytes to the shard's byte row and no
   message to its message row, as a piggyback does. *)
let test_rider_shard_rows () =
  let net, _ = make () in
  send3 ~bytes:100 ~shard:0 net;
  let row rows =
    match List.assoc_opt 0 rows with
    | Some comps -> List.assoc_opt Net.Component.Gc_cleaner comps
    | None -> None
  in
  check (Alcotest.option Alcotest.int) "shard 0 cleaner bytes" (Some 300)
    (row (Net.shard_components net));
  check (Alcotest.option Alcotest.int) "shard 0 cleaner messages" (Some 1)
    (row (Net.shard_component_msgs net))

let () =
  Alcotest.run "netsim"
    [
      ( "fifo",
        [
          Alcotest.test_case "per-pair sequence numbers" `Quick test_fifo_seq_per_pair;
          Alcotest.test_case "delivery order" `Quick test_delivery_order_fifo;
          Alcotest.test_case "handler reentrancy" `Quick test_handler_can_send;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "messages, bytes, piggyback" `Quick test_accounting;
          Alcotest.test_case "kind names unique" `Quick test_kind_names_unique;
          Alcotest.test_case "piggyback adds shard bytes, no message" `Quick
            test_piggyback_shard_rows;
          Alcotest.test_case "unreliable duplicate: two messages" `Quick
            test_dup_accounting_unreliable;
          Alcotest.test_case "reliable duplicate: one message" `Quick
            test_dup_accounting_reliable;
          Alcotest.test_case "retransmission: bytes, no message" `Quick
            test_retransmit_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop consumes a sequence number" `Quick
            test_drop_consumes_seq;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "faults scoped by kind" `Quick test_fault_scoped_by_kind;
          Alcotest.test_case "step on empty" `Quick test_step_empty;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "cut blackholes until heal" `Quick
            test_cut_blackholes_until_heal;
          Alcotest.test_case "cut is directed" `Quick test_cut_is_directed;
          Alcotest.test_case "partition groups" `Quick test_partition_groups;
          Alcotest.test_case "rpc refused on cut" `Quick test_rpc_refused_on_cut;
        ] );
      ( "riders",
        [
          Alcotest.test_case "back-to-back sends share a message" `Quick
            test_riders_share_a_message;
          Alcotest.test_case "what starts a new message" `Quick test_rider_rule;
          Alcotest.test_case "a duplicated carrier takes no riders" `Quick
            test_duplicated_carrier_takes_no_riders;
          Alcotest.test_case "a crash purges the riders" `Quick
            test_crash_purges_riders;
          Alcotest.test_case "lost riders count once" `Quick
            test_lost_riders_count_once;
          Alcotest.test_case "step_pair delivers the riders" `Quick
            test_step_pair_delivers_riders;
          Alcotest.test_case "riders add shard bytes, no message" `Quick
            test_rider_shard_rows;
        ] );
    ]
