open Bmx_util
module Cluster = Bmx.Cluster
module Value = Bmx_memory.Value
module Graphgen = Bmx_workload.Graphgen
module Driver = Bmx_workload.Driver

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let test_linked_list_shape () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let head = Graphgen.linked_list c ~node:0 ~bunch:b ~len:5 in
  Cluster.add_root c ~node:0 head;
  (* Walk it. *)
  let rec walk addr n =
    match Cluster.read c ~node:0 addr 0 with
    | Value.Ref next when not (Addr.is_null next) -> walk next (n + 1)
    | Value.Ref _ -> n + 1
    | Value.Data _ -> Alcotest.fail "next field should be a pointer"
  in
  check_int "five cells" 5 (walk head 0)

let test_binary_tree_shape () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let root = Graphgen.binary_tree c ~node:0 ~bunch:b ~depth:3 in
  Cluster.add_root c ~node:0 root;
  let rec size addr =
    let child i =
      match Cluster.read c ~node:0 addr i with
      | Value.Ref a when not (Addr.is_null a) -> size a
      | Value.Ref _ -> 0
      | Value.Data _ -> 0
    in
    1 + child 0 + child 1
  in
  check_int "complete tree of depth 3" 15 (size root)

let test_ring_is_cyclic () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let first = Graphgen.ring c ~node:0 ~bunch:b ~len:4 in
  Cluster.add_root c ~node:0 first;
  let rec walk addr n =
    if n = 0 then addr
    else
      match Cluster.read c ~node:0 addr 0 with
      | Value.Ref next -> walk next (n - 1)
      | Value.Data _ -> Alcotest.fail "ring broken"
  in
  check_bool "walking len steps returns to start" true
    (Cluster.ptr_eq c ~node:0 first (walk first 4))

let test_cross_bunch_ring_spans_bunches () =
  let c = Cluster.create ~nodes:1 () in
  let b1 = Cluster.new_bunch c ~home:0 in
  let b2 = Cluster.new_bunch c ~home:0 in
  let _ = Graphgen.cross_bunch_ring c ~node:0 ~bunches:[ b1; b2 ] ~len:4 in
  (* Cross-bunch edges exist iff the barrier made stubs in both. *)
  check_bool "stubs in both directions" true
    (Bmx_gc.Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b1 <> []
    && Bmx_gc.Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b2 <> [])

let test_random_graph_cross_refs () =
  let c = Cluster.create ~nodes:1 () in
  let bunches = List.init 3 (fun _ -> Cluster.new_bunch c ~home:0) in
  let rng = Rng.make 1 in
  let objs =
    Graphgen.random_graph c ~rng ~node:0 ~bunches ~objects:60 ~out_degree:2
      ~cross_bunch_prob:0.5
  in
  check_int "all objects built" 60 (Array.length objs);
  let stubs =
    List.concat_map
      (fun b -> Bmx_gc.Gc_state.inter_stubs (Cluster.gc c) ~node:0 ~bunch:b)
      bunches
  in
  check_bool "cross-bunch references got stubs" true (List.length stubs > 0)

let test_driver_runs_and_stays_safe () =
  let d = Driver.setup { Driver.default with ops = 500; seed = 3 } in
  Driver.run_ops d ();
  let c = Driver.cluster d in
  check_bool "safety after mixed workload" true (Result.is_ok (Bmx.Audit.check_safety c));
  check_bool "roots tracked" true (Driver.live_roots d > 0);
  (* GC everything a few rounds; still safe; garbage shrinks. *)
  let before = Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c) in
  let reclaimed = Cluster.collect_until_quiescent c () in
  let after = Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c) in
  check_bool "collection made progress" true (reclaimed >= 0 && after <= before);
  check_bool "safety after collection" true (Result.is_ok (Bmx.Audit.check_safety c))

(* The whole run: message totals and cached copies after the mutator
   ops, then the typed event log through quiescence as timestamped
   text, exactly as recorded. *)
let test_driver_deterministic () =
  let run seed =
    let d = Driver.setup { Driver.default with ops = 300; seed } in
    let c = Driver.cluster d in
    Cluster.set_event_trace c true;
    Driver.run_ops d ();
    let totals =
      ( Bmx_netsim.Net.total_messages (Cluster.net c),
        Bmx.Audit.total_cached_copies c )
    in
    ignore (Cluster.collect_until_quiescent c ());
    let b = Buffer.create 65_536 and collections = ref 0 in
    Trace_event.iter (Cluster.evlog c) (fun ts e ->
        (match e with Trace_event.Gc_begin _ -> incr collections | _ -> ());
        Printf.bprintf b "%d %s\n" ts (Trace_event.to_line e));
    check_bool "the log covers collections" true (!collections > 0);
    (totals, Buffer.contents b)
  in
  let a, trace = run 9 and b, trace' = run 9 in
  check (Alcotest.pair Alcotest.int Alcotest.int) "same seed, same totals" a b;
  check_bool "same seed, same event log" true (String.equal trace trace');
  check_bool "next seed, another event log" true
    (not (String.equal trace (snd (run 10))))

let test_driver_eager_policy () =
  let d =
    Driver.setup
      {
        Driver.default with
        ops = 300;
        seed = 6;
        update_policy = Bmx_dsm.Protocol.Eager;
      }
  in
  Driver.run_ops d ~ops:150 ();
  ignore (Cluster.gc_round (Driver.cluster d));
  Driver.run_ops d ~ops:150 ();
  let c = Driver.cluster d in
  ignore (Cluster.collect_until_quiescent c ());
  check_bool "safe under the eager update policy" true
    (Result.is_ok (Bmx.Audit.check_safety c))

let test_oo7_shallow_config () =
  let module Oo7 = Bmx_workload.Oo7 in
  let c = Cluster.create ~nodes:1 () in
  let cfg = { Oo7.default with Oo7.levels = 1; assembly_fanout = 2 } in
  let m = Oo7.build c ~node:0 cfg in
  (* 2 bases * 3 comps * 8 atomics. *)
  check_int "shallow module traverses fully" 48 (Oo7.t1 m ~node:0)

let test_driver_interleaved_gc () =
  let d = Driver.setup { Driver.default with ops = 200; seed = 4 } in
  let c = Driver.cluster d in
  for _ = 1 to 5 do
    Driver.run_ops d ~ops:100 ();
    ignore (Cluster.gc_round c);
    check_bool "safe at every interleaving point" true
      (Result.is_ok (Bmx.Audit.check_safety c))
  done

let () =
  Alcotest.run "workload"
    [
      ( "graphgen",
        [
          Alcotest.test_case "linked list" `Quick test_linked_list_shape;
          Alcotest.test_case "binary tree" `Quick test_binary_tree_shape;
          Alcotest.test_case "ring is cyclic" `Quick test_ring_is_cyclic;
          Alcotest.test_case "cross-bunch ring" `Quick test_cross_bunch_ring_spans_bunches;
          Alcotest.test_case "random graph" `Quick test_random_graph_cross_refs;
        ] );
      ( "driver",
        [
          Alcotest.test_case "mixed workload stays safe" `Quick
            test_driver_runs_and_stays_safe;
          Alcotest.test_case "deterministic by seed" `Quick test_driver_deterministic;
          Alcotest.test_case "GC interleaved with mutators" `Quick
            test_driver_interleaved_gc;
          Alcotest.test_case "eager update policy" `Quick test_driver_eager_policy;
          Alcotest.test_case "shallow OO7 config" `Quick test_oo7_shallow_config;
        ] );
    ]
