(* The driver's incremental legality memo (Bmx_workload.Reach) against
   forged adversarial sequences and a from-scratch oracle.

   Three layers:
   - hand-forged shapes that break naive decremental reachability
     (rootless cycles that must not keep themselves alive, diamonds
     where one support survives, cascades through a dying region);
   - randomized equivalence: every mutation of a random graph is
     followed by a full naive BFS recomputation, and the mirror's
     bitmap must match it exactly — the memo is exact at every step,
     not just eventually;
   - driver-level: a churn-heavy workload runs in single-op batches with
     no batch resync, and [Driver.check_memo] compares the mirror
     object-by-object against [Audit.union_reachable] — including
     across collections and ownership migration, which rewrite
     addresses but must leave the uid-level graph untouched.

   Mutation checks (hand-applied breakages that make this file fail):
   - skipping the cascade after a closure clear (out-targets of cleared
     nodes keep stale marks): "cascade through a dying region" and the
     random equivalence property;
   - treating an anchored search as proof for the whole closure rather
     than the seed only — marks go stale-false: random equivalence;
   - dropping the rootless-cycle clear (only clearing the seed):
     "rootless cycle dies";
   - forgetting [unlink_edge] on overwrite, so ghost in-edges anchor
     dead nodes: "relink drops the old support" and random equivalence;
   - in the driver, updating the mirror before [remove_root_checked]
     reports whether a root was really removed: the driver-level batch
     equivalence diverges as soon as a stale handle makes the removal
     a silent no-op. *)

open Bmx_util
module Reach = Bmx_workload.Reach
module Driver = Bmx_workload.Driver
module Cluster = Bmx.Cluster

let check = Alcotest.check
let check_bool = check Alcotest.bool

let reachable_list t n = List.init n (fun i -> Reach.reachable t i)

let test_chain_and_cycle () =
  (* r -> a -> b -> c -> a  (cycle kept alive through the chain head) *)
  let t = Reach.create ~n:4 ~arity:1 in
  Reach.set_edge t ~src:0 ~slot:0 1;
  Reach.set_edge t ~src:1 ~slot:0 2;
  Reach.set_edge t ~src:2 ~slot:0 3;
  Reach.set_edge t ~src:3 ~slot:0 1;
  Reach.add_root t 0;
  check (Alcotest.list Alcotest.bool) "all alive" [ true; true; true; true ]
    (reachable_list t 4);
  Reach.drop_root t 0;
  (* The cycle 1->2->3->1 is rootless: it must not keep itself alive. *)
  check (Alcotest.list Alcotest.bool) "rootless cycle dies"
    [ false; false; false; false ]
    (reachable_list t 4)

let test_diamond_keeps_survivor () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; cutting 1 -> 3 leaves 3 via 2. *)
  let t = Reach.create ~n:4 ~arity:2 in
  Reach.set_edge t ~src:0 ~slot:0 1;
  Reach.set_edge t ~src:0 ~slot:1 2;
  Reach.set_edge t ~src:1 ~slot:0 3;
  Reach.set_edge t ~src:2 ~slot:0 3;
  Reach.add_root t 0;
  Reach.set_edge t ~src:1 ~slot:0 (-1);
  check_bool "3 survives via the other arm" true (Reach.reachable t 3);
  Reach.set_edge t ~src:2 ~slot:0 (-1);
  check_bool "3 dies with its last support" false (Reach.reachable t 3)

let test_cascade_through_dying_region () =
  (* root -> 1 -> 2 -> 3 -> 4, plus 2 -> 4 directly: dropping edge
     root->1 must clear the whole chain including 4, whose two supports
     (3 and 2) both die in the same event — the cascade, not the first
     closure, reaches it. *)
  let t = Reach.create ~n:5 ~arity:2 in
  Reach.set_edge t ~src:0 ~slot:0 1;
  Reach.set_edge t ~src:1 ~slot:0 2;
  Reach.set_edge t ~src:2 ~slot:0 3;
  Reach.set_edge t ~src:3 ~slot:0 4;
  Reach.set_edge t ~src:2 ~slot:1 4;
  Reach.add_root t 0;
  Reach.set_edge t ~src:0 ~slot:0 (-1);
  check (Alcotest.list Alcotest.bool) "whole region dies"
    [ true; false; false; false; false ]
    (reachable_list t 5)

let test_relink_resurrects () =
  let t = Reach.create ~n:3 ~arity:1 in
  Reach.add_root t 0;
  Reach.set_edge t ~src:1 ~slot:0 2;
  check_bool "2 unreachable (its source is)" false (Reach.reachable t 2);
  Reach.set_edge t ~src:0 ~slot:0 1;
  check_bool "1 resurrected" true (Reach.reachable t 1);
  check_bool "2 resurrected transitively" true (Reach.reachable t 2);
  Reach.set_edge t ~src:0 ~slot:0 (-1);
  check_bool "relink drops the old support" false (Reach.reachable t 1)

let test_self_loop_and_root_counting () =
  let t = Reach.create ~n:2 ~arity:1 in
  Reach.set_edge t ~src:0 ~slot:0 0;
  Reach.add_root t 0;
  Reach.add_root t 0;
  Reach.drop_root t 0;
  check_bool "second root still pins the self-loop" true (Reach.reachable t 0);
  Reach.drop_root t 0;
  check_bool "self-loop cannot pin itself" false (Reach.reachable t 0)

(* --- randomized equivalence vs a naive oracle ------------------------- *)

let naive_reachable ~n ~arity out roots =
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      for s = 0 to arity - 1 do
        let j = out.((i * arity) + s) in
        if j >= 0 then visit j
      done
    end
  in
  for i = 0 to n - 1 do
    if roots.(i) > 0 then visit i
  done;
  seen

let random_equivalence seed =
  let rng = Rng.make seed in
  let n = 8 + Rng.int rng 40 in
  let arity = 1 + Rng.int rng 3 in
  let t = Reach.create ~n ~arity in
  let out = Array.make (n * arity) (-1) in
  let roots = Array.make n 0 in
  for step = 1 to 600 do
    (match Rng.int rng 5 with
    | 0 ->
        let i = Rng.int rng n in
        roots.(i) <- roots.(i) + 1;
        Reach.add_root t i
    | 1 ->
        let i = Rng.int rng n in
        if roots.(i) > 0 then begin
          roots.(i) <- roots.(i) - 1;
          Reach.drop_root t i
        end
    | _ ->
        let src = Rng.int rng n and slot = Rng.int rng arity in
        let target = if Rng.int rng 4 = 0 then -1 else Rng.int rng n in
        out.((src * arity) + slot) <- target;
        Reach.set_edge t ~src ~slot target);
    let oracle = naive_reachable ~n ~arity out roots in
    for i = 0 to n - 1 do
      if Reach.reachable t i <> oracle.(i) then
        Alcotest.failf
          "seed %d step %d: node %d mirror=%b oracle=%b (n=%d arity=%d)" seed
          step i (Reach.reachable t i) oracle.(i) n arity
    done
  done

let test_random_equivalence () =
  List.iter random_equivalence [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- driver-level: mirror == audit truth under a hostile workload ----- *)

let assert_memo d label =
  match Driver.check_memo d with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let test_driver_memo_matches_audit () =
  let cfg =
    {
      Driver.default with
      nodes = 3;
      bunches = 3;
      objects_per_bunch = 24;
      root_churn_prob = 0.25;
      relink_prob = 0.8;
      write_prob = 0.7;
      seed = 97;
    }
  in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  assert_memo d "after setup";
  (* Single-op batches with no resync: every divergence surfaces at the
     op that introduced it, not masked by a batch-start rebuild. *)
  for k = 1 to 300 do
    Driver.run_ops d ~resync_first:false ~ops:1 ();
    if k mod 25 = 0 then assert_memo d (Printf.sprintf "after op %d" k)
  done;
  assert_memo d "after 300 ops";
  (* Collections and ownership migration rewrite addresses; the
     uid-level graph — and therefore the mirror — must not move. *)
  ignore (Cluster.gc_round c);
  ignore (Cluster.drain c);
  assert_memo d "after a collection round";
  Driver.run_ops d ~resync_first:false ~ops:100 ();
  assert_memo d "after 100 more ops";
  check_bool "workload actually exercised churn" true (Driver.live_roots d > 0)

let () =
  Alcotest.run "reach"
    [
      ( "forged",
        [
          Alcotest.test_case "rootless cycle dies" `Quick test_chain_and_cycle;
          Alcotest.test_case "diamond keeps the survivor" `Quick
            test_diamond_keeps_survivor;
          Alcotest.test_case "cascade through a dying region" `Quick
            test_cascade_through_dying_region;
          Alcotest.test_case "relink resurrects and re-kills" `Quick
            test_relink_resurrects;
          Alcotest.test_case "self-loops and root counts" `Quick
            test_self_loop_and_root_counting;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "random graphs match naive recomputation" `Quick
            test_random_equivalence;
        ] );
      ( "driver",
        [
          Alcotest.test_case "mirror matches audit under churn" `Quick
            test_driver_memo_matches_audit;
        ] );
    ]
