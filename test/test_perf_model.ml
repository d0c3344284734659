(* Empirical complexity model: the per-op work of the driver's hot path,
   measured through the Perfcount counter harness at two heap sizes, must
   not grow with the heap.  This is the lock on the flat-heap refactor —
   wall-clock floors live in the bench smoke gate; here we assert the
   *counts* that make the wall-clock follow.

   Method (also the HACKING.md "Performance" recipe): set up a workload,
   warm it with one resynced batch, then snapshot Perfcount / diff
   around a steady-state batch and divide by ops.  Do it at a baseline
   heap and at an 8x heap; every per-op figure must stay within a small
   constant factor, nowhere near the 8x a linear-in-heap path would show.

   Mutation checks (hand-applied breakages that make this file fail):
   - a Store.iter sneaking into the mutator path: store_cells_touched
     per op is no longer ~0;
   - reverting the rooted-set ring buffer to the O(roots) list append
     does not move these counters but re-blows the allocation test:
     minor words per op scales with live roots, which scale with the
     heap;
   - reverting gauge sampling to heap iteration makes
     [obs_sample_work] per collection scale with objects_per_bunch:
     "gauge sampling is heap-size independent" fails;
   - copying a full's edges into each receiver's own mirror, or
     rebuilding a mirror's whole set at each delta: "receivers share a
     full's edge sets" fails (see there);
   - probing the mirror of the queried uid's own bunch in
     [Gc_state.mirror_claims_target]: "claim probes skip the query's
     bunch" fails;
   - keeping a list view or a per-key count beside a scion table's
     member set: "an inter scion is held once" fails;
   - shipping a full's edges as their two ids, not gap-coded: "a dense
     full is priced gap-coded" fails (the [@bench-smoke] tables are too
     small to catch it);
   - rebuilding a stub table's kept edge set at each read instead of
     folding the flips since the last read into it, or building it at
     the first read by inserting edge by edge: "a kept edge set is
     sorted once, then flips in O(log n)" fails;
   - an option-returning lookup, a per-grant hash table or closure, or a
     clone over the requester's own stale copy back on the acquire path:
     "a grant allocates what it ships" fails (the parent of that change
     measured 375 and 559 words a grant);
   - a tuple key or a [Metrics.incr] per message back in Net's
     accounting: "message accounting allocates nothing" fails;
   - an event record built before asking whether the log is on, in Net
     or on the acquire path: "message accounting allocates nothing" or
     "a local acquire allocates nothing with the log off" fails. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Driver = Bmx_workload.Driver
module Gc_state = Bmx_gc.Gc_state
module Scion_cleaner = Bmx_gc.Scion_cleaner
module Ssp = Bmx_gc.Ssp
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Value = Bmx_memory.Value
module P = Perfcount

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let steady_cfg objects_per_bunch =
  {
    Driver.default with
    nodes = 4;
    bunches = 4;
    objects_per_bunch;
    root_churn_prob = 0.05;
    relink_prob = 0.4;
    seed = 11;
  }

(* Steady-state per-op counter deltas over [ops] driver ops. *)
let measure ~objects_per_bunch ~ops () =
  let d = Driver.setup (steady_cfg objects_per_bunch) in
  (* Warm: one resynced batch so lazily-built state exists. *)
  Driver.run_ops d ~ops:200 ();
  let before = P.snapshot () in
  let w0 = Gc.minor_words () in
  Driver.run_ops d ~resync_first:false ~ops ();
  let words = Gc.minor_words () -. w0 in
  let delta = P.diff ~before ~after:(P.snapshot ()) in
  (d, delta, words /. float_of_int ops)

let per_op delta field ops = float_of_int (field delta) /. float_of_int ops

let test_reach_work_heap_independent () =
  let ops = 1500 in
  let _, small, _ = measure ~objects_per_bunch:64 ~ops () in
  let _, big, _ = measure ~objects_per_bunch:512 ~ops () in
  check_int "no batch resyncs measured" 0 big.P.s_memo_resyncs;
  (* No store-wide iteration inside the mutator loop. *)
  check_int "no store scans (small)" 0 small.P.s_store_cells_touched;
  check_int "no store scans (8x heap)" 0 big.P.s_store_cells_touched;
  let s = per_op small P.(fun d -> d.s_reach_nodes_touched) ops in
  let b = per_op big P.(fun d -> d.s_reach_nodes_touched) ops in
  if b > 25.0 then
    Alcotest.failf "reach work per op too high at 8x heap: %.2f nodes" b;
  if b > (4.0 *. s) +. 8.0 then
    Alcotest.failf
      "reach work per op scales with the heap: %.2f (baseline) -> %.2f (8x)" s b

let test_allocation_heap_independent () =
  let ops = 1500 in
  let _, _, w_small = measure ~objects_per_bunch:64 ~ops () in
  let _, _, w_big = measure ~objects_per_bunch:512 ~ops () in
  if w_big > 1024.0 then
    Alcotest.failf "allocation per op over budget at 8x heap: %.0f words" w_big;
  if w_big > (2.5 *. w_small) +. 64.0 then
    Alcotest.failf
      "allocation per op scales with the heap: %.0f -> %.0f words" w_small w_big

let test_gauge_sampling_heap_independent () =
  let sample_work objects_per_bunch =
    let cfg = steady_cfg objects_per_bunch in
    let d = Driver.setup cfg in
    let c = Driver.cluster d in
    Driver.run_ops d ~ops:100 ();
    let bunch = List.hd (Bmx_dsm.Protocol.bunches (Cluster.proto c)) in
    let node = List.hd (Cluster.nodes c) in
    let before = P.snapshot () in
    ignore (Cluster.bgc c ~node ~bunch);
    (P.diff ~before ~after:(P.snapshot ())).P.s_obs_sample_work
  in
  let small = sample_work 64 in
  let big = sample_work 512 in
  if small <= 0 then
    Alcotest.failf "gauge sampling not instrumented (work=%d)" small;
  if big > 2 * small then
    Alcotest.failf
      "gauge sampling scales with the heap: %d (baseline) -> %d (8x)" small big

let test_quiescent_rounds_are_constant_work () =
  (* Economical-mode convergence: once [collect_until_quiescent] returns,
     the cluster is structurally clean — every (node, bunch) pair's dirty
     epoch matches its last BGC — so one more [gc_round] must be skips
     all the way down: no objects traced, no table entries reconciled.
     Mutation checks (hand-applied breakages that make this fail):
     - bumping Store/Directory mutation epochs on reads or on a BGC's
       own bookkeeping writes (e.g. dropping the duplicate-forwarder
       guard in Store.set_forwarder) re-dirties peers forever:
       [skipped_clean] stays 0 and the post-quiescence round traces the
       whole heap again;
     - removing the cleaner's empty-delta fast path does not break the
       skip counter but resurfaces as [gc_table_entries] > 0 here
       whenever a straggler message drains late. *)
  let cfg = steady_cfg 128 in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  Driver.run_ops d ~ops:400 ();
  ignore (Cluster.collect_until_quiescent c ());
  let stats = Cluster.stats c in
  let skipped0 = Stats.get stats "gc.bgc.skipped_clean" in
  let before = P.snapshot () in
  ignore (Cluster.gc_round c);
  let delta = P.diff ~before ~after:(P.snapshot ()) in
  if Stats.get stats "gc.bgc.skipped_clean" <= skipped0 then
    Alcotest.fail "post-quiescence gc_round skipped no clean (node, bunch) pair";
  check_int "post-quiescence round traces no objects" 0
    delta.P.s_gc_objects_touched;
  check_int "post-quiescence round reconciles no table entries" 0
    delta.P.s_gc_table_entries

let test_reclaim_walks_fixed () =
  (* §4.5 work gate: one reclaim_from_space over 8 from-space segments
     (900 rooted objects copied by 8 BGCs leave 7 200 forwarders; with
     700 objects of another bunch the store holds 8 800 cells) walks the
     store three times, however many segments it frees.
     Mutation checks: walking once per segment (the pointer pass inside
     the per-segment loop, or one walk per segment to find its cells)
     charges over 3 walks' worth. *)
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 and other = Cluster.new_bunch c ~home:0 in
  for i = 1 to 900 do
    Cluster.add_root c ~node:0
      (Cluster.alloc c ~node:0 ~bunch:b [| Bmx_memory.Value.Data i |])
  done;
  for i = 1 to 700 do
    ignore (Cluster.alloc c ~node:0 ~bunch:other [| Bmx_memory.Value.Data i |])
  done;
  for _ = 1 to 8 do
    ignore (Cluster.bgc c ~node:0 ~bunch:b)
  done;
  let cells = ref 0 in
  Bmx_memory.Store.iter (Bmx_dsm.Protocol.store (Cluster.proto c) 0) (fun _ _ ->
      incr cells);
  check_int "cells at entry" 8800 !cells;
  let before = P.snapshot () in
  let r = Cluster.reclaim_from_space c ~node:0 ~bunch:b in
  let touched = (P.diff ~before ~after:(P.snapshot ())).P.s_store_cells_touched in
  check_int "segments freed" 8 r.Bmx_gc.Reclaim.q_segments_freed;
  check_int "forwarders dropped" 7200 r.Bmx_gc.Reclaim.q_forwarders_dropped;
  if touched > 3 * !cells then
    Alcotest.failf "reclaim touched %d store cells, over 3 walks of %d" touched
      !cells

(* Words allocated, counted as test_timeseries does: [Gc.minor_words]
   alone undercounts on OCaml 5.1. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A receiver only reads a stub table (§6.1), so every receiver of one
   full stores the edge sets the sender built for it.  The same full is
   installed at each of five further receivers; its tables hold 10 or
   1 000 edges of each kind, aimed at uids no receiver knows, so the
   reconcile that follows allocates nothing per edge either.  Then a
   delta that deletes one edge of each kind and adds one reaches every
   receiver: each builds a new set for its own mirror, O(log n) words,
   not a copy of the table.
   This costs 453 words per further receiver at either size, and a
   delta 267 and 387.  Copying the shipped edges into hash tables, as
   [Gc_state.mirror_reset] did before the sets were shared, costs 757
   and 18 503; copying the shipped sets ([of_list] over their elements)
   919 and 84 979; rebuilding the mirror's set at each delta 504 and
   42 654 per delta. *)
let receiver_cost ~edges =
  let receivers = 6 in
  let c = Cluster.create ~nodes:(receivers + 1) () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 in
  let inter i = (100_000 + i, 200_000 + i) and intra i = (300_000 + i, 1) in
  let msg body = { Scion_cleaner.tm_sender = 0; tm_bunch = b; tm_body = body } in
  let full =
    msg
      (Scion_cleaner.Full
         {
           fb_inter = Gc_state.Inter_edges.of_list (List.init edges inter);
           fb_intra = Gc_state.Intra_edges.of_list (List.init edges intra);
           fb_exiting = [];
         })
  in
  let delta =
    msg
      (Scion_cleaner.Delta
         {
           db_basis = 1;
           db_add_inter = [ inter edges ];
           db_del_inter = [ inter (edges / 2) ];
           db_add_intra = [ intra edges ];
           db_del_intra = [ intra (edges / 2) ];
           db_add_exiting = [];
           db_del_exiting = [];
         })
  in
  (* The first receipt creates the cluster's cleaner counters. *)
  Scion_cleaner.receive gc ~at:1 ~seq:1 full;
  let w0 = allocated_words () in
  for at = 2 to receivers do
    Scion_cleaner.receive gc ~at ~seq:1 full
  done;
  let w1 = allocated_words () in
  for at = 1 to receivers do
    Scion_cleaner.receive gc ~at ~seq:2 delta
  done;
  let w2 = allocated_words () in
  List.iter
    (fun at ->
      match Gc_state.mirror gc ~node:at ~sender:0 ~bunch:b with
      | exception Not_found -> Alcotest.failf "N%d has no mirror" at
      | m ->
          if
            Gc_state.mirror_has_inter m (inter (edges / 2))
            || not (Gc_state.mirror_has_inter m (inter edges))
          then Alcotest.failf "N%d's mirror missed the delta" at)
    (List.init receivers (fun i -> i + 1));
  ( (w1 -. w0) /. float_of_int (receivers - 1),
    (w2 -. w1) /. float_of_int receivers )

let test_receivers_share_edge_sets () =
  let full_small, delta_small = receiver_cost ~edges:10 in
  let full_big, delta_big = receiver_cost ~edges:1000 in
  if full_big <> full_small then
    Alcotest.failf
      "installing a full costs %.0f words per receiver at 1 000 edges, %.0f at \
       10: the edges are copied"
      full_big full_small;
  if delta_big > 2.0 *. delta_small then
    Alcotest.failf
      "a delta costs %.0f words per receiver against a 1 000-edge mirror, \
       %.0f against a 10-edge one: it copies the set"
      delta_big delta_small

(* The crash keep-alive's claim query probes each mirror the receiver
   holds from the sender, one ordered lookup charged per mirror, except
   the mirror of the queried uid's own bunch: an inter-bunch stub is
   filed only across bunches, so that table targets nothing in it.  N1
   mirrors one full from N0 for each of [k] bunches; a query for a uid
   of the first bunch that no edge targets charges [k - 1] table
   entries ([k] when every mirror is probed), and a uid another
   bunch's mirror targets is still claimed. *)
let test_claim_probes_skip_own_bunch () =
  let k = 5 in
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let bunches = List.init k (fun _ -> Cluster.new_bunch c ~home:0) in
  List.iteri
    (fun i bunch ->
      Scion_cleaner.receive gc ~at:1 ~seq:1
        {
          Scion_cleaner.tm_sender = 0;
          tm_bunch = bunch;
          tm_body =
            Scion_cleaner.Full
              {
                fb_inter = Gc_state.Inter_edges.singleton (1_000 + i, 2_000 + i);
                fb_intra = Gc_state.Intra_edges.empty;
                fb_exiting = [];
              };
        })
    bunches;
  let own = List.hd bunches in
  let claims uid =
    let before = P.snapshot () in
    let claimed = Gc_state.mirror_claims_target gc ~node:1 ~sender:0 ~bunch:own uid in
    (claimed, (P.diff ~before ~after:(P.snapshot ())).P.s_gc_table_entries)
  in
  let claimed, probes = claims 9_999 in
  check_bool "an untargeted uid is not claimed" false claimed;
  check_int "one probe per mirror but the query bunch's" (k - 1) probes;
  check_bool "another bunch's edge claims its target" true (fst (claims 2_003))

(* A scion table is its member set and one index, so an inter-bunch
   scion is held once: its record, its member binding and its binding in
   its stub node's index bucket.  Adding 1 000 distinct inter scions at
   a node grows [Gc_state.words_held]'s scion row by 15.0 words each;
   27.5 while the table also kept a list view and a per-key count of
   global match keys.  The bound is 20. *)
let test_inter_scion_held_once () =
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let sb = Cluster.new_bunch c ~home:1 in
  let tb = Cluster.new_bunch c ~home:0 in
  let scion_words () = List.assoc "scion tables" (Gc_state.words_held gc) in
  let add i =
    Gc_state.add_inter_scion gc ~node:0
      {
        Ssp.xs_src_bunch = sb;
        xs_src_uid = 1 + i;
        xs_src_node = 1;
        xs_target_uid = 100_001 + i;
        xs_target_bunch = tb;
      }
  in
  (* The first scion creates the table and its index bucket. *)
  add 0;
  let before = scion_words () in
  let n = 1_000 in
  for i = 1 to n do
    add i
  done;
  let per = float_of_int (scion_words () - before) /. float_of_int n in
  if per > 20.0 then
    Alcotest.failf "an inter scion takes %.1f words in its table (bound 20)" per

(* An inter stub of bunch [b] at N0, its scion at N1. *)
let inter_stub ~b ~tb ~src ~target =
  {
    Ssp.is_src_bunch = b;
    is_src_uid = src;
    is_created_at = 0;
    is_target_uid = target;
    is_target_bunch = tb;
    is_target_addr = Addr.null;
    is_scion_at = 1;
  }

(* A full ships its edges gap-coded.  N0's table for one bunch holds
   1 000 inter edges (10 000 + i, 20 000 + i), dense in their targets.
   In target order the first edge costs its target (3 bytes) and its
   source (2), and every later one the target difference 1 (1 byte) and
   its source (2): 5 + 999 × 3 = 3 002 bytes.  As two ids each, the
   edges weighed 5 000.  The table's sum, the first-contact full's price
   and the [msg_bytes] of the message delivered must all read the gap
   size. *)
let test_dense_full_gap_coded () =
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 and tb = Cluster.new_bunch c ~home:1 in
  for i = 0 to 999 do
    Gc_state.add_inter_stub gc ~node:0
      (inter_stub ~b ~tb ~src:(10_000 + i) ~target:(20_000 + i))
  done;
  let edges = 5 + (999 * 3) in
  check_int "the table's gap-coded sum" edges
    (Gc_state.inter_key_bytes gc ~node:0 ~bunch:b);
  let delivered = ref 0 in
  Fun.protect
    ~finally:(fun () -> Scion_cleaner.set_delivery_tap None)
    (fun () ->
      Scion_cleaner.set_delivery_tap
        (Some (fun ~at:_ msg -> delivered := !delivered + Scion_cleaner.msg_bytes msg));
      ignore
        (Scion_cleaner.broadcast gc ~node:0 ~bunch:b
           ~holders:(Gc_state.stub_holders gc ~node:0 ~bunch:b)
           ~exiting:[]);
      ignore (Cluster.drain c));
  (* Kind, sender and bunch, the inter section's length (2 bytes) and
     the two empty sections' lengths. *)
  let full = 7 + edges in
  check_int "the full's price" full
    (Stats.get (Cluster.stats c) "tables.full_wire_bytes");
  check_int "msg_bytes of the full delivered" full !delivered

(* A stub table keeps its edge set across rounds, and a read folds the
   edges flipped since the last one into it.  A table of [n] inter
   edges is read once, which builds its set, and its journal rebased,
   as a round does.  Then 200 fresh edges, spread among the old ones,
   are added one at a time with a read after each, and dropped again
   together before one more read; the second such cycle is measured.
   A flip costs 77 words at 100 edges and 108 at 10 000; rebuilding the
   set at each read costs 3 546 and 262 855.  The bound is 2×.  The
   first read, a fold into the empty set, sorts the edge counts once:
   52 words an edge at 10 000 edges, where inserting the edges one by
   one takes 78.  The bound is 65.  Returns the first read's words per
   edge and the words per flip. *)
let kept_set_words ~n =
  let c = Cluster.create ~nodes:2 () in
  let gc = Cluster.gc c in
  let b = Cluster.new_bunch c ~home:0 and tb = Cluster.new_bunch c ~home:1 in
  for k = 0 to n - 1 do
    Gc_state.add_inter_stub gc ~node:0
      (inter_stub ~b ~tb ~src:(10_000 + k) ~target:(50_000 + (7 * k)))
  done;
  let read () = ignore (Gc_state.inter_key_bytes gc ~node:0 ~bunch:b) in
  let w0 = allocated_words () in
  read ();
  let build = (allocated_words () -. w0) /. float_of_int n in
  Gc_state.rebase_stub_journal gc ~node:0 ~bunch:b;
  let fresh =
    List.init 200 (fun j ->
        inter_stub ~b ~tb ~src:(30_000 + j) ~target:(50_000 + (7 * (j * n / 200)) + 3))
  in
  let old (s : Ssp.inter_stub) = s.Ssp.is_src_uid < 30_000 in
  let cycle () =
    List.iter
      (fun s ->
        Gc_state.add_inter_stub gc ~node:0 s;
        read ())
      fresh;
    Gc_state.retain_stubs gc ~node:0 ~bunch:b ~inter:old ~intra:(fun _ -> true);
    read ()
  in
  cycle ();
  let w0 = allocated_words () in
  cycle ();
  let words = allocated_words () -. w0 in
  check_int "the table is back to its old edges" n
    (Gc_state.inter_key_count gc ~node:0 ~bunch:b);
  (build, words /. 400.0)

let test_kept_set_words () =
  let _, small = kept_set_words ~n:100 and build, big = kept_set_words ~n:10_000 in
  if big > 2.0 *. small then
    Alcotest.failf
      "an edge flip costs %.0f words in a 10 000-edge table, %.0f in a 100-edge \
       one: the kept set is rebuilt"
      big small;
  if build > 65.0 then
    Alcotest.failf
      "the first read of a 10 000-edge table takes %.1f words an edge (bound 65): \
       the set is built edge by edge"
      build

(* Words one remote grant allocates: a 4-node centralized cluster with
   the event log on, warmed by one round, then [rounds] rounds over four
   objects of three fields.  In a round each of N1-N3 takes a read grant
   from the owner N0 and releases it, N1 takes the write grant, writes a
   field and releases, and N0 takes the object back (the write-back,
   also a write grant).  Each acquire is measured alone, less what an
   empty measurement costs.  Words are counted with [allocated_words],
   except that the event log's chunks count as the words the acquire's
   events fill in them: the log grows by chunks of up to 64 Ki words,
   allocated straight on the major heap once per thousands of events,
   and charging a whole chunk to the acquire that happens to open one
   would make the figure depend on where chunks fall.  Every measured
   grant finds the requester's stale copy at the granted address and
   ships no location update; what it allocates besides its events is
   the copyset set a read grant grows, the write grant's invalidation
   walk and the two histogram observations a grant makes.  Returns the
   mean words per read grant and per write grant. *)
let grant_words ~rounds =
  let c = Cluster.create ~nodes:4 ~mode:Protocol.Centralized ~trace_events:true () in
  let proto = Cluster.proto c in
  let log = Cluster.evlog c in
  let b = Cluster.new_bunch c ~home:0 in
  let leaf = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 0 |] in
  let objs =
    Array.init 4 (fun i ->
        Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref leaf; Value.Data i; Value.nil |])
  in
  let words () =
    let _, promoted, major = Gc.counters () in
    allocated_words () -. (major -. promoted) +. float_of_int (Trace_event.words log)
  in
  let empty =
    let w0 = words () in
    words () -. w0
  in
  let reads = ref 0.0 and writes = ref 0.0 in
  let timed acc ~node x kind =
    let w0 = words () in
    let a = Protocol.acquire proto ~node x kind in
    acc := !acc +. (words () -. w0 -. empty);
    a
  in
  let round acc_read acc_write =
    Array.iter
      (fun x ->
        for node = 1 to 3 do
          let a = timed acc_read ~node x `Read in
          Protocol.release proto ~node a
        done;
        let a = timed acc_write ~node:1 x `Write in
        Protocol.write_field_raw proto ~node:1 a 1 (Value.Data 7);
        Protocol.release proto ~node:1 a;
        let a = timed acc_write ~node:0 x `Write in
        Protocol.release proto ~node:0 a)
      objs
  in
  round (ref 0.0) (ref 0.0);
  for _ = 1 to rounds do
    round reads writes
  done;
  let grants per = float_of_int (rounds * Array.length objs * per) in
  (!reads /. grants 3, !writes /. grants 2)

(* A remote read grant takes 94 words and a write grant 160 (N1's grant,
   with its invalidations and the §5 hook, and the write-back averaged).
   While every lookup on the acquire path boxed an option or a tuple, a
   grant coalesced its updates through a hash table and cloned over the
   requester's own stale copy, an acquire built a completion closure and
   each message hashed four metric keys, they took 375 and 559.  The
   budgets sit about 10% above. *)
let test_grant_words () =
  let read, write = grant_words ~rounds:40 in
  if read > 104.0 then
    Alcotest.failf "a remote read grant allocates %.1f words (budget 104)" read;
  if write > 176.0 then
    Alcotest.failf "a remote write grant allocates %.1f words (budget 176)" write

(* Words [f ()] allocates per call, over [k] calls after a first one
   that registers counters and streams. *)
let words_per_call f =
  f ();
  let k = 1000 in
  let empty =
    let w0 = allocated_words () in
    allocated_words () -. w0
  in
  let w0 = allocated_words () in
  for _ = 1 to k do
    f ()
  done;
  (allocated_words () -. w0 -. empty) /. float_of_int k

(* The per-message accounting allocates nothing: with a metrics registry
   attached and no event log, a [Net.record_rpc] allocates no word.  (A
   tuple key per stream lookup and cut check, and a hashed
   [Metrics.incr] per counter, cost 44 words a call; building the
   event record before asking whether a log records it cost 5.) *)
let test_rpc_accounting_words () =
  let net = Net.create ~stats:(Stats.create_registry ()) () in
  Net.set_metrics net (Bmx_obs.Metrics.create ());
  let per =
    words_per_call (fun () ->
        Net.record_rpc net ~src:1 ~dst:2 ~kind:Net.Token_request ())
  in
  if per > 0.0 then Alcotest.failf "a record_rpc allocates %.1f words" per

(* With the event log off, as [Cluster.create] leaves it, a local read or
   write acquire and its release allocate nothing: no event is built.
   Building the acquire-start and release records anyway cost 8
   words. *)
let test_local_acquire_words () =
  let c = Cluster.create ~nodes:1 () in
  let b = Cluster.new_bunch c ~home:0 in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  List.iter
    (fun (name, acquire) ->
      let per =
        words_per_call (fun () ->
            Cluster.release c ~node:0 (acquire c ~node:0 x))
      in
      if per > 0.0 then
        Alcotest.failf "a local %s acquire and release allocate %.1f words" name
          per)
    [ ("read", Cluster.acquire_read); ("write", Cluster.acquire_write) ]

(* The grant's work counters on a small write grant with [k] readers.
   N0 owns x = [w; w; y] and w; y belongs to N_(k+1).  N1..Nk read x,
   then collections at N0 and N_(k+1) move x and w (N0's copy of x now
   names w's new address) and y.  The writer N_(k+2) first reads y, so
   it holds a forwarder from y's old address, then takes the write
   grant for x through x's old address.  The grant ships two updates —
   x's own move and w's, named by two fields but coalesced to one — and
   its install rewrites the one field naming y.  Its partition
   pre-flight and its invalidation each visit N0's copyset, the k
   readers, once. *)
let test_grant_counters () =
  let k = 3 in
  let c = Cluster.create ~nodes:(k + 3) ~mode:Protocol.Centralized () in
  let b = Cluster.new_bunch c ~home:0 in
  let yb = Cluster.new_bunch c ~home:(k + 1) in
  let y = Cluster.alloc c ~node:(k + 1) ~bunch:yb [| Value.Data 1 |] in
  let w = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 2 |] in
  let x = Cluster.alloc c ~node:0 ~bunch:b [| Value.Ref w; Value.Ref w; Value.Ref y |] in
  for node = 1 to k do
    Cluster.release c ~node (Cluster.acquire_read c ~node x)
  done;
  Cluster.add_root c ~node:0 x;
  ignore (Cluster.bgc c ~node:0 ~bunch:b);
  Cluster.add_root c ~node:(k + 1) y;
  ignore (Cluster.bgc c ~node:(k + 1) ~bunch:yb);
  let writer = k + 2 in
  Cluster.release c ~node:writer (Cluster.acquire_read c ~node:writer y);
  let before = P.snapshot () in
  Cluster.release c ~node:writer (Cluster.acquire_write c ~node:writer x);
  let d = P.diff ~before ~after:(P.snapshot ()) in
  check_int "updates shipped" 2 d.P.s_dsm_updates;
  check_int "fields forwarded" 1 d.P.s_dsm_fields_forwarded;
  check_int "copyset members visited" (2 * k) d.P.s_dsm_copyset_visits

let test_memo_exact_after_measurement () =
  (* The speed must not come from drift: after a steady-state run the
     mirror still equals the from-scratch oracle. *)
  let d, _, _ = measure ~objects_per_bunch:128 ~ops:1000 () in
  match Driver.check_memo d with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "memo diverged: %s" msg

let () =
  Alcotest.run "perf_model"
    [
      ( "complexity",
        [
          Alcotest.test_case "per-op reach work is heap-size independent"
            `Quick test_reach_work_heap_independent;
          Alcotest.test_case "per-op allocation is heap-size independent"
            `Quick test_allocation_heap_independent;
          Alcotest.test_case "gauge sampling is heap-size independent" `Quick
            test_gauge_sampling_heap_independent;
          Alcotest.test_case "post-quiescence rounds do constant work"
            `Quick test_quiescent_rounds_are_constant_work;
          Alcotest.test_case "memo stays exact after measurement" `Quick
            test_memo_exact_after_measurement;
          Alcotest.test_case "from-space reuse walks the store 3 times" `Quick
            test_reclaim_walks_fixed;
          Alcotest.test_case "receivers share a full's edge sets" `Quick
            test_receivers_share_edge_sets;
          Alcotest.test_case "claim probes skip the query's bunch" `Quick
            test_claim_probes_skip_own_bunch;
          Alcotest.test_case "an inter scion is held once" `Quick
            test_inter_scion_held_once;
          Alcotest.test_case "a dense full is priced gap-coded" `Quick
            test_dense_full_gap_coded;
          Alcotest.test_case "a kept edge set is sorted once, then flips in O(log n)"
            `Quick test_kept_set_words;
          Alcotest.test_case "a grant allocates what it ships" `Quick
            test_grant_words;
          Alcotest.test_case "message accounting allocates nothing" `Quick
            test_rpc_accounting_words;
          Alcotest.test_case "a local acquire allocates nothing with the log off"
            `Quick test_local_acquire_words;
          Alcotest.test_case "a write grant's work counters" `Quick
            test_grant_counters;
        ] );
    ]
