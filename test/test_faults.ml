(* Randomized fault-injection soak: seeded runs mixing message loss and
   duplication with node crash/restart cycles, over the full platform
   (DSM + collector + persistence).  After the faults stop and every
   node has recovered, each run must converge to a state that passes the
   cluster-wide safety audit, the token-discipline audit and the trace
   linter — with nothing stuck on the wire.

   §6.1 argues the GC protocol needs only per-pair FIFO, tolerating loss
   by retransmission (rebroadcast) and duplicates by the cleaner's
   freshness clocks; §8 adds crash recovery from the RVM image.  This
   harness shakes both claims at once.

   50 seeds by default; pass --long (or set BMX_SOAK_LONG) for more. *)

open Bmx_util
module Net = Bmx_netsim.Net
module Cluster = Bmx.Cluster
module Persist = Bmx.Persist
module Protocol = Bmx_dsm.Protocol
module Registry = Bmx_memory.Registry
module Value = Bmx_memory.Value
module Lint = Bmx_check.Lint
module Races = Bmx_check.Races
module E = Trace_event

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* BMX_CERTIFY=1 additionally runs the happens-before certifier
   (races, read mapping, GC erasure) over each soak's event trace.
   Opt-in: the certifier replays the whole log per seed, which the
   quick CI loop does not want to pay for every soak. *)
let certify_soaks = Sys.getenv_opt "BMX_CERTIFY" <> None

let certify_trace ~seed c =
  let cert = Races.check_log (Cluster.evlog c) in
  if not (Races.ok cert) then
    Alcotest.failf "seed %d: certifier: %s" seed
      (String.concat "; "
         (List.map Races.finding_to_string cert.Races.findings))

let long_mode =
  Array.exists (fun a -> a = "--long") Sys.argv
  || Sys.getenv_opt "BMX_SOAK_LONG" <> None

let argv_without_long =
  Array.of_list (List.filter (fun a -> a <> "--long") (Array.to_list Sys.argv))

(* BMX_SOAK_SEEDS overrides the seed count outright (CI shards and
   bisection runs); --long/BMX_SOAK_LONG picks the bigger default. *)
let soak_seeds =
  match Sys.getenv_opt "BMX_SOAK_SEEDS" with
  | Some s -> int_of_string s
  | None -> if long_mode then 200 else 50

let ops_per_seed = if long_mode then 250 else 120

(* ------------------------------------------------------------- harness *)

type soak = {
  c : Cluster.t;
  rng : Rng.t;
  mutable objs : (Addr.t * int) list;  (** (address, bunch) *)
  disks : (int * int, Persist.disk) Hashtbl.t;  (** (node, bunch) -> disk *)
  shard_disks : Persist.shard_disk array;  (** per-shard carve journals *)
  mutable skipped : int;  (** ops refused because a needed peer was down *)
}

let live s = Cluster.live_nodes s.c
let pick s xs = List.nth xs (Rng.int s.rng (List.length xs))
let registry s = Protocol.registry (Cluster.proto s.c)

let shard_ids s = List.init (Registry.num_shards (registry s)) Fun.id
let up_shards s = List.filter (Registry.shard_up (registry s)) (shard_ids s)

let down_shards s =
  List.filter (fun sh -> not (Registry.shard_up (registry s) sh)) (shard_ids s)

let owner_alive s addr =
  match Bmx_dsm.Protocol.uid_of_addr (Cluster.proto s.c) addr with
  | None -> false
  | Some uid -> (
      match Cluster.owner_of s.c ~uid with
      | Some o -> Cluster.node_alive s.c o
      | None -> false)

(* Client operations can legitimately fail while a peer is unreachable
   (a broken probable-owner chain, a vanished copy): the platform's
   contract under partial failure is "fail the operation, never corrupt
   memory" — so the soak counts those refusals and the end-of-run audit
   is what actually decides. *)
let attempt s f = try f () with Failure _ -> s.skipped <- s.skipped + 1

(* The audit's view of what crashed nodes will bring back from their
   stable stores: one entry per uid found on a down node's disks,
   marked authoritative when that node checkpointed it as owner. *)
let stable_view s =
  let tbl = Ids.Uid_tbl.create 64 in
  let proto = Cluster.proto s.c in
  List.iter
    (fun node ->
      Hashtbl.iter
        (fun (n, _) disk ->
          if n = node then
            Bmx_rvm.Rvm.fold disk ~init:()
              ~f:(fun _ (_, (im : Bmx_memory.Heap_obj.image), _, owned) () ->
                let uid = im.Bmx_memory.Heap_obj.im_uid in
                let cell =
                  {
                    Bmx.Audit.sc_owned = owned;
                    sc_targets =
                      List.filter_map
                        (Bmx_dsm.Protocol.uid_of_addr proto)
                        (Bmx_memory.Heap_obj.image_pointers im);
                  }
                in
                (* An owned image outranks a stale-replica image of the
                   same object checkpointed by some other down node. *)
                match Ids.Uid_tbl.find_opt tbl uid with
                | Some prev when prev.Bmx.Audit.sc_owned && not owned -> ()
                | _ -> Ids.Uid_tbl.replace tbl uid cell))
        s.disks)
    (Net.down_nodes (Cluster.net s.c));
  tbl

(* The soak's remembered addresses model mutator-held references, and a
   real mutator can only name an object it can still navigate to from
   some root — holding a raw pointer outside the heap would have needed
   a root, which would have kept the object alive.  So every operation
   target is filtered through current reachability: picking a merely
   remembered address could resurrect garbage (or a stale pointer inside
   it) that the collector was right to reclaim. *)
let reachable_handles s =
  let reach = Bmx.Audit.union_reachable ~stable:(stable_view s) s.c in
  List.filter
    (fun (a, _) ->
      match Bmx_dsm.Protocol.uid_of_addr (Cluster.proto s.c) a with
      | Some uid ->
          Ids.Uid_set.mem uid reach
          && Bmx_dsm.Protocol.replica_nodes (Cluster.proto s.c) uid <> []
      | None -> false)
    s.objs

let pick_handle s =
  match reachable_handles s with [] -> None | hs -> Some (fst (pick s hs))

let checkpoint_node s node =
  List.iter
    (fun bunch ->
      let disk =
        match Hashtbl.find_opt s.disks (node, bunch) with
        | Some d -> d
        | None ->
            let d = Persist.create_disk () in
            Hashtbl.add s.disks (node, bunch) d;
            d
      in
      ignore (Persist.checkpoint ~gc_roots:true s.c ~node ~bunch disk))
    (Protocol.bunches (Cluster.proto s.c))

let recover_one s node =
  Cluster.restart_node s.c ~node;
  ignore
    (Persist.recover_node s.c ~node
       (List.filter_map
          (fun bunch -> Hashtbl.find_opt s.disks (node, bunch))
          (Protocol.bunches (Cluster.proto s.c))))

let setup seed =
  let rng = Rng.make (seed * 7919) in
  let nodes = 3 + Rng.int rng 2 in
  let shards = 1 + Rng.int rng 3 in
  let c = Cluster.create ~nodes ~shards ~seed ~trace_events:true () in
  let s =
    {
      c;
      rng;
      objs = [];
      disks = Hashtbl.create 16;
      (* Attach before any bunch exists: the journals snapshot nothing
         and then record every carve the run makes. *)
      shard_disks = Persist.attach_shard_journals c;
      skipped = 0;
    }
  in
  let n_bunches = 2 + Rng.int rng 2 in
  let bunches =
    List.init n_bunches (fun i -> Cluster.new_bunch c ~home:(i mod nodes))
  in
  List.iter
    (fun b ->
      let home = Protocol.bunch_home (Cluster.proto c) b in
      for _ = 1 to 5 do
        let a = Cluster.alloc c ~node:home ~bunch:b [| Value.Data 0; Value.nil |] in
        Cluster.add_root c ~node:home a;
        s.objs <- (a, b) :: s.objs
      done)
    bunches;
  (* Seed some cross-bunch references so SSP traffic exists from the
     start. *)
  for _ = 1 to 2 * n_bunches do
    let src, _ = pick s s.objs and tgt, _ = pick s s.objs in
    let home = pick s (live s) in
    attempt s (fun () ->
        let a = Cluster.acquire_write c ~node:home src in
        Cluster.write c ~node:home a 1 (Value.Ref tgt);
        Cluster.release c ~node:home a)
  done;
  ignore (Cluster.drain c);
  (* Fault the background GC/protocol traffic. *)
  let rate () = 0.05 +. (float_of_int (Rng.int rng 30) /. 100.) in
  List.iteri
    (fun i kind ->
      Net.set_fault (Cluster.net c) ~kind ~drop:(rate ()) ~dup:(rate ())
        ~rng:(Rng.make (seed + (31 * i))))
    [ Net.Stub_table; Net.Scion_message; Net.Addr_update ];
  s

let only_seed = Option.map int_of_string (Sys.getenv_opt "BMX_SOAK_ONLY")
let watch_uid = Option.map int_of_string (Sys.getenv_opt "BMX_SOAK_WATCH")
let dbg_ops = Sys.getenv_opt "BMX_SOAK_DEBUG" <> None

let dbg fmt =
  if dbg_ops then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr (fmt ^^ "\n%!")

let watch s op =
  match watch_uid with
  | None -> ()
  | Some uid ->
      let proto = Cluster.proto s.c in
      let cached = Bmx_dsm.Protocol.replica_nodes proto uid in
      let reach = Ids.Uid_set.mem uid (Bmx.Audit.union_reachable s.c) in
      Printf.eprintf "W op=%d u%d cached=[%s] owner=%s reach=%b\n%!" op uid
        (String.concat "," (List.map string_of_int cached))
        (match Cluster.owner_of s.c ~uid with
        | Some o -> string_of_int o
        | None -> "-")
        reach;
      let gc = Cluster.gc s.c in
      List.iter
        (fun n ->
          let dir = Bmx_dsm.Protocol.directory proto n in
          let ent =
            Ids.Node_set.elements (Bmx_dsm.Directory.entering dir uid)
          in
          let prot =
            List.concat_map
              (fun b ->
                List.filter_map
                  (fun (sc : Bmx_gc.Ssp.inter_scion) ->
                    if sc.Bmx_gc.Ssp.xs_target_uid = uid then
                      Some (Printf.sprintf "x%d" sc.Bmx_gc.Ssp.xs_src_node)
                    else None)
                  (Bmx_gc.Gc_state.inter_scions gc ~node:n ~bunch:b)
                @ List.filter_map
                    (fun (sc : Bmx_gc.Ssp.intra_scion) ->
                      if sc.Bmx_gc.Ssp.xn_uid = uid then
                        Some (Printf.sprintf "n%d" sc.Bmx_gc.Ssp.xn_owner_side)
                      else None)
                    (Bmx_gc.Gc_state.intra_scions gc ~node:n ~bunch:b))
              (Bmx_dsm.Protocol.bunches proto)
          in
          let exi =
            List.concat_map
              (fun b ->
                List.filter_map
                  (fun (u, tgt) ->
                    if u = uid then Some (Printf.sprintf "->%d" tgt) else None)
                  (Bmx_gc.Gc_state.current_exiting gc ~node:n ~bunch:b))
              (Bmx_dsm.Protocol.bunches proto)
          in
          if ent <> [] || prot <> [] || exi <> [] then
            Printf.eprintf "W   n%d ent=[%s] scion=[%s] exi=[%s]\n%!" n
              (String.concat "," (List.map string_of_int ent))
              (String.concat "," prot) (String.concat "," exi))
        (Bmx_dsm.Protocol.nodes proto)

let uid_str s a =
  match Bmx_dsm.Protocol.uid_of_addr (Cluster.proto s.c) a with
  | Some u -> "u" ^ string_of_int u
  | None -> Addr.to_string a

let step op s =
  let c = s.c in
  match Rng.int s.rng 124 with
  | r when r < 18 -> (
      (* Read access (weak: tolerates inconsistent copies). *)
      match pick_handle s with
      | None -> ()
      | Some a ->
          let node = pick s (live s) in
          dbg "OP %d weak-read %s @%d" op (uid_str s a) node;
          attempt s (fun () ->
              if owner_alive s a then
                ignore (Cluster.read c ~weak:true ~node a 0)))
  | r when r < 40 -> (
      (* Update: take the write token, store a fresh value or a pointer. *)
      match pick_handle s with
      | None -> ()
      | Some a ->
          let node = pick s (live s) in
          attempt s (fun () ->
              if owner_alive s a then begin
                let a' = Cluster.acquire_write c ~node a in
                (match
                   if Rng.int s.rng 100 < 50 then pick_handle s else None
                 with
                | Some tgt ->
                    dbg "OP %d write %s <- Ref %s @%d" op (uid_str s a)
                      (uid_str s tgt) node;
                    Cluster.write c ~node a' 1 (Value.Ref tgt)
                | None ->
                    dbg "OP %d write %s <- Data @%d" op (uid_str s a) node;
                    Cluster.write c ~node a' 0
                      (Value.Data (Rng.int s.rng 1000)));
                Cluster.release c ~node a'
              end))
  | r when r < 50 -> (
      (* Read token from wherever. *)
      match pick_handle s with
      | None -> ()
      | Some a ->
          let node = pick s (live s) in
          dbg "OP %d read %s @%d" op (uid_str s a) node;
          attempt s (fun () ->
              if owner_alive s a then begin
                let a' = Cluster.acquire_read c ~node a in
                ignore (Cluster.read c ~node a' 0);
                Cluster.release c ~node a'
              end))
  | r when r < 56 ->
      (* Fresh allocation at a live bunch home, sometimes rooted. *)
      let bunches =
        List.filter
          (fun b -> Cluster.node_alive c (Protocol.bunch_home (Cluster.proto c) b))
          (Protocol.bunches (Cluster.proto c))
      in
      if bunches <> [] then begin
        let b = pick s bunches in
        let home = Protocol.bunch_home (Cluster.proto c) b in
        (* A full segment forces a carve, which the bunch's registry
           shard refuses while crashed — degrade, don't corrupt. *)
        attempt s (fun () ->
            let a =
              Cluster.alloc c ~node:home ~bunch:b [| Value.Data 1; Value.nil |]
            in
            dbg "OP %d alloc %s b%d @%d" op (uid_str s a) b home;
            if Rng.int s.rng 100 < 70 then begin
              Cluster.add_root c ~node:home a;
              s.objs <- (a, b) :: s.objs
            end)
      end
  | r when r < 62 -> (
      (* Root churn: drop a root anywhere, or root a still-reachable
         object at a node that caches it. *)
      let node = pick s (live s) in
      if Rng.int s.rng 100 < 30 then begin
        let a, _ = pick s s.objs in
        dbg "OP %d unroot %s @%d" op (uid_str s a) node;
        Cluster.remove_root c ~node a
      end
      else
        match pick_handle s with
        | Some a
          when Bmx_memory.Store.resolve (Protocol.store (Cluster.proto c) node) a
               <> None ->
            dbg "OP %d root %s @%d" op (uid_str s a) node;
            Cluster.add_root c ~node a
        | Some _ | None -> ())
  | r when r < 72 ->
      (* Collection pressure: a full round, skipping dead nodes.  The
         collector carves to-space segments, so it holds off while any
         registry shard is down — a BGC dying mid-copy on a refused
         carve would be a worse failure mode than a postponed wave. *)
      if down_shards s = [] then begin
        dbg "OP %d gc_round" op;
        ignore (Cluster.gc_round c)
      end
      else s.skipped <- s.skipped + 1
  | r when r < 82 ->
      (* Let time pass: timers fire, retransmissions roll the dice. *)
      dbg "OP %d tick+drain" op;
      ignore (Cluster.tick ~dt:(1 + Rng.int s.rng 4) c);
      ignore (Cluster.drain c)
  | r when r < 88 ->
      (* Partial drain only — leaves interleavings for later. *)
      dbg "OP %d drain" op;
      ignore (Cluster.drain c)
  | r when r < 94 ->
      (* Crash a node (keep a majority up): checkpoint first — the
         stand-in for RVM's continuous logging — then fail-stop. *)
      let ls = live s in
      if List.length ls > 2 then begin
        let victim = pick s ls in
        dbg "OP %d crash %d" op victim;
        checkpoint_node s victim;
        Cluster.crash_node c ~node:victim
      end
  | r when r < 100 -> (
      (* Restart + recover a down node, if any.  Recovery may run inside
         a partition: adoption of cut-off objects is deferred and remote
         registrations ride the reliable channel until heal. *)
      match Net.down_nodes (Cluster.net c) with
      | [] -> ()
      | down ->
          let victim = pick s down in
          dbg "OP %d recover %d" op victim;
          recover_one s victim)
  | r when r < 106 ->
      (* Partition: sometimes a clean two-group split, sometimes a single
         directed cut (asymmetric — payloads one way, acks the other
         die). *)
      let ns = Cluster.nodes c in
      if Rng.int s.rng 100 < 50 then begin
        let a = pick s ns in
        dbg "OP %d partition {%d} | rest" op a;
        Cluster.partition c ~groups:[ [ a ]; List.filter (fun n -> n <> a) ns ]
      end
      else begin
        let a = pick s ns in
        let b = pick s (List.filter (fun n -> n <> a) ns) in
        dbg "OP %d cut %d->%d" op a b;
        Cluster.cut_link c ~src:a ~dst:b
      end
  | r when r < 112 -> (
      (* Heal: everything at once, or one random severed link. *)
      match Net.cut_pairs (Cluster.net c) with
      | [] -> ()
      | pairs ->
          if Rng.int s.rng 100 < 60 then begin
            dbg "OP %d heal all" op;
            Cluster.heal_all_links c
          end
          else begin
            let src, dst = pick s pairs in
            dbg "OP %d heal %d->%d" op src dst;
            Cluster.heal_link c ~src ~dst
          end)
  | r when r < 118 -> (
      (* Registry-service fault: fail-stop a shard.  Lookups keep
         answering out of the immutable-entry read cache; only carves
         at that shard refuse until recovery. *)
      match up_shards s with
      | [] -> ()
      | ups ->
          let sh = pick s ups in
          dbg "OP %d crash-shard %d" op sh;
          Cluster.crash_shard c ~shard:sh)
  | _ -> (
      (* Shard recovery: replay the carve journal at a live node, which
         adopts ownership.  Under a partition the split-brain guard may
         refuse the adoption — counted as a skip, retried later. *)
      match down_shards s with
      | [] -> ()
      | downs ->
          let sh = pick s downs in
          let node = pick s (live s) in
          dbg "OP %d recover-shard %d @%d" op sh node;
          attempt s (fun () ->
              ignore (Persist.recover_shard c ~shard:sh ~node s.shard_disks.(sh))))

(* With BMX_SOAK_PARANOID the safety audit runs after every op, so a
   violation is pinned to the op that caused it instead of surfacing at
   the end of the run — slow, but invaluable when a seed fails. *)
let paranoid = Sys.getenv_opt "BMX_SOAK_PARANOID" <> None

let debug_dump s =
  if Sys.getenv_opt "BMX_SOAK_DEBUG" <> None then begin
    List.iter
      (fun e -> Printf.eprintf "EV %s\n" (Trace_event.to_line e))
      (Trace_event.events (Cluster.evlog s.c));
    let proto = Cluster.proto s.c in
    List.iter
      (fun node ->
        let store = Protocol.store proto node in
        Printf.eprintf "NODE %d roots=[%s]\n" node
          (String.concat ","
             (List.map Addr.to_string (Cluster.roots s.c ~node)));
        Bmx_dsm.Directory.iter
          (Protocol.directory proto node)
          (fun r ->
            Printf.eprintf "  dir u%d %s%s prob=%d\n" r.Bmx_dsm.Directory.uid
              (Bmx_dsm.Directory.token_state_to_string
                 r.Bmx_dsm.Directory.state)
              (if r.Bmx_dsm.Directory.is_owner then " OWNER" else "")
              r.Bmx_dsm.Directory.prob_owner);
        List.iter
          (fun b ->
            List.iter
              (fun (a, (o : Bmx_memory.Heap_obj.t)) ->
                Printf.eprintf "  cell %s u%d b%d -> [%s]\n"
                  (Addr.to_string a) o.Bmx_memory.Heap_obj.uid
                  o.Bmx_memory.Heap_obj.bunch
                  (String.concat ","
                     (List.map
                        (fun p ->
                          match Protocol.uid_of_addr proto p with
                          | Some u -> "u" ^ string_of_int u
                          | None -> "?" ^ Addr.to_string p)
                        (Bmx_memory.Heap_obj.pointers o))))
              (Bmx_memory.Store.objects_of_bunch store b))
          (Protocol.bunches proto))
      (Protocol.nodes proto);
    flush stderr
  end

(* A node's own scions.  Its barrier creates an inter scion from itself
   only in the call that makes the stub for the same edge, a stub leaves
   its table only in a collection whose broadcast then sweeps the node's
   own scions, and a crash wipes both; so each of them is covered by the
   node's own kept set for the scion's source bunch.  It never holds an
   intra scion from itself: a write transfer takes the requester out of
   the holders.  Two broken sweeps fail this: one that never sweeps the
   node's own scions at seed 5, op 45 of the default soak and seed 2, op
   235 of the long one, and one that sweeps them only on first contact
   and full rounds at the end of seed 25 of the default soak and at
   seed 9, op 197 of the long one. *)
let check_own_scions s ~seed ~at =
  let gc = Cluster.gc s.c in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        debug_dump s;
        Alcotest.failf "seed %d: %s: %s" seed at m)
      fmt
  in
  List.iter
    (fun node ->
      List.iter
        (fun bunch ->
          Bmx_gc.Gc_state.iter_inter_scions gc ~node ~bunch
            (fun (sc : Bmx_gc.Ssp.inter_scion) ->
              let src_bunch = sc.Bmx_gc.Ssp.xs_src_bunch in
              if
                sc.Bmx_gc.Ssp.xs_src_node = node
                && not
                     (Bmx_gc.Gc_state.Inter_edges.mem
                        (Bmx_gc.Ssp.inter_scion_edge sc)
                        (Bmx_gc.Gc_state.inter_stub_keys gc ~node
                           ~bunch:src_bunch))
              then
                fail "N%d holds a scion from itself for u%d -> u%d that its \
                      b%d table does not cover"
                  node sc.Bmx_gc.Ssp.xs_src_uid sc.Bmx_gc.Ssp.xs_target_uid
                  src_bunch);
          Bmx_gc.Gc_state.iter_intra_scions gc ~node ~bunch
            (fun (sc : Bmx_gc.Ssp.intra_scion) ->
              if sc.Bmx_gc.Ssp.xn_owner_side = node then
                fail "N%d holds an intra scion from itself for u%d" node
                  sc.Bmx_gc.Ssp.xn_uid))
        (Protocol.bunches (Cluster.proto s.c)))
    (live s)

let soak_one seed =
  let s = setup seed in
  for op = 1 to ops_per_seed do
    step op s;
    watch s op;
    check_own_scions s ~seed ~at:(Printf.sprintf "op %d" op);
    if paranoid then begin
      (* An object whose only copies were at a crashed node is not lost —
         it is on that node's stable store, awaiting recovery — and the
         reachability trace reads crashed owners through that store too. *)
      let lost = Bmx.Audit.lost_objects ~stable:(stable_view s) s.c in
      if not (Ids.Uid_set.is_empty lost) then begin
        debug_dump s;
        Alcotest.failf "seed %d: op %d lost %s" seed op
          (String.concat ","
             (List.map Ids.Uid.to_string (Ids.Uid_set.elements lost)))
      end
    end
  done;
  (* The faults stop; partitions heal; every node comes back; the
     cluster settles.  Heal first so recovery can register with (and
     adopt past) peers that were merely cut off. *)
  Net.clear_faults (Cluster.net s.c);
  Cluster.heal_all_links s.c;
  List.iter (fun n -> recover_one s n) (Net.down_nodes (Cluster.net s.c));
  (* Registry shards come back too (everything is healed, so adoption
     cannot hit the split-brain guard) — the quiescing collector below
     needs every shard serving carves. *)
  List.iter
    (fun sh ->
      let node = pick s (live s) in
      ignore (Persist.recover_shard s.c ~shard:sh ~node s.shard_disks.(sh)))
    (down_shards s);
  ignore (Cluster.settle s.c);
  ignore (Cluster.collect_until_quiescent s.c ());
  ignore (Cluster.settle s.c);
  check_own_scions s ~seed ~at:"after the settle";
  let name fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
  (match Bmx.Audit.check_safety s.c with
  | Ok () -> ()
  | Error m ->
      debug_dump s;
      Alcotest.failf "seed %d: safety audit: %s" seed m);
  (match Bmx.Audit.check_tokens s.c with
  | Ok () -> ()
  | Error m ->
      debug_dump s;
      Alcotest.failf "seed %d: token audit: %s" seed m);
  (match Lint.check_all (Cluster.proto s.c) with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "seed %d: linter: %s" seed (Lint.violation_to_string v));
  if certify_soaks then certify_trace ~seed s.c;
  (* Per-shard fsck honesty: every carve the journals witnessed must be
     present in the registry index — a shard crash/recovery cycle that
     silently dropped a range would surface here as a hole. *)
  Array.iteri
    (fun sh disk ->
      let fsck = Persist.verify_shard s.c ~shard:sh disk in
      check_int
        (Printf.sprintf "seed %d: shard %d fsck holes" seed sh)
        0
        (List.length fsck.Persist.s_missing))
    s.shard_disks;
  check_int (name "wire empty") 0 (Net.pending (Cluster.net s.c));
  check_int (name "no unacked reliable messages") 0
    (Net.unacked_count (Cluster.net s.c));
  Stats.get (Cluster.stats s.c) "gc.objects_copied"

(* The soak collects only economically ([gc_round] and
   [collect_until_quiescent]), and an economical BGC evacuates only
   where its bunch has gone sparse.  The seeds must still evacuate
   something between them, or faults would no longer meet evacuation
   (forwarders, location updates, from-space) anywhere in the soak. *)
let test_soak () =
  match only_seed with
  | Some seed -> ignore (soak_one seed)
  | None ->
      let copied = ref 0 in
      for seed = 1 to soak_seeds do
        copied := !copied + soak_one seed
      done;
      if !copied = 0 then
        Alcotest.failf "%d soak seeds evacuated no object (gc.objects_copied)"
          soak_seeds

(* --------------------------------------- the linter catches bad traces *)

(* Negative tests: hand-built traces modelling BROKEN recovery paths
   must be flagged by the new rules — shaking the checker, not the
   platform. *)

let has rule vs = List.exists (fun v -> v.Lint.rule = rule) vs

let test_lint_catches_dead_node_grant () =
  (* A write grant minted by a node that is down: a token resurrected
     from lost volatile state. *)
  let vs =
    Lint.run
      [
        E.Crash { node = 1 };
        E.Hook_ssp { granter = 1; requester = 2; uid = 7 };
        E.Grant_sent
          { granter = 1; requester = 2; uid = 7; tok = E.Write; updates = 0 };
      ]
  in
  check_bool "dead granter flagged" true (has Lint.Dead_node_activity vs);
  (* The same trace with a restart in between is legitimate. *)
  let vs =
    Lint.run
      [
        E.Crash { node = 1 };
        E.Restart { node = 1 };
        E.Hook_ssp { granter = 1; requester = 2; uid = 7 };
        E.Grant_sent
          { granter = 1; requester = 2; uid = 7; tok = E.Write; updates = 0 };
      ]
  in
  check_bool "clean after restart" false (has Lint.Dead_node_activity vs)

let test_lint_catches_dead_node_gc_and_sends () =
  let vs =
    Lint.run
      [
        E.Crash { node = 0 };
        E.Gc_begin { node = 0; group = false; bunches = [ 1 ] };
        E.Gc_end { node = 0; group = false; live = 1; reclaimed = 0 };
      ]
  in
  check_bool "collection at a dead node flagged" true
    (has Lint.Dead_node_activity vs);
  let vs =
    Lint.run
      [
        E.Crash { node = 0 };
        E.Msg_sent { src = 0; dst = 1; kind = "stub_table"; seq = 3; rel = false };
      ]
  in
  check_bool "send from a dead node flagged" true
    (has Lint.Dead_node_activity vs);
  (* Sending TO a dead node is legal — the message just evaporates. *)
  let vs =
    Lint.run
      [
        E.Crash { node = 1 };
        E.Msg_sent { src = 0; dst = 1; kind = "stub_table"; seq = 3; rel = false };
        E.Invalidate { src = 0; dst = 1; uid = 9 };
      ]
  in
  check_bool "send/invalidate to a dead node is clean" false
    (has Lint.Dead_node_activity vs)

let test_lint_catches_reliable_duplicate_handoff () =
  (* The reliable layer hands a message to the handler twice (duplicate
     suppression broken): delivered-seq repeats on a reliable stream. *)
  let del seq =
    E.Msg_delivered { src = 0; dst = 1; kind = "scion_message"; seq; rel = true }
  in
  let vs = Lint.run [ del 4; del 4 ] in
  check_bool "reliable duplicate handoff flagged" true (has Lint.Reliable_fifo vs);
  (* Reordered handoff too. *)
  let vs = Lint.run [ del 5; del 4 ] in
  check_bool "reliable reorder flagged" true (has Lint.Reliable_fifo vs);
  (* On an unreliable stream a repeat is a legal duplicate. *)
  let del_u seq =
    E.Msg_delivered { src = 0; dst = 1; kind = "stub_table"; seq; rel = false }
  in
  let vs = Lint.run [ del_u 4; del_u 4 ] in
  check_bool "unreliable duplicate is clean" false
    (has Lint.Fifo_order vs || has Lint.Reliable_fifo vs)

let test_broken_recovery_is_caught_end_to_end () =
  (* Deliberately break the recovery path of a real run — restore a
     crashed node's state but "forget" the Restart event, as a buggy
     recovery that resumes work on a node the rest of the cluster still
     believes dead — and check the linter refuses the trace. *)
  let c = Cluster.create ~nodes:2 ~trace_events:true () in
  let b = Cluster.new_bunch c ~home:0 in
  let a = Cluster.alloc c ~node:0 ~bunch:b [| Value.Data 1 |] in
  Cluster.add_root c ~node:0 a;
  let d = Persist.create_disk () in
  ignore (Persist.checkpoint ~gc_roots:true c ~node:0 ~bunch:b d);
  Cluster.crash_node c ~node:0;
  (* Broken recovery: bring the net back up WITHOUT the Restart event,
     then collect at the "dead" node. *)
  Net.set_up (Cluster.net c) 0;
  ignore (Persist.recover_node c ~node:0 [ d ]);
  ignore (Cluster.bgc c ~node:0 ~bunch:b);
  let vs = Lint.check_all (Cluster.proto c) in
  check_bool "zombie-node activity flagged" true (has Lint.Dead_node_activity vs)

let () =
  Alcotest.run ~argv:argv_without_long "faults"
    [
      ( "soak",
        [
          Alcotest.test_case
            (Printf.sprintf "%d seeded fault soaks (%d ops each)" soak_seeds
               ops_per_seed)
            `Slow test_soak;
        ] );
      ( "lint-negative",
        [
          Alcotest.test_case "dead-node grant caught" `Quick
            test_lint_catches_dead_node_grant;
          Alcotest.test_case "dead-node GC and sends caught" `Quick
            test_lint_catches_dead_node_gc_and_sends;
          Alcotest.test_case "reliable duplicate handoff caught" `Quick
            test_lint_catches_reliable_duplicate_handoff;
          Alcotest.test_case "broken recovery caught end-to-end" `Quick
            test_broken_recovery_is_caught_end_to_end;
        ] );
    ]
