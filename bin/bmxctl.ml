(* bmxctl — command-line driver for the BMX platform simulator.

   Subcommands:
     bmxctl scenario <fig1|fig2|fig3|fig4>   narrate a figure from the paper
     bmxctl workload [options]               run a mixed workload, summarize
     bmxctl stats [options]                  workload + full counter dump
     bmxctl oo7 [options]                    OO7-style design-database run
     bmxctl check [--trace FILE] [options]   lint a trace for invariant violations
     bmxctl explore [--depth N] SCENARIO     explore delivery schedules
     bmxctl report [options]                 metrics + latency report, Perfetto export *)

open Cmdliner
open Bmx_util
module Cluster = Bmx.Cluster
module Driver = Bmx_workload.Driver
module Scenario = Bmx_workload.Scenario

(* ------------------------------------------------------------- scenario *)

let run_scenario name =
  match name with
  | "fig1" ->
      let f = Scenario.figure1 () in
      let c = f.Scenario.f1_cluster in
      Printf.printf
        "Figure 1 built: B%d on {N%d,N%d}, B%d on {N%d}; o3->o5 stub at N%d, \
         scion at N%d; intra SSP stub@N%d -> scion@N%d.\n"
        f.f1_b1 f.f1_n1 f.f1_n2 f.f1_b2 f.f1_n3 f.f1_n2 f.f1_n3 f.f1_n1 f.f1_n2;
      Printf.printf "safety: %s\n"
        (match Bmx.Audit.check_safety c with Ok () -> "ok" | Error m -> m);
      `Ok ()
  | "fig4" ->
      let f = Scenario.figure4 () in
      let c = f.Scenario.f4_cluster in
      Printf.printf "Figure 4 built: o1 on N1,N2,N3; owner N%d; root at N%d.\n"
        f.f4_n2 f.f4_n1;
      Cluster.remove_root c ~node:f.f4_n1 f.f4_o1;
      let reclaimed = Cluster.collect_until_quiescent c () in
      Printf.printf "root dropped; %d objects reclaimed across the cluster; %d copies left.\n"
        reclaimed (Bmx.Audit.total_cached_copies c);
      `Ok ()
  | "fig2" ->
      let f = Scenario.figure1 () in
      let c = f.Scenario.f1_cluster in
      let r = Cluster.bgc c ~node:f.f1_n2 ~bunch:f.f1_b1 in
      Printf.printf
        "Figure 2: BGC of B%d at N%d copied %d object(s) (only the locally \
         owned o2), scanned %d in place, acquired %d tokens.\n"
        f.f1_b1 f.f1_n2 r.Bmx_gc.Collect.r_copied
        r.Bmx_gc.Collect.r_scanned_in_place
        (Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
        + Stats.get (Cluster.stats c) "dsm.gc.acquire_write");
      `Ok ()
  | "fig3" ->
      List.iter
        (fun (name, case) ->
          let f = Scenario.figure3 ~case in
          let c = f.Scenario.f3_cluster in
          let o1 = Cluster.acquire_write c ~node:f.f3_n2 f.Scenario.f3_o1 in
          Cluster.release c ~node:f.f3_n2 o1;
          Printf.printf
            "case %s: write acquire of o1 by N%d ok; N%d now owner: %b\n" name
            f.f3_n2 f.f3_n2
            (Bmx_dsm.Protocol.owner_of (Cluster.proto c) f.Scenario.f3_o1_uid
            = Some f.f3_n2))
        [
          ("(a)", Scenario.Case_a);
          ("(b)", Scenario.Case_b);
          ("(c)", Scenario.Case_c);
          ("(d)", Scenario.Case_d);
        ];
      `Ok ()
  | other ->
      `Error (false, Printf.sprintf "unknown scenario %S (try fig1, fig2, fig3, fig4)" other)

let scenario_cmd =
  let scenario_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Build and narrate one of the paper's figures")
    Term.(ret (const run_scenario $ scenario_arg))

(* ------------------------------------------------------------- workload *)

let mode_conv =
  let parse = function
    | "distributed" -> Ok Bmx_dsm.Protocol.Distributed
    | "centralized" -> Ok Bmx_dsm.Protocol.Centralized
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf = function
    | Bmx_dsm.Protocol.Distributed -> Format.pp_print_string ppf "distributed"
    | Bmx_dsm.Protocol.Centralized -> Format.pp_print_string ppf "centralized"
  in
  Arg.conv (parse, print)

let kind_of_string = function
  | "token_request" -> Some Bmx_netsim.Net.Token_request
  | "token_grant" -> Some Bmx_netsim.Net.Token_grant
  | "invalidate" -> Some Bmx_netsim.Net.Invalidate
  | "object_fetch" -> Some Bmx_netsim.Net.Object_fetch
  | "scion_message" -> Some Bmx_netsim.Net.Scion_message
  | "stub_table" -> Some Bmx_netsim.Net.Stub_table
  | "addr_update" -> Some Bmx_netsim.Net.Addr_update
  | "reclaim_request" -> Some Bmx_netsim.Net.Reclaim_request
  | "reclaim_reply" -> Some Bmx_netsim.Net.Reclaim_reply
  | "refcount_op" -> Some Bmx_netsim.Net.Refcount_op
  | "app_message" -> Some Bmx_netsim.Net.App_message
  | _ -> None

let parse_fault_kinds fault_kinds =
  List.filter_map
    (fun s ->
      let s = String.trim s in
      if s = "" then None
      else
        match kind_of_string s with
        | Some k -> Some k
        | None -> failwith (Printf.sprintf "unknown message kind %S" s))
    (String.split_on_char ',' fault_kinds)

let sanitize_reason s =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c | _ -> '-')
    s

let write_flight_dumps dir f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i (d : Bmx_obs.Flight.dump) ->
      let file =
        Filename.concat dir
          (Printf.sprintf "flight-%02d-%s.trace" i (sanitize_reason d.reason))
      in
      let oc = open_out file in
      output_string oc d.Bmx_obs.Flight.text;
      close_out oc;
      Printf.printf "flight: %s -> %s\n" d.Bmx_obs.Flight.reason file)
    (Bmx_obs.Flight.dumps f)

(* The workload every running command drives: its six flags are declared
   once, here. *)
type shape = {
  nodes : int;
  bunches : int;
  objects : int;
  ops : int;
  seed : int;
  mode : Bmx_dsm.Protocol.mode;
}

let shape_term =
  let nodes = Arg.(value & opt int 4 & info [ "nodes"; "n" ] ~doc:"Cluster size") in
  let bunches = Arg.(value & opt int 4 & info [ "bunches"; "b" ] ~doc:"Bunch count") in
  let objects =
    Arg.(value & opt int 64 & info [ "objects" ] ~doc:"Objects per bunch")
  in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"Mutator operations") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Deterministic seed") in
  let mode =
    Arg.(
      value
      & opt mode_conv Bmx_dsm.Protocol.Distributed
      & info [ "mode" ] ~doc:"Copy-set mode: distributed or centralized")
  in
  Term.(
    const (fun nodes bunches objects ops seed mode ->
        { nodes; bunches; objects; ops; seed; mode })
    $ nodes $ bunches $ objects $ ops $ seed $ mode)

let setup s =
  Driver.setup
    {
      Driver.default with
      nodes = s.nodes;
      bunches = s.bunches;
      objects_per_bunch = s.objects;
      ops = s.ops;
      seed = s.seed;
      mode = s.mode;
    }

(* [setup] with the typed event trace on from the first operation. *)
let traced_setup s =
  let d = setup s in
  let c = Driver.cluster d in
  Cluster.set_event_trace c true;
  (d, c)

(* The traced workload of [check] and [certify], run to quiescence. *)
let traced_run s verb =
  let d, c = traced_setup s in
  Driver.run_ops d ();
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.drain c);
  Printf.printf
    "workload: %d nodes, %d bunches, %d ops (seed %d); %s %d event(s)\n"
    s.nodes s.bunches s.ops s.seed verb
    (Bmx_util.Trace_event.length (Cluster.evlog c));
  c

let ggc_term = Arg.(value & flag & info [ "ggc" ] ~doc:"Run a GGC at every node")

let drop_term =
  Arg.(
    value & opt float 0.
    & info [ "drop" ]
        ~doc:"Drop probability for the faulted message kinds (0.0-1.0)")

let dup_term =
  Arg.(
    value & opt float 0.
    & info [ "dup" ] ~doc:"Duplication probability for the faulted message kinds")

let set_faults net ~seed ~drop ~dup kinds =
  List.iteri
    (fun i k ->
      Bmx_netsim.Net.set_fault net ~kind:k ~drop ~dup
        ~rng:(Rng.make (seed + 101 + i)))
    kinds

let run_workload ({ nodes; bunches; objects; ops; seed; _ } as s) collect ggc
    dump trace emit_trace flight_dir drop dup fault_kinds crashes partitions
    corrupt_disk =
  (* Disk corruption is only observable through a crash/recover cycle. *)
  let crashes = if corrupt_disk && crashes = 0 then 1 else crashes in
  let d = setup s in
  let c = Driver.cluster d in
  let net = Cluster.net c in
  if trace || emit_trace <> None || flight_dir <> None || partitions > 0
     || corrupt_disk
  then Cluster.set_event_trace c true;
  let flight =
    match flight_dir with
    | None -> None
    | Some _ -> Some (Cluster.enable_flight c)
  in
  let kinds = parse_fault_kinds fault_kinds in
  if drop > 0. || dup > 0. then set_faults net ~seed ~drop ~dup kinds;
  (* With [crashes] or [partitions] > 0 the op stream is cut into chunks;
     between chunks either a victim node checkpoints its bunches
     (continuous RVM logging, approximated), crashes, restarts and
     recovers from the image, or one node is split off behind a network
     cut, runs part of the workload degraded, and the cut heals. *)
  let episodes = crashes + partitions in
  (* Every address an fsck pass reported missing: an injected disk fault
     may destroy the only copy of an object — honest loss — but anything
     the final audit counts lost must appear in this set. *)
  let fsck_named = ref Ids.Uid_set.empty in
  if episodes <= 0 then Driver.run_ops d ()
  else begin
    let ev_rng = Rng.make (seed + 77) in
    let chunk = max 1 (ops / (episodes + 1)) in
    let disks : (int * int, Bmx.Persist.disk) Hashtbl.t = Hashtbl.create 16 in
    let crashes_left = ref crashes and parts_left = ref partitions in
    let crash_cycle cycle =
      let victims = Cluster.live_nodes c in
      let victim = List.nth victims (Rng.int ev_rng (List.length victims)) in
      List.iter
        (fun bunch ->
          let disk =
            match Hashtbl.find_opt disks (victim, bunch) with
            | Some disk -> disk
            | None ->
                let disk = Bmx.Persist.create_disk () in
                Hashtbl.add disks (victim, bunch) disk;
                disk
          in
          ignore (Bmx.Persist.checkpoint ~gc_roots:true c ~node:victim ~bunch disk))
        (Bmx_dsm.Protocol.bunches (Cluster.proto c));
      if corrupt_disk then begin
        let bunches = Bmx_dsm.Protocol.bunches (Cluster.proto c) in
        let bunch = List.nth bunches (Rng.int ev_rng (List.length bunches)) in
        match Hashtbl.find_opt disks (victim, bunch) with
        | None -> ()
        | Some disk ->
            let len = Bmx_rvm.Rvm.log_length disk in
            if len > 0 then begin
              let fault =
                match Rng.int ev_rng 3 with
                | 0 -> Bmx.Persist.Flip_bits (Rng.int ev_rng len)
                | 1 -> Bmx.Persist.Drop_record (Rng.int ev_rng len)
                | _ -> Bmx.Persist.Truncate_mid_record
              in
              Bmx.Persist.corrupt_disk c ~node:victim disk fault;
              Printf.printf "disk fault injected at N%d (bunch %d)\n" victim
                bunch
            end
      end;
      Cluster.crash_node c ~node:victim;
      Cluster.restart_node c ~node:victim;
      let recovered =
        Bmx.Persist.recover_node c ~node:victim
          (List.filter_map
             (fun bunch -> Hashtbl.find_opt disks (victim, bunch))
             (Bmx_dsm.Protocol.bunches (Cluster.proto c)))
      in
      ignore (Cluster.settle c);
      Printf.printf "crash cycle %d: N%d crashed, %d objects recovered\n" cycle
        victim recovered;
      (* fsck the recovered images: anything the checkpoint promised but
         recovery could not deliver must be re-fetched from a surviving
         replica before the final audit counts it lost. *)
      if corrupt_disk then
        List.iter
          (fun bunch ->
            match Hashtbl.find_opt disks (victim, bunch) with
            | None -> ()
            | Some disk ->
                let fsck = Bmx.Persist.verify_bunch c ~node:victim ~bunch disk in
                List.iter
                  (fun (addr, uid) ->
                    (match uid with
                    | Some u -> fsck_named := Ids.Uid_set.add u !fsck_named
                    | None -> ());
                    try ignore (Cluster.demand_fetch c ~node:victim addr)
                    with Failure _ -> ())
                  fsck.Bmx.Persist.f_missing;
                if fsck.Bmx.Persist.f_missing <> [] then
                  Printf.printf
                    "fsck: N%d bunch %d — %d cell(s) lost to corruption, \
                     re-fetched from surviving replicas\n"
                    victim bunch
                    (List.length fsck.Bmx.Persist.f_missing))
          (Bmx_dsm.Protocol.bunches (Cluster.proto c))
    in
    let partition_cycle cycle =
      let live = Cluster.live_nodes c in
      let lone = List.nth live (Rng.int ev_rng (List.length live)) in
      let rest = List.filter (fun n -> n <> lone) live in
      Cluster.partition c ~groups:[ [ lone ]; rest ];
      let tokens_before =
        Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
        + Stats.get (Cluster.stats c) "dsm.gc.acquire_write"
      in
      (* Both sides keep computing and collecting: cross-partition token
         operations are refused (and swallowed by the driver), the GC
         needs no tokens at all. *)
      Driver.run_ops d ~ops:(max 1 (chunk / 2)) ();
      ignore (Cluster.gc_round c);
      let tokens_during =
        Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
        + Stats.get (Cluster.stats c) "dsm.gc.acquire_write"
        - tokens_before
      in
      Cluster.heal_all_links c;
      ignore (Cluster.settle c);
      Printf.printf
        "partition cycle %d: N%d split off, GC token acquires while \
         partitioned: %d\n"
        cycle lone tokens_during
    in
    for cycle = 1 to episodes do
      Driver.run_ops d ~ops:chunk ();
      let do_crash =
        !crashes_left > 0
        && (!parts_left = 0
           || Rng.int ev_rng (!crashes_left + !parts_left) < !crashes_left)
      in
      if do_crash then begin
        decr crashes_left;
        crash_cycle cycle
      end
      else begin
        decr parts_left;
        partition_cycle cycle
      end
    done;
    Driver.run_ops d ~ops:(max 0 (ops - (episodes * chunk))) ()
  end;
  if drop > 0. || dup > 0. then begin
    Bmx_netsim.Net.clear_faults net;
    ignore (Cluster.settle c)
  end;
  let reclaimed = if collect then Cluster.collect_until_quiescent c () else 0 in
  let ggc_reclaimed =
    if ggc then
      List.fold_left
        (fun acc node -> acc + (Cluster.ggc c ~node).Bmx_gc.Collect.r_reclaimed)
        0 (Cluster.nodes c)
    else 0
  in
  ignore (Cluster.drain c);
  let stats = Cluster.stats c in
  Printf.printf "workload: %d nodes, %d bunches, %d objects, %d ops (seed %d)\n"
    nodes bunches (bunches * objects) ops seed;
  Printf.printf "app acquires: %d read, %d write; invalidations: %d; hops: %d\n"
    (Stats.get stats "dsm.app.acquire_read")
    (Stats.get stats "dsm.app.acquire_write")
    (Stats.get stats "dsm.app.invalidations")
    (Stats.get stats "dsm.app.hops");
  Printf.printf "collector: %d objects reclaimed (+%d by GGC), token acquires %d\n"
    reclaimed ggc_reclaimed
    (Stats.get stats "dsm.gc.acquire_read" + Stats.get stats "dsm.gc.acquire_write");
  Printf.printf "network: %d messages, %d bytes\n"
    (Bmx_netsim.Net.total_messages (Cluster.net c))
    (Bmx_netsim.Net.total_bytes (Cluster.net c));
  if drop > 0. || dup > 0. || crashes > 0 then
    Printf.printf
      "faults: %d dropped, %d duplicated, %d retransmitted, %d abandoned; %d \
       crashes (%d in-flight purged, %d unacked lost, %d evaporated at down \
       nodes)\n"
      (Stats.get stats "net.dropped.total")
      (Stats.get stats "net.duplicated.total")
      (Stats.get stats "net.retransmit.total")
      (Stats.get stats "net.rel.abandoned")
      (Stats.get stats "net.crash.count")
      (Stats.get stats "net.crash.purged_in_flight")
      (Stats.get stats "net.crash.lost_unacked")
      (Stats.get stats "net.down_dropped.total");
  Printf.printf "heap: %d copies cached, %d reachable, %d retained garbage\n"
    (Bmx.Audit.total_cached_copies c)
    (Ids.Uid_set.cardinal (Bmx.Audit.union_reachable c))
    (Ids.Uid_set.cardinal (Bmx.Audit.garbage_retained c));
  Printf.printf "safety: %s\n"
    (match Bmx.Audit.check_safety c with Ok () -> "ok" | Error m -> m);
  if dump then begin
    print_endline "--- counters";
    List.iter
      (fun (k, v) -> if v <> 0 then Printf.printf "%-45s %d\n" k v)
      (Stats.counters stats)
  end;
  if trace then begin
    print_endline "--- last 40 trace events";
    let log = Cluster.evlog c in
    let skip = Bmx_util.Trace_event.length log - 40 in
    ignore
      (Bmx_util.Trace_event.fold log
         (fun i _ e ->
           if i >= skip then print_endline (Bmx_util.Trace_event.to_line e);
           i + 1)
         0)
  end;
  (match emit_trace with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      let log = Cluster.evlog c in
      Bmx_util.Trace_event.iter log (fun _ e ->
          output_string oc (Bmx_util.Trace_event.to_line e);
          output_char oc '\n');
      close_out oc;
      Printf.printf "trace: %d typed events written to %s\n"
        (Bmx_util.Trace_event.length log)
        file);
  (* Flight post-mortems: automatic trips (GC token acquire, truncating
     RVM recovery) already fired live; end-of-run analysis trips — a lint
     rule firing, the audit finding loss — are added here, then every
     dump becomes an artifact replayable through check/certify. *)
  (match (flight, flight_dir) with
  | Some f, Some dir ->
      let vs = Bmx_check.Lint.check_all (Cluster.proto c) in
      List.iter
        (fun (v : Bmx_check.Lint.violation) ->
          Bmx_obs.Flight.trip f (Bmx_check.Lint.rule_to_string v.rule))
        vs;
      let lost = Bmx.Audit.lost_objects c in
      if not (Ids.Uid_set.is_empty lost) then
        Bmx_obs.Flight.trip f
          (Printf.sprintf "audit-loss:%d" (Ids.Uid_set.cardinal lost));
      write_flight_dumps dir f
  | _ -> ());
  (* The fault knobs double as a CI gate.  A lint finding is always a
     bug.  An injected disk fault may destroy the only copy of an object
     — honest, reported loss — so under --corrupt-disk the audit gate is
     the fsck honesty contract (everything lost is named) rather than
     zero loss. *)
  if partitions > 0 || corrupt_disk then begin
    let vs = Bmx_check.Lint.check_all (Cluster.proto c) in
    List.iter
      (fun v -> Format.eprintf "%a@." Bmx_check.Lint.pp_violation v)
      vs;
    Printf.printf "lint: %s\n"
      (if vs = [] then "clean"
       else Printf.sprintf "%d violation(s)" (List.length vs));
    let cert = Bmx_check.Races.check_log (Cluster.evlog c) in
    List.iter
      (fun f -> Format.eprintf "%a@." Bmx_check.Races.pp_finding f)
      cert.Bmx_check.Races.findings;
    Printf.printf "certify: %s\n"
      (if Bmx_check.Races.ok cert then "clean"
       else
         Printf.sprintf "%d finding(s)"
           (List.length cert.Bmx_check.Races.findings));
    let lost = Bmx.Audit.lost_objects c in
    let silent = Ids.Uid_set.diff lost !fsck_named in
    if corrupt_disk && not (Ids.Uid_set.is_empty lost) then
      Printf.printf
        "disk faults destroyed %d object(s) with no surviving replica (%d \
         named by fsck, %d silent)\n"
        (Ids.Uid_set.cardinal lost)
        (Ids.Uid_set.cardinal (Ids.Uid_set.inter lost !fsck_named))
        (Ids.Uid_set.cardinal silent);
    let audit_ok =
      if corrupt_disk then Ids.Uid_set.is_empty silent
      else Bmx.Audit.check_safety c = Ok ()
    in
    if vs <> [] || (not (Bmx_check.Races.ok cert)) || not audit_ok then exit 1
  end

let workload_term dump_default =
  let collect =
    Arg.(value & flag & info [ "collect" ] ~doc:"Run BGC rounds to quiescence")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Record the typed event trace and print its last 40 events")
  in
  let emit_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-trace" ] ~docv:"FILE"
          ~doc:"Write the typed event trace to $(docv) for 'bmxctl check'")
  in
  let flight_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"DIR"
          ~doc:
            "Attach the flight recorder and write every dump (auto trips \
             plus end-of-run lint/audit trips) as a replayable trace \
             artifact under $(docv)")
  in
  let fault_kinds =
    Arg.(
      value
      & opt string "stub_table,scion_message,addr_update"
      & info [ "fault-kinds" ] ~docv:"CSV"
          ~doc:
            "Comma-separated message kinds the drop/dup dice apply to (e.g. \
             stub_table,scion_message,addr_update)")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:
            "Crash/checkpoint/recover cycles interleaved with the op stream \
             (a random live node each time)")
  in
  let partitions =
    Arg.(
      value & opt int 0
      & info [ "partitions" ]
          ~doc:
            "Partition/heal episodes interleaved with the op stream: a \
             random node is split off behind a network cut, part of the \
             workload runs degraded (GC token-free on both sides), then \
             the cut heals.  Exits nonzero if the final lint or safety \
             audit fails.")
  in
  let corrupt_disk =
    Arg.(
      value & flag
      & info [ "corrupt-disk" ]
          ~doc:
            "Inject one random storage fault (bit flip, dropped or \
             truncated record) into a victim's RVM log before each \
             recovery; fsck the recovered image and re-fetch lost cells \
             from surviving replicas.  Implies at least one crash cycle.  \
             Exits nonzero if the final lint or safety audit fails.")
  in
  Term.(
    const run_workload $ shape_term $ collect $ ggc_term $ const dump_default
    $ trace $ emit_trace $ flight_dir $ drop_term $ dup_term $ fault_kinds
    $ crashes $ partitions $ corrupt_disk)

let workload_cmd =
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a mixed mutator workload and summarize")
    (workload_term false)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Run a workload and dump every counter")
    (workload_term true)

(* ------------------------------------------------------------------ oo7 *)

let run_oo7 levels fanout comps atomics bunches seed =
  let cfg =
    {
      Bmx_workload.Oo7.levels;
      assembly_fanout = fanout;
      comp_per_base = comps;
      atomic_per_comp = atomics;
      part_bunches = bunches;
      seed;
    }
  in
  let c = Cluster.create ~nodes:2 ~seed () in
  let m = Bmx_workload.Oo7.build c ~node:0 cfg in
  Printf.printf "module: %d objects\n" (Bmx_workload.Oo7.size m);
  Printf.printf "T1 visited %d atomic parts\n" (Bmx_workload.Oo7.t1 m ~node:1);
  Printf.printf "T2 updated %d atomic parts\n" (Bmx_workload.Oo7.t2 m ~node:1);
  Printf.printf "churn superseded %d objects\n" (Bmx_workload.Oo7.churn m ~node:0);
  Printf.printf "collector reclaimed %d copies (gc tokens: %d)\n"
    (Cluster.collect_until_quiescent c ())
    (Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
    + Stats.get (Cluster.stats c) "dsm.gc.acquire_write");
  Printf.printf "safety: %s\n"
    (match Bmx.Audit.check_safety c with Ok () -> "ok" | Error m -> m)

let oo7_cmd =
  let levels = Arg.(value & opt int 3 & info [ "levels" ] ~doc:"Assembly depth") in
  let fanout = Arg.(value & opt int 3 & info [ "fanout" ] ~doc:"Assembly fanout") in
  let comps = Arg.(value & opt int 3 & info [ "composites" ] ~doc:"Composites per base") in
  let atomics = Arg.(value & opt int 8 & info [ "atomics" ] ~doc:"Atomic parts per composite") in
  let bunches = Arg.(value & opt int 3 & info [ "part-bunches" ] ~doc:"Bunches for parts") in
  let seed = Arg.(value & opt int 13 & info [ "seed" ] ~doc:"Deterministic seed") in
  Cmd.v
    (Cmd.info "oo7" ~doc:"Run the OO7-style design-database workload")
    Term.(const run_oo7 $ levels $ fanout $ comps $ atomics $ bunches $ seed)

(* ---------------------------------------------------------------- check *)

(* Parse a saved trace into an (unbounded) event log. *)
let load_trace file =
  let ic = open_in file in
  let log = Bmx_util.Trace_event.create_log ~capacity:max_int () in
  Bmx_util.Trace_event.set_enabled log true;
  let lineno = ref 0 and bad = ref 0 in
  (try
     while true do
       incr lineno;
       let line = String.trim (input_line ic) in
       (* '#' lines are flight-recorder headers (reason, metrics snapshot). *)
       if line <> "" && line.[0] <> '#' then
         match Bmx_util.Trace_event.of_line line with
         | Ok e -> Bmx_util.Trace_event.record log e
         | Error m ->
             incr bad;
             Printf.eprintf "%s:%d: unparseable event (%s)\n" file !lineno m
     done
   with End_of_file -> ());
  close_in ic;
  (log, !bad)

let run_check trace_file s =
  let violations =
    match trace_file with
    | Some file ->
        let log, bad = load_trace file in
        Printf.printf "linting %d event(s) from %s\n"
          (Bmx_util.Trace_event.length log)
          file;
        let vs = Bmx_check.Lint.check_log log in
        if bad > 0 then
          {
            Bmx_check.Lint.rule = Bmx_check.Lint.Incomplete_trace;
            at = -1;
            vnode = -1;
            detail =
              Printf.sprintf "%d line(s) of %s could not be parsed" bad file;
          }
          :: vs
        else vs
    | None ->
        (* No trace file: run a workload in-process with the typed event
           log on, then lint the live protocol (log + store check). *)
        Bmx_check.Lint.check_all (Cluster.proto (traced_run s "linting"))
  in
  match violations with
  | [] ->
      print_endline "check: clean — all invariants held";
      `Ok ()
  | vs ->
      List.iter
        (fun v -> Format.eprintf "%a@." Bmx_check.Lint.pp_violation v)
        vs;
      Format.eprintf "check: %d violation(s)@." (List.length vs);
      exit 1

let check_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Lint a saved trace (from 'workload --emit-trace') instead of \
                running a workload")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Replay a typed event trace through the invariant linter (GC never \
          acquires tokens; §5 invariants 1-3; per-pair FIFO; forwarder \
          acyclicity)")
    Term.(ret (const run_check $ trace_file $ shape_term))

(* -------------------------------------------------------------- certify *)

let run_certify trace_file json s =
  let cert =
    match trace_file with
    | Some file ->
        let log, bad = load_trace file in
        Printf.printf "certifying %d event(s) from %s\n"
          (Bmx_util.Trace_event.length log)
          file;
        (* Unparseable lines leave the trace incomplete, which the
           loaded log cannot say: the list entry point takes the flag. *)
        Bmx_check.Races.certify ~overflowed:(bad > 0)
          (Bmx_util.Trace_event.events log)
    | None ->
        Bmx_check.Races.check_log (Cluster.evlog (traced_run s "certifying"))
  in
  if json then
    print_endline (Bmx_obs.Json.to_string (Bmx_check.Races.to_json cert))
  else print_string (Bmx_check.Races.to_text cert);
  if Bmx_check.Races.ok cert then `Ok () else exit 1

let certify_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Certify a saved trace (from 'workload --emit-trace') instead \
                of running a workload")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the certificate as JSON")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Replay a typed event trace through the happens-before engine: \
          vector-clock race detection, per-object read-mapping check, and \
          the GC non-interference erasure theorem (§5).  Exits 1 unless the \
          trace certifies clean")
    Term.(ret (const run_certify $ trace_file $ json $ shape_term))

(* --------------------------------------------------------------- report *)

(* Per kind, the wire messages and the payloads they carried: a payload
   that rode another message of its pair counts in the second column
   only. *)
let print_wire net stats =
  let module Net = Bmx_netsim.Net in
  let row name msgs payloads bytes =
    Printf.printf "%-16s %9d %9d %11d\n" name msgs payloads bytes
  in
  Printf.printf "\n== wire ==\n%-16s %9s %9s %11s\n" "kind" "messages"
    "payloads" "bytes";
  List.iter
    (fun kind ->
      let name = Net.kind_to_string kind in
      let msgs = Net.sent net kind in
      let payloads = msgs + Net.coalesced net kind in
      if payloads > 0 then
        row name msgs payloads (Stats.get stats ("net.bytes." ^ name)))
    Net.all_kinds;
  row "total" (Net.total_messages net)
    (Net.total_messages net + Net.total_coalesced net)
    (Net.total_bytes net)

let run_report ({ nodes; bunches; objects; ops; seed; _ } as s) ggc drop dup
    fault_kinds perfetto selfcheck since until series =
  let d, c = traced_setup s in
  let ts = Cluster.enable_timeseries c in
  let net = Cluster.net c in
  if drop > 0. || dup > 0. then
    set_faults net ~seed ~drop ~dup (parse_fault_kinds fault_kinds);
  Driver.run_ops d ();
  if drop > 0. || dup > 0. then Bmx_netsim.Net.clear_faults net;
  ignore (Cluster.collect_until_quiescent c ());
  if ggc then
    List.iter (fun node -> ignore (Cluster.ggc c ~node)) (Cluster.nodes c);
  (* Flush the reliable streams so message-flight spans close. *)
  ignore (Cluster.settle c);
  (* Stop sampling before the exit-time bulk report pass so its observes
     don't pollute the final window. *)
  Bmx_obs.Timeseries.freeze ts;
  let report =
    Bmx_obs.Report.of_iter
      ~metrics:(Cluster.metrics c)
      (Bmx_util.Trace_event.iter (Cluster.evlog c))
  in
  let cert = Bmx_check.Races.check_log (Cluster.evlog c) in
  let report = Bmx_obs.Report.with_certified report (Bmx_check.Races.ok cert) in
  Printf.printf "report: %d nodes, %d bunches, %d objects, %d ops (seed %d)\n\n"
    nodes bunches (bunches * objects) ops seed;
  print_string (Bmx_obs.Report.to_text report);
  print_wire net (Cluster.stats c);
  (* Continuous-series window queries: --since/--until select a half-open
     virtual-time interval in µsteps; defaults cover the retained ring. *)
  (if since <> None || until <> None then
     match Bmx_obs.Timeseries.span ts with
     | None -> print_endline "\nwindow query: no windows retained"
     | Some (lo, hi) ->
         let since = Option.value since ~default:lo
         and until = Option.value until ~default:hi in
         Printf.printf "\n--- window [%d, %d) of [%d, %d) µsteps (%d windows)\n"
           since until lo hi
           (Bmx_obs.Timeseries.closed_windows ts);
         List.iter
           (fun comp ->
             let cn = Bmx_netsim.Net.Component.to_string comp in
             let msgs =
               Bmx_obs.Timeseries.counter_sum ts ~since ~until
                 ("net.comp.msgs." ^ cn)
             and bytes =
               Bmx_obs.Timeseries.counter_sum ts ~since ~until
                 ("net.comp.bytes." ^ cn)
             in
             if msgs > 0 || bytes > 0 then
               Printf.printf "  %-12s %6d msg(s) %10d byte(s)\n" cn msgs bytes)
           Bmx_netsim.Net.Component.all;
         List.iter
           (fun name ->
             let series = "latency." ^ name in
             let n =
               Bmx_obs.Timeseries.sample_count ts ~since ~until series
             in
             if n > 0 then
               let p q = Bmx_obs.Timeseries.percentile ts ~since ~until series q in
               Printf.printf
                 "  %-26s n=%-6d p50=%.0f p99=%.0f p999=%.0f µsteps\n" series n
                 (p 50.) (p 99.) (p 99.9))
           [
             "token_acquire.read";
             "token_acquire.write";
             "token_acquire.gc";
             "gc.pause";
           ]);
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (match series with
  | None -> ()
  | Some file ->
      let text = Bmx_obs.Timeseries.to_jsonl ts in
      let oc = open_out file in
      output_string oc text;
      close_out oc;
      Printf.printf "series: %d window(s) written to %s\n"
        (Bmx_obs.Timeseries.closed_windows ts)
        file;
      if selfcheck then begin
        (* Nothing else parses the export: check every window line. *)
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
        in
        let well_formed line =
          match Bmx_obs.Json.parse line with
          | Error _ -> false
          | Ok w -> (
              let field f = Bmx_obs.Json.member f w in
              (match (field "t0", field "t1") with
              | Some (Bmx_obs.Json.Int t0), Some (Bmx_obs.Json.Int t1) ->
                  t0 < t1
              | _ -> false)
              && List.for_all
                   (fun f ->
                     match field f with
                     | Some (Bmx_obs.Json.List _) -> true
                     | _ -> false)
                   [ "counters"; "gauges"; "histos" ])
        in
        let bad = List.filter (fun l -> not (well_formed l)) lines in
        if lines = [] then fail "series JSONL is empty"
        else if bad <> [] then
          fail "series JSONL: %d of %d window line(s) malformed"
            (List.length bad) (List.length lines)
        else
          Printf.printf "selfcheck: series JSONL ok (%d windows)\n"
            (List.length lines)
      end);
  (match perfetto with
  | None -> ()
  | Some file ->
      let spans = Bmx_obs.Report.spans report in
      Bmx_obs.Perfetto.write_file
        ~extra:(Bmx_obs.Timeseries.perfetto_counters ts)
        file spans;
      Printf.printf "perfetto: %d span(s) written to %s\n" (List.length spans)
        file;
      if selfcheck then begin
        let ic = open_in file in
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Bmx_obs.Json.parse body with
        | Error m -> fail "perfetto JSON does not parse: %s" m
        | Ok j -> (
            match Bmx_obs.Json.member "traceEvents" j with
            | Some (Bmx_obs.Json.List evs) ->
                Printf.printf "selfcheck: perfetto JSON ok (%d trace events)\n"
                  (List.length evs)
            | _ -> fail "perfetto JSON lacks a traceEvents array")
      end);
  if selfcheck then begin
    if Bmx_util.Trace_event.overflowed (Cluster.evlog c) then
      fail "event log overflowed: report is incomplete";
    (match Bmx_obs.Report.latency report "token_acquire.read" with
    | Some s when s.Bmx_obs.Metrics.s_count > 0 -> ()
    | _ -> fail "no token-acquire latency samples");
    (match Bmx_obs.Report.latency report "gc.pause" with
    | Some s when s.Bmx_obs.Metrics.s_count > 0 -> ()
    | _ -> fail "no GC-pause latency samples")
  end;
  if not (Bmx_obs.Report.ok report) then
    fail "gc.token_acquires = %d (non-interference violated)"
      (Bmx_obs.Report.gc_token_acquires report);
  if not (Bmx_check.Races.ok cert) then begin
    List.iter
      (fun f -> Format.eprintf "%a@." Bmx_check.Races.pp_finding f)
      cert.Bmx_check.Races.findings;
    fail "happens-before certificate failed (%d finding(s))"
      (List.length cert.Bmx_check.Races.findings)
  end;
  match List.rev !failures with
  | [] -> `Ok ()
  | fs ->
      List.iter (Printf.eprintf "report: FAIL: %s\n") fs;
      exit 1

let report_cmd =
  let fault_kinds =
    Arg.(
      value
      & opt string "stub_table,scion_message,addr_update"
      & info [ "fault-kinds" ] ~docv:"CSV"
          ~doc:"Comma-separated message kinds the drop/dup dice apply to")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write the span timeline as Chrome-trace-event JSON (load at \
             ui.perfetto.dev)")
  in
  let selfcheck =
    Arg.(
      value & flag
      & info [ "selfcheck" ]
          ~doc:
            "Re-parse the Perfetto JSON and require latency samples; exit 1 \
             on any failure (used by the @report smoke alias)")
  in
  let since =
    Arg.(
      value
      & opt (some int) None
      & info [ "since" ] ~docv:"µSTEP"
          ~doc:
            "Window-query start (virtual µsteps, inclusive); prints \
             per-component traffic and latency percentiles over the \
             continuous series restricted to the interval")
  in
  let until =
    Arg.(
      value
      & opt (some int) None
      & info [ "until" ] ~docv:"µSTEP"
          ~doc:"Window-query end (virtual µsteps, exclusive)")
  in
  let series =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ] ~docv:"FILE"
          ~doc:
            "Write the continuous virtual-time series (one JSON object \
             per window) to $(docv)")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a workload with the event trace on and print the observability \
          report: typed metrics, virtual-time latency percentiles \
          (token-acquire, GC pause) and the gc.token_acquires \
          non-interference verdict")
    Term.(
      ret
        (const run_report $ shape_term $ ggc_term $ drop_term $ dup_term
       $ fault_kinds $ perfetto $ selfcheck $ since $ until $ series))

(* ---------------------------------------------------------------- watch *)

let run_watch s every =
  let d, c = traced_setup s in
  let ts = Cluster.enable_timeseries c in
  let w = Bmx_obs.Timeseries.window ts in
  Printf.printf "watch: %d nodes, %d ops (seed %d); one row per %d window(s) \
                 of %d µsteps\n"
    s.nodes s.ops s.seed every w;
  Printf.printf "%12s %8s %10s %6s %12s %12s\n" "t1/µstep" "msgs" "bytes" "gcs"
    "p99.acq" "p99.pause";
  Bmx_obs.Timeseries.on_window ts (fun ts ->
      let n = Bmx_obs.Timeseries.closed_windows ts in
      if n mod every = 0 then
        match Bmx_obs.Timeseries.span ts with
        | None -> ()
        | Some (_, hi) ->
            let since = hi - (every * w) and until = hi in
            let sum prefix =
              List.fold_left
                (fun acc comp ->
                  acc
                  + Bmx_obs.Timeseries.counter_sum ts ~since ~until
                      (prefix ^ Bmx_netsim.Net.Component.to_string comp))
                0 Bmx_netsim.Net.Component.all
            in
            let p99 series =
              if Bmx_obs.Timeseries.sample_count ts ~since ~until series > 0
              then
                Printf.sprintf "%.0f"
                  (Bmx_obs.Timeseries.percentile ts ~since ~until series 99.)
              else "-"
            in
            let gcs =
              Bmx_obs.Timeseries.sample_count ts ~since ~until
                "latency.gc.pause"
            in
            Printf.printf "%12d %8d %10d %6d %12s %12s\n" until
              (sum "net.comp.msgs.") (sum "net.comp.bytes.") gcs
              (p99 "latency.token_acquire.write")
              (p99 "latency.gc.pause"));
  Driver.run_ops d ();
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.settle c);
  Bmx_obs.Timeseries.freeze ts;
  Printf.printf "watch: %d window(s) closed, gc token acquires %d\n"
    (Bmx_obs.Timeseries.closed_windows ts)
    (Stats.get (Cluster.stats c) "dsm.gc.acquire_read"
    + Stats.get (Cluster.stats c) "dsm.gc.acquire_write")

let watch_cmd =
  let every =
    Arg.(
      value & opt int 10
      & info [ "every" ]
          ~doc:"Print one dashboard row per $(docv) closed windows" ~docv:"N")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Run a workload with continuous sampling on and print a live text \
          dashboard — per-component traffic, collections and p99 latencies \
          per window of virtual time — as the run advances")
    Term.(const run_watch $ shape_term $ every)

(* -------------------------------------------------------------- explore *)

let run_explore list_scenarios depth max_schedules name =
  if list_scenarios then begin
    List.iter
      (fun s ->
        Printf.printf "%-16s %s\n" s.Bmx_check.Explore.sc_name
          s.Bmx_check.Explore.sc_desc)
      Bmx_check.Explore.builtin_scenarios;
    `Ok ()
  end
  else
    match name with
    | None -> `Error (true, "missing SCENARIO argument (or use --list)")
    | Some name -> (
        match Bmx_check.Explore.find_scenario name with
        | None ->
            `Error
              ( false,
                Printf.sprintf
                  "unknown scenario %S (use --list to see the catalog)" name )
        | Some sc ->
            let build = sc.Bmx_check.Explore.sc_build in
            let locals = sc.Bmx_check.Explore.sc_locals in
            let c0 = build () in
            Printf.printf "scenario %s: %d message(s) pending, %d local step(s)\n"
              name
              (Bmx_netsim.Net.pending (Cluster.net c0))
              (List.length locals);
            let r =
              Bmx_check.Explore.run ~depth ~max_schedules ~build ~locals
                ~finish:sc.Bmx_check.Explore.sc_finish ()
            in
            Format.printf "%a@." Bmx_check.Explore.pp_report r;
            if r.Bmx_check.Explore.violations <> [] then exit 1;
            `Ok ())

let explore_cmd =
  let list_scenarios =
    Arg.(value & flag & info [ "list" ] ~doc:"List the built-in scenarios")
  in
  let depth =
    Arg.(
      value & opt int 6
      & info [ "depth" ] ~doc:"Exhaustively explored choice points")
  in
  let max_schedules =
    Arg.(
      value & opt int 2000
      & info [ "max-schedules" ] ~doc:"Cap on complete schedules")
  in
  let scenario =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Enumerate message delivery schedules of a race scenario (FIFO per \
          pair preserved) and run the linter plus the safety audit on every \
          final state")
    Term.(
      ret
        (const run_explore $ list_scenarios $ depth $ max_schedules $ scenario))

let main =
  Cmd.group
    (Cmd.info "bmxctl" ~version:"1.0"
       ~doc:
         "Drive the BMX platform simulator (Ferreira & Shapiro, OSDI '94 \
          reproduction)")
    [
      scenario_cmd;
      workload_cmd;
      stats_cmd;
      oo7_cmd;
      check_cmd;
      certify_cmd;
      explore_cmd;
      report_cmd;
      watch_cmd;
    ]

let () = exit (Cmd.eval main)
