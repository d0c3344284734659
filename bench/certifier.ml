(* E23: happens-before certifier cost vs trace length.

   The certifier (Bmx_check.Races.check_log) reads the typed event log
   twice — once for the clock width, then once driving the full and the
   GC-erased vector-clock engines in lockstep — so its cost must stay
   near-linear in the trace length or it cannot gate CI soaks.  This
   experiment generates workload traces of increasing length (same shape
   as the e20 smoke configuration), times the linter (Lint.check_log)
   and the certifier on the very same recorded log, and counts the
   minor words one call of each allocates per event, which repeats
   exactly.  The certifier carries the heavier analysis, but on the
   e20-smoke-sized trace its words per event must stay within 2x of the
   linter's — that bound, and near-linear ns/event (a host timing), are
   the acceptance gates.

   Output: a table plus one machine-readable "BENCH {...}" line. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Driver = Bmx_workload.Driver
module Json = Bmx_obs.Json
module Lint = Bmx_check.Lint
module Races = Bmx_check.Races

let now_ns () = Monotonic_clock.now ()

(* Wall-clock of [f ()], best of [reps] runs (first run also warms the
   minor heap with the trace resident). *)
let time ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now_ns () in
    ignore (f ());
    let t1 = now_ns () in
    let ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
    if ms < !best then best := ms
  done;
  !best

(* Minor words allocated by one call of [f]. *)
let words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let trace_of ~nodes ~objects_per_bunch ~ops =
  let cfg =
    {
      Driver.default with
      nodes;
      bunches = nodes;
      objects_per_bunch;
      ops;
      seed = 23;
    }
  in
  let d = Driver.setup cfg in
  let c = Driver.cluster d in
  Cluster.set_event_trace c true;
  Driver.run_ops d ~ops ();
  ignore (Cluster.collect_until_quiescent c ());
  ignore (Cluster.drain c);
  Cluster.evlog c

type row = {
  c_ops : int;
  c_events : int;
  c_lint_ms : float;
  c_certify_ms : float;
  c_ns_per_event : float;
  c_lint_wpe : float; (* minor words per event *)
  c_certify_wpe : float;
}

let run_size ~nodes ~objects_per_bunch ~ops =
  let log = trace_of ~nodes ~objects_per_bunch ~ops in
  let n = Trace_event.length log in
  let lint_ms = time (fun () -> Lint.check_log log) in
  let cert = Races.check_log log in
  if not (Races.ok cert) then
    failwith
      (Printf.sprintf "e23: workload trace (%d ops) failed to certify" ops);
  let certify_ms = time (fun () -> Races.check_log log) in
  let per_event x = if n = 0 then 0.0 else x /. float_of_int n in
  {
    c_ops = ops;
    c_events = n;
    c_lint_ms = lint_ms;
    c_certify_ms = certify_ms;
    c_ns_per_event = per_event (certify_ms *. 1e6);
    c_lint_wpe = per_event (words (fun () -> Lint.check_log log));
    c_certify_wpe = per_event (words (fun () -> Races.check_log log));
  }

let row_json r =
  Json.Obj
    [
      ("ops", Json.Int r.c_ops);
      ("events", Json.Int r.c_events);
      ("lint_ms", Json.Float r.c_lint_ms);
      ("certify_ms", Json.Float r.c_certify_ms);
      ( "certify_over_lint",
        Json.Float
          (if r.c_lint_ms <= 0.0 then 0.0 else r.c_certify_ms /. r.c_lint_ms) );
      ("certify_ns_per_event", Json.Float r.c_ns_per_event);
      ("lint_words_per_event", Json.Float r.c_lint_wpe);
      ("certify_words_per_event", Json.Float r.c_certify_wpe);
    ]

let e23 () =
  let t =
    Table.create
      ~title:
        "E23: happens-before certifier cost vs trace length — \
         Races.check_log against Lint.check_log on the same log: minor \
         words per event (the 2x gate) and wall-clock (near-linear ns/event \
         is the scaling gate)"
      ~columns:
        [
          "nodes"; "ops"; "events"; "lint w/ev"; "certify w/ev"; "x lint";
          "lint ms"; "certify ms"; "ns/event";
        ]
  in
  let rows =
    List.map
      (fun (nodes, objects_per_bunch, ops) ->
        let r = run_size ~nodes ~objects_per_bunch ~ops in
        Table.add_row t
          [
            string_of_int nodes;
            string_of_int r.c_ops;
            string_of_int r.c_events;
            Printf.sprintf "%.2f" r.c_lint_wpe;
            Printf.sprintf "%.2f" r.c_certify_wpe;
            (if r.c_lint_wpe <= 0.0 then "-"
             else Printf.sprintf "%.2f" (r.c_certify_wpe /. r.c_lint_wpe));
            Printf.sprintf "%.2f" r.c_lint_ms;
            Printf.sprintf "%.2f" r.c_certify_ms;
            Printf.sprintf "%.0f" r.c_ns_per_event;
          ];
        r)
      (* First row is the e20-smoke shape — the ≤2x-of-the-linter
         acceptance gate reads off that line. *)
      [ (3, 48, 400); (4, 64, 800); (4, 64, 1600); (4, 64, 3200) ]
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "e23");
        ("unit", Json.String "certify_ms_wallclock");
        ("configs", Json.List (List.map row_json rows));
      ]
  in
  Printf.printf "BENCH %s\n" (Json.to_string json);
  [ t ]
