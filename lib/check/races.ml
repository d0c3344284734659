open Bmx_util
module E = Trace_event
module Json = Bmx_obs.Json

type kind =
  | Race
  | Stale_read
  | Phantom_version
  | Gc_interference
  | Erasure_broken
  | Incomplete_trace

type finding = {
  kind : kind;
  at : int;
  node : int;
  uid : int;
  detail : string;
}

type t = {
  events : int;
  app_events : int;
  gc_events : int;
  reads : int;
  writes : int;
  weak_reads : int;
  objects : int;
  erasure_ok : bool;
  findings : finding list;
}

let kind_to_string = function
  | Race -> "race"
  | Stale_read -> "stale-read"
  | Phantom_version -> "phantom-version"
  | Gc_interference -> "gc-interference"
  | Erasure_broken -> "erasure-broken"
  | Incomplete_trace -> "incomplete-trace"

let finding_to_string f =
  Printf.sprintf "[%s] %s" (kind_to_string f.kind) f.detail

let pp_finding ppf f = Format.pp_print_string ppf (finding_to_string f)

let compare_finding a b =
  let c = Int.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.kind b.kind in
    if c <> 0 then c
    else
      let c = Int.compare a.node b.node in
      if c <> 0 then c
      else
        let c = Int.compare a.uid b.uid in
        if c <> 0 then c else String.compare a.detail b.detail

let normalize fs = List.sort_uniq compare_finding fs

(* ------------------------------------------------------------------ *)
(* Read mapping and race detection over stamped events.                *)

type obj_state = {
  (* Timestamp, version and node of the happens-before-maximal covered
     write seen so far. *)
  mutable last_write : (Hb.clock * int * int) option;
  (* Version the next covered read must observe; [None] after an
     ownership adoption until a write re-establishes the basis. *)
  mutable expected : int option;
  (* Per reader node, the join of its covered-read timestamps since the
     last covered write — the fronts a new write must dominate. *)
  fronts : (int, Hb.clock) Hashtbl.t;
}

type map_state = {
  objs : (int, obj_state) Hashtbl.t;
  (* Findings anchored at App events, and at GC events (a GC access):
     only the former must survive erasure. *)
  mutable app_found : finding list;
  mutable gc_found : finding list;
  mutable reads : int;
  mutable writes : int;
  mutable weak : int;
}

let map_create () =
  {
    objs = Hashtbl.create 64;
    app_found = [];
    gc_found = [];
    reads = 0;
    writes = 0;
    weak = 0;
  }

let add st ~actor kind ~at ~node ~uid fmt =
  Printf.ksprintf
    (fun detail ->
      let f = { kind; at; node; uid; detail } in
      match actor with
      | E.App -> st.app_found <- f :: st.app_found
      | E.Gc -> st.gc_found <- f :: st.gc_found)
    fmt

let obj st uid =
  match Hashtbl.find_opt st.objs uid with
  | Some o -> o
  | None ->
      let o =
        { last_write = None; expected = None; fronts = Hashtbl.create 4 }
      in
      Hashtbl.add st.objs uid o;
      o

(* Replays one event, classified [actor] and stamped [clock] (a live
   engine view), into the read-mapping state.  Processes every access,
   GC-actor ones included: in the full replay a GC write legitimately
   shifts the version basis, so that erasing it makes the
   application-anchored findings diverge — which is exactly what the
   erasure check trips on. *)
let map_step st ~actor ~at ev (clock : Hb.clock) =
  match ev with
  | E.Write_obs { node; uid; version; covered; _ } ->
      st.writes <- st.writes + 1;
      let o = obj st uid in
      if covered then begin
        (match o.last_write with
        | Some (wvc, wver, wnode) when not (Hb.leq wvc clock) ->
            add st ~actor Race ~at ~node ~uid
              "event %d: write of o%d (v%d) at N%d unordered with the \
               write of v%d at N%d — write-write race"
              at uid version node wver wnode
        | _ -> ());
        Hashtbl.iter
          (fun rnode front ->
            if not (Hb.leq front clock) then
              add st ~actor Race ~at ~node ~uid
                "event %d: write of o%d (v%d) at N%d unordered with a \
                 covered read at N%d — read-write race"
                at uid version node rnode)
          o.fronts
      end;
      (* Covered or not, the write moves the version basis: an
         uncovered (token-less) write is reported as interference by
         the caller, and erasing it must perturb the mapping. *)
      o.last_write <- Some (Array.copy clock, version, node);
      o.expected <- Some version;
      Hashtbl.reset o.fronts
  | E.Read_obs { node; uid; version; covered; _ } ->
      st.reads <- st.reads + 1;
      if not covered then st.weak <- st.weak + 1
      else begin
        let o = obj st uid in
        (match o.last_write with
        | Some (wvc, wver, wnode) when not (Hb.leq wvc clock) ->
            add st ~actor Race ~at ~node ~uid
              "event %d: covered read of o%d (v%d) at N%d unordered with \
               the write of v%d at N%d — read-write race"
              at uid version node wver wnode
        | _ -> ());
        (match o.expected with
        | Some ver when version < ver ->
            add st ~actor Stale_read ~at ~node ~uid
              "event %d: covered read of o%d at N%d observed v%d but the \
               happens-before-maximal write is v%d — stale read"
              at uid node version ver
        | Some ver when version > ver ->
            add st ~actor Phantom_version ~at ~node ~uid
              "event %d: covered read of o%d at N%d observed v%d, newer \
               than any recorded write (v%d) — phantom version"
              at uid node version ver
        | Some _ | None -> ());
        let front =
          match Hashtbl.find_opt o.fronts node with
          | Some f -> f
          | None ->
              let f = Array.make (Array.length clock) 0 in
              Hashtbl.add o.fronts node f;
              f
        in
        Array.iteri (fun k v -> if v > front.(k) then front.(k) <- v) clock
      end
  | E.Crash { node } ->
      (* The node's tokens died with it: later writes legally skip
         invalidating it, so its fronts must not accuse them. *)
      Hashtbl.iter (fun _ o -> Hashtbl.remove o.fronts node) st.objs
  | E.Owner_adopted { uid; _ } ->
      (* Recovery reseated ownership from a persistent image; the
         version chain restarts at the next write.  (Honest
         RVM-truncation staleness is checked by the recovery fsck,
         not here.) *)
      let o = obj st uid in
      o.last_write <- None;
      o.expected <- None;
      Hashtbl.reset o.fronts
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Certification.                                                      *)

let found at node uid detail =
  Some { kind = Gc_interference; at; node; uid; detail }

(* The collector acquiring a token, writing a shared object, or reading
   one under a held token. *)
let interference at ev =
  match ev with
  | E.Acquire_start { actor = E.Gc; node; uid; tok } ->
      found at node uid
        (Printf.sprintf
           "event %d: the collector acquired a %s token for o%d at N%d" at
           (match tok with E.Read -> "read" | E.Write -> "write")
           uid node)
  | E.Write_obs { actor = E.Gc; node; uid; version; _ } ->
      found at node uid
        (Printf.sprintf
           "event %d: the collector wrote o%d (v%d) at N%d — GC must never \
            mutate application-visible state"
           at uid version node)
  | E.Read_obs { actor = E.Gc; node; uid; covered = true; _ } ->
      found at node uid
        (Printf.sprintf
           "event %d: the collector read o%d at N%d under a held token — GC \
            reads must be token-free"
           at uid node)
  | _ -> None

let no_anchor kind detail = { kind; at = -1; node = -1; uid = -1; detail }

(* [replay ~overflowed iter] certifies the events [iter] yields with
   their trace positions, oldest first.  One pass drives two engines in
   lockstep: the full one steps every event, the erased one only the
   events the full one classified App — the trace with every GC event
   deleted.  Each App event's two timestamps are compared as soon as
   both exist; the first mismatch (or reclassification) is the erasure
   finding, and the erased engine stops there.  Otherwise the erased
   read mapping must end with the full one's application-anchored
   findings. *)
let replay ~overflowed iter =
  let nodes = Hb.node_span (fun f -> iter (fun _ e -> f e)) in
  let full = Hb.create ~nodes and erased = Hb.create ~nodes in
  let full_map = map_create () and erased_map = map_create () in
  let interfered = ref [] and broken = ref None in
  let events = ref 0 and app_events = ref 0 in
  iter (fun at ev ->
      incr events;
      let actor = Hb.step full ev in
      let clock = Hb.timestamp full in
      (match interference at ev with
      | Some f -> interfered := f :: !interfered
      | None -> ());
      map_step full_map ~actor ~at ev clock;
      if actor = E.App then begin
        incr app_events;
        if !broken = None then
          match Hb.step erased ev with
          | E.Gc ->
              broken :=
                Some
                  (Printf.sprintf
                     "application event %d was reclassified by the erasure \
                      replay"
                     at)
          | E.App when Hb.timestamp erased <> clock ->
              broken :=
                Some
                  (Printf.sprintf
                     "erasing GC events changed the vector clock of \
                      application event %d"
                     at)
          | E.App -> map_step erased_map ~actor ~at ev (Hb.timestamp erased)
      end);
  let broken =
    match !broken with
    | Some _ as b -> b
    | None when normalize full_map.app_found = normalize erased_map.app_found
      ->
        None
    | None ->
        Some
          "erasing GC events changed the application read mapping (races / \
           stale reads differ between the two replays)"
  in
  let erasure = Option.to_list (Option.map (no_anchor Erasure_broken) broken) in
  let incomplete =
    if overflowed then
      [
        no_anchor Incomplete_trace
          "the event log overflowed (or had unparseable lines); the trace \
           cannot be certified";
      ]
    else []
  in
  {
    events = !events;
    app_events = !app_events;
    gc_events = !events - !app_events;
    reads = full_map.reads;
    writes = full_map.writes;
    weak_reads = full_map.weak;
    objects = Hashtbl.length full_map.objs;
    erasure_ok = erasure = [];
    findings =
      normalize
        (incomplete @ erasure @ !interfered @ full_map.app_found
       @ full_map.gc_found);
  }

let certify ?(overflowed = false) events =
  replay ~overflowed (fun f -> List.iteri f events)

let check_log log =
  replay ~overflowed:(E.overflowed log) (fun f ->
      ignore
        (E.fold log
           (fun i _ e ->
             f i e;
             i + 1)
           0))

let ok t = t.findings = []

let count k t =
  List.length (List.filter (fun f -> f.kind = k) t.findings)

let races t = count Race t
let stale_reads t = count Stale_read t

let to_text t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== happens-before certificate ==\n";
  Buffer.add_string buf
    (Printf.sprintf "events:          %d (%d app, %d gc)\n" t.events
       t.app_events t.gc_events);
  Buffer.add_string buf
    (Printf.sprintf "accesses:        %d reads (%d weak), %d writes on %d \
                     object(s)\n"
       t.reads t.weak_reads t.writes t.objects);
  Buffer.add_string buf
    (Printf.sprintf "races:           %d\n" (races t));
  Buffer.add_string buf
    (Printf.sprintf "stale reads:     %d\n" (stale_reads t));
  Buffer.add_string buf
    (Printf.sprintf "gc interference: %d\n" (count Gc_interference t));
  Buffer.add_string buf
    (Printf.sprintf "gc erasure:      %s\n"
       (if t.erasure_ok then "unchanged (theorem holds)" else "BROKEN"));
  Buffer.add_string buf
    (if ok t then "verdict:         CERTIFIED\n"
     else Printf.sprintf "verdict:         FAILED (%d finding(s))\n"
            (List.length t.findings));
  List.iter
    (fun f -> Buffer.add_string buf (finding_to_string f ^ "\n"))
    t.findings;
  Buffer.contents buf

let to_json t =
  Json.Obj
    [
      ("events", Json.Int t.events);
      ("app_events", Json.Int t.app_events);
      ("gc_events", Json.Int t.gc_events);
      ("reads", Json.Int t.reads);
      ("weak_reads", Json.Int t.weak_reads);
      ("writes", Json.Int t.writes);
      ("objects", Json.Int t.objects);
      ("races", Json.Int (races t));
      ("stale_reads", Json.Int (stale_reads t));
      ("gc_interference", Json.Int (count Gc_interference t));
      ("erasure_ok", Json.Bool t.erasure_ok);
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("kind", Json.String (kind_to_string f.kind));
                   ("at", Json.Int f.at);
                   ("node", Json.Int f.node);
                   ("uid", Json.Int f.uid);
                   ("detail", Json.String f.detail);
                 ])
             t.findings) );
      ("ok", Json.Bool (ok t));
    ]
