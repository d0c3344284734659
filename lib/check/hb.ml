open Bmx_util
module E = Trace_event

type clock = int array

type info = {
  idx : int;
  ev : E.t;
  actor : E.actor;
  clock : clock;
}

let leq a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let get c i = if i < Array.length c then c.(i) else 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    if get a i > get b i then ok := false
  done;
  !ok

let join ~into src =
  Array.iteri (fun i v -> if v > into.(i) then into.(i) <- v) src

let node_span events =
  let m = ref 0 in
  Array.iter
    (fun e -> List.iter (fun n -> m := Int.max !m n) (E.nodes e))
    events;
  !m + 1

let gc_kind = function
  | "scion_message" | "stub_table" | "reclaim_request" | "reclaim_reply"
  | "refcount_op" ->
      true
  | _ -> false

(* Engine core.  [copy = true] hands [emit] a private snapshot of each
   timestamp (callers may retain it); [copy = false] hands it the live
   clock array — valid only during the callback — and pays no per-event
   allocation beyond what the edges themselves store. *)
let exec ~copy ?nodes ?indices events emit =
  let nodes =
    match nodes with
    | Some n -> Stdlib.max n 1
    | None -> node_span events
  in
  (* Application clocks: only App-classified events increment these. *)
  let c = Array.init nodes (fun _ -> Array.make nodes 0) in
  (* GC-side clocks: what each node's collector has observed.  These
     absorb application clocks and GC message edges but never flow back
     into [c] — that asymmetry IS the non-interference statement. *)
  let g = Array.init nodes (fun _ -> Array.make nodes 0) in
  (* Message-edge snapshots.  Sequence numbers are per-(src, dst) stream
     and strictly increasing across kinds (the FIFO lint enforces this),
     so (src, dst, seq) identifies the send.  The snapshot is dropped at
     first delivery: clocks only grow, so a duplicate delivery joining
     nothing is a no-op — the edge is already absorbed. *)
  let snap : (int * int * int, clock) Hashtbl.t = Hashtbl.create 1024 in
  (* Grant-edge snapshots, keyed (requester, uid). *)
  let grant : (int * int, clock) Hashtbl.t = Hashtbl.create 64 in
  (* Invalidation accumulator per uid: clocks of every reader
     invalidated since the last write grant. *)
  let acc : (int, clock) Hashtbl.t = Hashtbl.create 64 in
  (* Actor of the in-flight acquire per uid (acquires are synchronous),
     and tokens currently held by the GC. *)
  let pending : (int, E.actor) Hashtbl.t = Hashtbl.create 16 in
  let held_by_gc : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let pending_actor uid =
    match Hashtbl.find_opt pending uid with Some a -> a | None -> E.App
  in
  let view a = if copy then Array.copy a else a in
  (* Stored snapshots must survive later clock growth: fresh in copy
     mode (the emitted timestamp is already private), copied in view
     mode. *)
  let retain a = if copy then a else Array.copy a in
  (* App event at [n]: bump program order, timestamp = C(n). *)
  let step n =
    c.(n).(n) <- c.(n).(n) + 1;
    view c.(n)
  in
  (* Gc event at [n]: reads C(n) into G(n), timestamp = G(n). *)
  let gstep n =
    join ~into:g.(n) c.(n);
    view g.(n)
  in
  Array.mapi
    (fun pos ev ->
      let idx = match indices with Some ix -> ix.(pos) | None -> pos in
      let actor, clock =
        match ev with
        | E.Acquire_start { actor; node; uid; _ } ->
            Hashtbl.replace pending uid actor;
            (actor, (match actor with E.App -> step node | E.Gc -> gstep node))
        | E.Acquire_done { actor; node; uid; tok; _ } ->
            Hashtbl.remove pending uid;
            (match actor with
            | E.App ->
                (match Hashtbl.find_opt grant (node, uid) with
                | Some s ->
                    join ~into:c.(node) s;
                    Hashtbl.remove grant (node, uid)
                | None -> ());
                if tok = E.Write then (
                  (match Hashtbl.find_opt acc uid with
                  | Some s -> join ~into:c.(node) s
                  | None -> ());
                  Hashtbl.remove acc uid);
                (actor, step node)
            | E.Gc ->
                Hashtbl.replace held_by_gc (node, uid) ();
                (match Hashtbl.find_opt grant (node, uid) with
                | Some s ->
                    join ~into:g.(node) s;
                    Hashtbl.remove grant (node, uid)
                | None -> ());
                (actor, gstep node))
        | E.Release { node; uid } ->
            if Hashtbl.mem held_by_gc (node, uid) then begin
              Hashtbl.remove held_by_gc (node, uid);
              (E.Gc, gstep node)
            end
            else (E.App, step node)
        | E.Grant_sent { granter; requester; uid; _ } -> (
            match pending_actor uid with
            | E.App ->
                let ts = step granter in
                Hashtbl.replace grant (requester, uid) (retain ts);
                (E.App, ts)
            | E.Gc ->
                let ts = gstep granter in
                Hashtbl.replace grant (requester, uid) (retain ts);
                (E.Gc, ts))
        | E.Hook_ssp { granter; uid; _ } -> (
            match pending_actor uid with
            | E.App -> (E.App, step granter)
            | E.Gc -> (E.Gc, gstep granter))
        | E.Invalidate { src; dst; uid } -> (
            match pending_actor uid with
            | E.App ->
                (* Synchronous exchange: src and dst merge, and the
                   invalidated reader's clock feeds the accumulator the
                   next write grant will join. *)
                let ts = step src in
                join ~into:c.(dst) ts;
                join ~into:c.(src) c.(dst);
                let a =
                  match Hashtbl.find_opt acc uid with
                  | Some a -> a
                  | None ->
                      let a = Array.make nodes 0 in
                      Hashtbl.add acc uid a;
                      a
                in
                join ~into:a c.(dst);
                (E.App, view c.(src))
            | E.Gc ->
                let ts = gstep src in
                join ~into:g.(dst) ts;
                (E.Gc, ts))
        | E.Msg_sent { src; dst; kind; seq; _ } ->
            if gc_kind kind then begin
              let ts = gstep src in
              Hashtbl.replace snap (src, dst, seq) (retain ts);
              (E.Gc, ts)
            end
            else begin
              let ts = step src in
              Hashtbl.replace snap (src, dst, seq) (retain ts);
              (E.App, ts)
            end
        | E.Msg_delivered { src; dst; kind; seq; _ } ->
            if gc_kind kind then begin
              (match Hashtbl.find_opt snap (src, dst, seq) with
              | Some s ->
                  join ~into:g.(dst) s;
                  Hashtbl.remove snap (src, dst, seq)
              | None -> ());
              (E.Gc, gstep dst)
            end
            else begin
              (match Hashtbl.find_opt snap (src, dst, seq) with
              | Some s ->
                  join ~into:c.(dst) s;
                  Hashtbl.remove snap (src, dst, seq)
              | None -> ());
              (E.App, step dst)
            end
        | E.Rpc { src; dst; kind; _ } ->
            if gc_kind kind then begin
              let ts = gstep src in
              join ~into:g.(dst) ts;
              join ~into:g.(dst) c.(dst);
              join ~into:g.(src) g.(dst);
              (E.Gc, view g.(src))
            end
            else begin
              ignore (step src);
              join ~into:c.(dst) c.(src);
              join ~into:c.(src) c.(dst);
              (E.App, view c.(src))
            end
        | E.Msg_retransmit { src; dst = _; kind; _ } ->
            (* The original send's snapshot already carries the edge. *)
            if gc_kind kind then (E.Gc, gstep src) else (E.App, step src)
        | E.Msg_suppressed { dst; kind; _ } | E.Msg_buffered { dst; kind; _ }
          ->
            if gc_kind kind then (E.Gc, gstep dst) else (E.App, step dst)
        | E.Gc_begin { node; _ } | E.Gc_end { node; _ } | E.Gc_phase { node; _ }
          ->
            (E.Gc, gstep node)
        | E.Tables_processed { at; _ } -> (E.Gc, gstep at)
        | E.Read_obs { actor; node; _ } | E.Write_obs { actor; node; _ } -> (
            match actor with
            | E.App -> (E.App, step node)
            | E.Gc -> (E.Gc, gstep node))
        | E.Updates_applied { node; _ } | E.Forward_due { node; _ } ->
            (E.App, step node)
        | E.Copyset_forward { src; _ } -> (E.App, step src)
        | E.Crash { node } | E.Restart { node } -> (E.App, step node)
        | E.Owner_adopted { node; _ } -> (E.App, step node)
        | E.Disk_fault { node; _ }
        | E.Rvm_recover { node; _ }
        | E.Bunch_verified { node; _ }
        | E.Shard_alloc { node; _ }
        | E.Shard_adopted { node; _ } ->
            (E.App, step node)
        | E.Link_cut { src; _ } | E.Link_heal { src; _ } | E.Suspect { src; _ }
          ->
            (E.App, step src)
      in
      emit idx ev actor clock)
    events

let run ?nodes ?indices events =
  exec ~copy:true ?nodes ?indices events (fun idx ev actor clock ->
      { idx; ev; actor; clock })

let scan ?nodes ?indices events f =
  ignore
    (exec ~copy:false ?nodes ?indices events (fun idx _ actor clock ->
         f idx actor clock))
