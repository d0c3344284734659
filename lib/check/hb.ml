open Bmx_util
module E = Trace_event

type clock = int array

let leq a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let get c i = if i < Array.length c then c.(i) else 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    if get a i > get b i then ok := false
  done;
  !ok

let join ~into src =
  for i = 0 to Array.length src - 1 do
    if src.(i) > into.(i) then into.(i) <- src.(i)
  done

let node_span iter =
  let m = ref 0 in
  iter (fun e -> List.iter (fun n -> m := Int.max !m n) (E.nodes e));
  !m + 1

let gc_kind = function
  | "scion_message" | "stub_table" | "reclaim_request" | "reclaim_reply"
  | "refcount_op" ->
      true
  | _ -> false

type t = {
  nodes : int;
  (* Application clocks: only App-classified events increment these. *)
  c : clock array;
  (* GC-side clocks: what each node's collector has observed.  These
     absorb application clocks and GC message edges but never flow back
     into [c] — that asymmetry IS the non-interference statement. *)
  g : clock array;
  (* Message-edge snapshots, keyed by send.  Sequence numbers are
     per-(src, dst) stream and strictly increasing across kinds (the
     FIFO lint enforces this), so (src, dst, seq) identifies the send.
     The snapshot is dropped at first delivery: clocks only grow, so a
     duplicate delivery joining nothing is a no-op — the edge is already
     absorbed. *)
  snap : (int, clock) Hashtbl.t;
  (* Grant-edge snapshots, keyed (requester, uid). *)
  grant : (int, clock) Hashtbl.t;
  (* Invalidation accumulator per uid: clocks of every reader
     invalidated since the last write grant. *)
  acc : (int, clock) Hashtbl.t;
  (* Actor of the in-flight acquire per uid (acquires are synchronous),
     and tokens currently held by the GC, keyed (node, uid). *)
  pending : (int, E.actor) Hashtbl.t;
  held_by_gc : (int, unit) Hashtbl.t;
  (* Timestamp of the last stepped event: a row of [c] or [g]. *)
  mutable ts : clock;
}

let create ~nodes =
  let nodes = Int.max nodes 1 in
  let clocks () = Array.init nodes (fun _ -> Array.make nodes 0) in
  {
    nodes;
    c = clocks ();
    g = clocks ();
    snap = Hashtbl.create 1024;
    grant = Hashtbl.create 64;
    acc = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    held_by_gc = Hashtbl.create 16;
    ts = [||];
  }

let timestamp t = t.ts

(* One int key for a node id (below [t.nodes]) and any int, so keyed
   lookups build no tuple. *)
let key t node x = (x * t.nodes) + node

(* App event at [n]: bump program order; the timestamp is C(n). *)
let app t n =
  let cn = t.c.(n) in
  cn.(n) <- cn.(n) + 1;
  t.ts <- cn;
  E.App

(* Gc event at [n]: C(n) flows into G(n), which is the timestamp. *)
let gc t n =
  join ~into:t.g.(n) t.c.(n);
  t.ts <- t.g.(n);
  E.Gc

let by actor t n = match actor with E.App -> app t n | E.Gc -> gc t n
let by_kind kind t n = if gc_kind kind then gc t n else app t n

let pending_actor t uid =
  match Hashtbl.find t.pending uid with
  | a -> a
  | exception Not_found -> E.App

(* Joins the snapshot stored under [k], if any, into [into] and drops
   it. *)
let absorb tbl k ~into =
  match Hashtbl.find tbl k with
  | s ->
      join ~into s;
      Hashtbl.remove tbl k
  | exception Not_found -> ()

(* Stores a private copy of the timestamp just taken: later steps grow
   the row it views. *)
let snapshot t tbl k = Hashtbl.replace tbl k (Array.copy t.ts)

let accumulator t uid =
  match Hashtbl.find t.acc uid with
  | a -> a
  | exception Not_found ->
      let a = Array.make t.nodes 0 in
      Hashtbl.add t.acc uid a;
      a

let step t ev =
  match ev with
  | E.Acquire_start { actor; node; uid; _ } ->
      Hashtbl.replace t.pending uid actor;
      by actor t node
  | E.Acquire_done { actor = E.App; node; uid; tok; _ } ->
      Hashtbl.remove t.pending uid;
      absorb t.grant (key t node uid) ~into:t.c.(node);
      if tok = E.Write then absorb t.acc uid ~into:t.c.(node);
      app t node
  | E.Acquire_done { actor = E.Gc; node; uid; _ } ->
      Hashtbl.remove t.pending uid;
      Hashtbl.replace t.held_by_gc (key t node uid) ();
      absorb t.grant (key t node uid) ~into:t.g.(node);
      gc t node
  | E.Release { node; uid } ->
      let k = key t node uid in
      if Hashtbl.mem t.held_by_gc k then begin
        Hashtbl.remove t.held_by_gc k;
        gc t node
      end
      else app t node
  | E.Grant_sent { granter; requester; uid; _ } ->
      let actor = by (pending_actor t uid) t granter in
      snapshot t t.grant (key t requester uid);
      actor
  | E.Hook_ssp { granter; uid; _ } -> by (pending_actor t uid) t granter
  | E.Invalidate { src; dst; uid } -> (
      match pending_actor t uid with
      | E.App ->
          (* Synchronous exchange: src and dst merge, and the
             invalidated reader's clock feeds the accumulator the next
             write grant will join. *)
          ignore (app t src);
          join ~into:t.c.(dst) t.c.(src);
          join ~into:t.c.(src) t.c.(dst);
          join ~into:(accumulator t uid) t.c.(dst);
          E.App
      | E.Gc ->
          ignore (gc t src);
          join ~into:t.g.(dst) t.g.(src);
          E.Gc)
  | E.Msg_sent { src; dst; kind; seq; _ } ->
      let actor = by_kind kind t src in
      snapshot t t.snap (key t dst (key t src seq));
      actor
  | E.Msg_delivered { src; dst; kind; seq; _ } ->
      let k = key t dst (key t src seq) in
      if gc_kind kind then begin
        absorb t.snap k ~into:t.g.(dst);
        gc t dst
      end
      else begin
        absorb t.snap k ~into:t.c.(dst);
        app t dst
      end
  | E.Rpc { src; dst; kind; _ } ->
      if gc_kind kind then begin
        ignore (gc t src);
        join ~into:t.g.(dst) t.g.(src);
        join ~into:t.g.(dst) t.c.(dst);
        join ~into:t.g.(src) t.g.(dst);
        E.Gc
      end
      else begin
        ignore (app t src);
        join ~into:t.c.(dst) t.c.(src);
        join ~into:t.c.(src) t.c.(dst);
        E.App
      end
  | E.Msg_retransmit { src; kind; _ } ->
      (* The original send's snapshot already carries the edge. *)
      by_kind kind t src
  | E.Msg_suppressed { dst; kind; _ } | E.Msg_buffered { dst; kind; _ } ->
      by_kind kind t dst
  | E.Gc_begin { node; _ } | E.Gc_end { node; _ } -> gc t node
  | E.Tables_processed { at; _ } -> gc t at
  | E.Read_obs { actor; node; _ } | E.Write_obs { actor; node; _ } ->
      by actor t node
  | E.Updates_applied { node; _ }
  | E.Forward_due { node; _ }
  | E.Crash { node }
  | E.Restart { node }
  | E.Owner_adopted { node; _ }
  | E.Disk_fault { node; _ }
  | E.Rvm_recover { node; _ }
  | E.Bunch_verified { node; _ }
  | E.Shard_alloc { node; _ }
  | E.Shard_adopted { node; _ } ->
      app t node
  | E.Copyset_forward { src; _ }
  | E.Link_cut { src; _ }
  | E.Link_heal { src; _ }
  | E.Suspect { src; _ } ->
      app t src
