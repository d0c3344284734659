open Bmx_util
module T = Trace_event

type track = Dsm | Gc | Net | Cleaner

let track_name = function
  | Dsm -> "dsm"
  | Gc -> "gc"
  | Net -> "net"
  | Cleaner -> "cleaner"

let all_tracks = [ Dsm; Gc; Net; Cleaner ]

(* ------------------------------------------------------------ families *)

type family =
  | Token_acquire_read
  | Token_acquire_write
  | Token_acquire_gc
  | Gc_pause
  | Msg of string

let family_name = function
  | Token_acquire_read -> "token_acquire.read"
  | Token_acquire_write -> "token_acquire.write"
  | Token_acquire_gc -> "token_acquire.gc"
  | Gc_pause -> "gc.pause"
  | Msg kind -> "msg." ^ kind

let family = function
  | T.Acquire_done { actor = T.Gc; _ } -> Some Token_acquire_gc
  | T.Acquire_done { tok = T.Read; _ } -> Some Token_acquire_read
  | T.Acquire_done { tok = T.Write; _ } -> Some Token_acquire_write
  | T.Gc_end _ -> Some Gc_pause
  | T.Msg_delivered { kind; _ } -> Some (Msg kind)
  | _ -> None

(* ------------------------------------------------------------- pairing *)

(* One open-interval table per begin/end pair; a begin event leaves
   [opened ts ev] under its key, the matching end event takes it back. *)
type 'a pairing = {
  opened : int -> T.t -> 'a;
  acq : (T.actor * Ids.Node.t * Ids.Uid.t * T.tok, 'a) Hashtbl.t;
  gc : (Ids.Node.t, 'a) Hashtbl.t;
  msg : (Ids.Node.t * Ids.Node.t * string * int, 'a) Hashtbl.t;
  down : (Ids.Node.t, 'a) Hashtbl.t;
  cut : (Ids.Node.t * Ids.Node.t, 'a) Hashtbl.t;
  suspect : (Ids.Node.t * Ids.Node.t, 'a) Hashtbl.t;
}

let pairing opened =
  {
    opened;
    acq = Hashtbl.create 32;
    gc = Hashtbl.create 8;
    msg = Hashtbl.create 64;
    down = Hashtbl.create 4;
    cut = Hashtbl.create 8;
    suspect = Hashtbl.create 8;
  }

type 'a step =
  | Began
  | Ended of 'a
  | Unmatched
  | Retransmitted of 'a
  | Unpaired

let begin_ p tbl key ts ev =
  Hashtbl.replace tbl key (p.opened ts ev);
  Began

(* [find]/[remove] rather than [find_opt]: the live tap runs this per
   event and must not allocate an option. *)
let end_ tbl key =
  match Hashtbl.find tbl key with
  | v ->
      Hashtbl.remove tbl key;
      Ended v
  | exception Not_found -> Unmatched

let step p ts ev =
  match ev with
  | T.Acquire_start { actor; node; uid; tok } ->
      begin_ p p.acq (actor, node, uid, tok) ts ev
  | T.Acquire_done { actor; node; uid; tok; _ } ->
      end_ p.acq (actor, node, uid, tok)
  | T.Gc_begin { node; _ } -> begin_ p p.gc node ts ev
  | T.Gc_end { node; _ } -> end_ p.gc node
  | T.Msg_sent { src; dst; kind; seq; _ } ->
      begin_ p p.msg (src, dst, kind, seq) ts ev
  | T.Msg_delivered { src; dst; kind; seq; _ } ->
      end_ p.msg (src, dst, kind, seq)
  | T.Msg_retransmit { src; dst; kind; seq; _ } -> (
      match Hashtbl.find p.msg (src, dst, kind, seq) with
      | v -> Retransmitted v
      | exception Not_found -> Unpaired)
  | T.Crash { node } -> begin_ p p.down node ts ev
  | T.Restart { node } -> end_ p.down node
  | T.Link_cut { src; dst } -> begin_ p p.cut (src, dst) ts ev
  | T.Link_heal { src; dst } -> end_ p.cut (src, dst)
  | T.Suspect { src; dst; on = true } -> begin_ p p.suspect (src, dst) ts ev
  | T.Suspect { src; dst; on = false } -> end_ p.suspect (src, dst)
  | _ -> Unpaired

let iter_open p f =
  let each tbl = Hashtbl.iter (fun _ v -> f v) tbl in
  each p.acq;
  each p.gc;
  each p.msg;
  each p.down;
  each p.cut;
  each p.suspect

(* --------------------------------------------------------------- spans *)

type t = {
  name : string;
  node : Ids.Node.t;
  track : track;
  ts : int;
  dur : int option;
  family : family option;
  args : (string * Json.t) list;
}

let tok_name = function T.Read -> "read" | T.Write -> "write"
let actor_name = function T.App -> "app" | T.Gc -> "gc"
let acquire_name tok = "acquire." ^ tok_name tok
let acquire_track = function T.App -> Dsm | T.Gc -> Gc
let gc_name group = if group then "gc.ggc" else "gc.bgc"

(* Cleaner traffic is interesting precisely because the paper runs it
   asynchronously (§4.3, §6); give it its own track. *)
let msg_track kind =
  match kind with "scion_message" | "stub_table" -> Cleaner | _ -> Net

(* What [of_iter] keeps in an open interval: the begin event, its
   time, and the transmissions of a message flight so far. *)
type opened = { start : int; first : T.t; mutable attempts : int }

let instant name node track ts args =
  { name; node; track; ts; dur = None; family = None; args }

(* The span an end event [ev] at [ts] closes.  [o] is the begin it
   matched; with none it is an instant marked ["unmatched"] and carries
   no family, so no consumer samples a latency from it. *)
let ended o ts ev =
  let span name node track args =
    match o with
    | Some o ->
        { name; node; track; ts = o.start; dur = Some (ts - o.start);
          family = family ev; args }
    | None ->
        instant name node track ts (("unmatched", Json.Bool true) :: args)
  in
  match ev with
  | T.Acquire_done { actor; node; uid; tok; addr_valid } ->
      span (acquire_name tok) node (acquire_track actor)
        [
          ("uid", Json.Int uid);
          ("actor", Json.String (actor_name actor));
          ("addr_valid", Json.Bool addr_valid);
        ]
  | T.Gc_end { node; group; live; reclaimed } ->
      let bunches =
        match o with
        | Some { first = T.Gc_begin { bunches; _ }; _ } -> List.length bunches
        | _ -> 0
      in
      span (gc_name group) node Gc
        [
          ("bunches", Json.Int bunches);
          ("live", Json.Int live);
          ("reclaimed", Json.Int reclaimed);
        ]
  | T.Msg_delivered { src; dst; kind; seq; rel } ->
      let attempts = match o with Some o -> o.attempts | None -> 1 in
      span ("msg." ^ kind) src (msg_track kind)
        [
          ("dst", Json.Int dst);
          ("seq", Json.Int seq);
          ("rel", Json.Bool rel);
          ("attempts", Json.Int attempts);
        ]
  | T.Restart { node } -> span "down" node Net []
  | T.Link_heal { src; dst } ->
      span "partition" src Net [ ("dst", Json.Int dst) ]
  | T.Suspect { src; dst; _ } ->
      span "suspect" src Net [ ("dst", Json.Int dst) ]
  | _ -> invalid_arg "Span.ended: not an end event"

(* A begin event whose end never came (message lost to a crash, trace
   truncated): an instant marked ["unfinished"]. *)
let unfinished o =
  let span name node track args =
    instant name node track o.start (("unfinished", Json.Bool true) :: args)
  in
  match o.first with
  | T.Acquire_start { actor; node; uid; tok } ->
      span (acquire_name tok) node (acquire_track actor)
        [ ("uid", Json.Int uid) ]
  | T.Gc_begin { node; group; _ } -> span (gc_name group) node Gc []
  | T.Msg_sent { src; dst; kind; seq; rel } ->
      span ("msg." ^ kind) src (msg_track kind)
        [ ("dst", Json.Int dst); ("seq", Json.Int seq); ("rel", Json.Bool rel) ]
  | T.Crash { node } -> span "down" node Net []
  | T.Link_cut { src; dst } ->
      span "partition" src Net [ ("dst", Json.Int dst) ]
  | T.Suspect { src; dst; _ } ->
      span "suspect" src Net [ ("dst", Json.Int dst) ]
  | _ -> invalid_arg "Span.unfinished: not a begin event"

(* Events outside any pair that still show on the timeline. *)
let lone ts ev =
  match ev with
  | T.Msg_retransmit { src; dst; kind; seq; attempt } ->
      Some
        (instant ("retransmit." ^ kind) src (msg_track kind) ts
           [
             ("dst", Json.Int dst);
             ("seq", Json.Int seq);
             ("attempt", Json.Int attempt);
           ])
  | T.Msg_suppressed { src; dst; kind; seq } ->
      Some
        (instant ("suppressed." ^ kind) dst (msg_track kind) ts
           [ ("src", Json.Int src); ("seq", Json.Int seq) ])
  | T.Msg_buffered { src; dst; kind; seq } ->
      Some
        (instant ("buffered." ^ kind) dst (msg_track kind) ts
           [ ("src", Json.Int src); ("seq", Json.Int seq) ])
  | T.Rvm_recover { node; dropped; lost } ->
      Some
        (instant "rvm.recover" node Net ts
           [ ("dropped", Json.Int dropped); ("lost", Json.Int lost) ])
  | T.Disk_fault { node; fault } ->
      Some (instant "disk.fault" node Net ts [ ("fault", Json.String fault) ])
  | _ -> None

let of_iter iter =
  let p = pairing (fun start first -> { start; first; attempts = 1 }) in
  let spans = ref [] in
  let emit s = spans := s :: !spans in
  iter (fun ts ev ->
      match (step p ts ev, ev) with
      | Began, _ -> ()
      | Ended o, _ -> emit (ended (Some o) ts ev)
      | Unmatched, _ -> emit (ended None ts ev)
      | Retransmitted o, T.Msg_retransmit { attempt; _ } ->
          o.attempts <- attempt;
          Option.iter emit (lone ts ev)
      | (Retransmitted _ | Unpaired), _ -> Option.iter emit (lone ts ev));
  iter_open p (fun o -> emit (unfinished o));
  List.sort (fun a b -> compare (a.ts, a.node, a.name) (b.ts, b.node, b.name))
    !spans
