open Bmx_util

type kind =
  | Token_request
  | Token_grant
  | Invalidate
  | Object_fetch
  | Scion_message
  | Stub_table
  | Addr_update
  | Reclaim_request
  | Reclaim_reply
  | Refcount_op
  | App_message

let kind_to_string = function
  | Token_request -> "token_request"
  | Token_grant -> "token_grant"
  | Invalidate -> "invalidate"
  | Object_fetch -> "object_fetch"
  | Scion_message -> "scion_message"
  | Stub_table -> "stub_table"
  | Addr_update -> "addr_update"
  | Reclaim_request -> "reclaim_request"
  | Reclaim_reply -> "reclaim_reply"
  | Refcount_op -> "refcount_op"
  | App_message -> "app_message"

let all_kinds =
  [
    Token_request; Token_grant; Invalidate; Object_fetch; Scion_message;
    Stub_table; Addr_update; Reclaim_request; Reclaim_reply; Refcount_op;
    App_message;
  ]

(* Wire attribution: every message kind belongs to exactly one component
   — [of_kind] is an exhaustive match, so an unmapped new kind is a
   build-time error, and the shard-scaling gate can say which
   component's traffic grows with what. *)
module Component = struct
  type t = Dsm | Gc_cleaner | Gc_bgc | Registry | Rvm | App

  let of_kind = function
    | Token_request | Token_grant | Invalidate | Object_fetch -> Dsm
    | Scion_message | Stub_table -> Gc_cleaner
    | Reclaim_request | Reclaim_reply | Refcount_op -> Gc_bgc
    | Addr_update -> Registry
    | App_message -> App
  (* Rvm never appears here: recoverable virtual memory is node-local
     (log + disk image); it is listed so reports show its wire share is
     zero by construction, not by omission. *)

  let to_string = function
    | Dsm -> "dsm"
    | Gc_cleaner -> "gc-cleaner"
    | Gc_bgc -> "gc-bgc"
    | Registry -> "registry"
    | Rvm -> "rvm"
    | App -> "app"

  let all = [ Dsm; Gc_cleaner; Gc_bgc; Registry; Rvm; App ]

  (* Dense index for per-shard accounting arrays (no hashing, no
     allocation on the per-message path). *)
  let index = function
    | Dsm -> 0
    | Gc_cleaner -> 1
    | Gc_bgc -> 2
    | Registry -> 3
    | Rvm -> 4
    | App -> 5

  let of_index = function
    | 0 -> Dsm
    | 1 -> Gc_cleaner
    | 2 -> Gc_bgc
    | 3 -> Registry
    | 4 -> Rvm
    | _ -> App

  let count = 6
end

let kind_index = function
  | Token_request -> 0
  | Token_grant -> 1
  | Invalidate -> 2
  | Object_fetch -> 3
  | Scion_message -> 4
  | Stub_table -> 5
  | Addr_update -> 6
  | Reclaim_request -> 7
  | Reclaim_reply -> 8
  | Refcount_op -> 9
  | App_message -> 10

(* ["net.<family>.<kind>"] for every kind, built once per family. *)
let per_kind family =
  let names = Array.make (List.length all_kinds) "" in
  List.iter
    (fun k -> names.(kind_index k) <- family ^ kind_to_string k)
    all_kinds;
  fun kind -> names.(kind_index kind)

(* ["net.comp.<family>.<component>"], likewise: the per-message
   accounting path must not build strings. *)
let per_component family =
  let names = Array.make Component.count "" in
  List.iter
    (fun c -> names.(Component.index c) <- family ^ Component.to_string c)
    Component.all;
  fun c -> names.(Component.index c)

let comp_bytes_key = per_component "net.comp.bytes."
let comp_msgs_key = per_component "net.comp.msgs."
let sent_key = per_kind "net.sent."
let bytes_key = per_kind "net.bytes."
let piggyback_key = per_kind "net.piggyback."
let delivered_key = per_kind "net.delivered."
let dropped_key = per_kind "net.dropped."
let duplicated_key = per_kind "net.duplicated."
let retransmit_key = per_kind "net.retransmit."
let down_dropped_key = per_kind "net.down_dropped."
let cut_dropped_key = per_kind "net.cut_dropped."
let coalesced_key = per_kind "net.coalesced."

(* The per-pair stream tables are keyed by one int per directed pair:
   node ids are small and non-negative, and a tuple key would cost an
   allocation on every message. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let pair_bits = 30

let pair src dst =
  if src < 0 || dst < 0 || dst lsr pair_bits <> 0 then
    invalid_arg "Net: node id out of range";
  (src lsl pair_bits) lor dst

let pair_src k = k lsr pair_bits
let pair_dst k = k land ((1 lsl pair_bits) - 1)

type 'p envelope = {
  src : Ids.Node.t;
  dst : Ids.Node.t;
  kind : kind;
  seq : int;
  rel : int;
  payload : 'p;
}

(* One message on the wire: the carrier's envelope and the riders that
   joined it after it was queued (see [send]).  Riders share the
   carrier's fate and are handed off right after it, in send order. *)
type 'p wire = {
  w_env : 'p envelope;
  mutable w_riders : 'p envelope list;  (* newest first *)
  w_at : int;  (* virtual time of the carrier's send *)
}

type fault = { drop : float; dup : float; rng : Rng.t }

(* A transmitted-but-unacknowledged reliable message awaiting its
   retransmission timeout. *)
type 'p unacked = {
  u_env : 'p envelope;
  u_bytes : int;
  mutable u_due : int;  (* virtual time of the next retransmission *)
  mutable u_interval : int;  (* current backoff interval *)
  mutable u_attempts : int;  (* transmissions so far, >= 1 *)
}

(* Receiver-side state of one reliable (src, dst) stream. *)
type 'p rstate = {
  mutable r_next : int;  (* next reliable index to hand to the handler *)
  r_buf : (int, 'p envelope) Hashtbl.t;  (* arrived ahead of a gap *)
}

type 'p t = {
  stats : Stats.registry;
  queue : 'p wire Queue.t;
  (* Per pair, the queued unreliable message a send may still ride:
     unduplicated, and removed when it leaves the queue. *)
  tails : 'p wire Pair_tbl.t;
  seqs : int ref Pair_tbl.t;
  faults : (kind, fault) Hashtbl.t;
  mutable handler : ('p envelope -> unit) option;
  mutable evlog : Trace_event.log option;
  mutable obs : Bmx_obs.Metrics.t option;
  (* The [obs] counter cells the per-message accounting bumps, fetched
     on first use (see [cell]). *)
  mutable cells : int ref array;
  (* Reliable-delivery layer (opt-in per kind). *)
  reliable : (kind, unit) Hashtbl.t;
  mutable rto : int;
  mutable rto_max : int;
  mutable max_attempts : int;
  mutable now : int;  (* virtual clock driving retransmission timers *)
  rseqs : int ref Pair_tbl.t;
  unacked_tbl : (Ids.Node.t * Ids.Node.t, 'p unacked list ref) Hashtbl.t;
  rstates : (Ids.Node.t * Ids.Node.t, 'p rstate) Hashtbl.t;
  down : (Ids.Node.t, unit) Hashtbl.t;
  (* Partition model: directed links whose transmissions blackhole, and
     the sender-side failure detector derived from them. *)
  cut : (Ids.Node.t * Ids.Node.t, unit) Hashtbl.t;
  suspect : (Ids.Node.t * Ids.Node.t, unit) Hashtbl.t;
  mutable suspect_after : int;
  (* Observer of virtual-time advance (the periodic sampler). *)
  mutable tick_hook : (int -> unit) option;
  (* Per-shard wire attribution: shard -> Component.index -> total.
     Grown on demand; counts logical sends (retransmissions are a
     transport artifact, not a routing decision). *)
  mutable shard_b : int array array;
  mutable shard_m : int array array;
  (* Lazily interned "<comp key>.s<shard>" metric names (bytes, msgs):
     the accounting path must not build strings. *)
  shard_keys : (int, string array * string array) Hashtbl.t;
}

let create ~stats () =
  {
    stats;
    queue = Queue.create ();
    tails = Pair_tbl.create 16;
    seqs = Pair_tbl.create 16;
    faults = Hashtbl.create 4;
    handler = None;
    evlog = None;
    obs = None;
    cells = [||];
    reliable = Hashtbl.create 4;
    rto = 4;
    rto_max = 64;
    max_attempts = 20;
    now = 0;
    rseqs = Pair_tbl.create 16;
    unacked_tbl = Hashtbl.create 16;
    rstates = Hashtbl.create 16;
    down = Hashtbl.create 4;
    cut = Hashtbl.create 8;
    suspect = Hashtbl.create 8;
    suspect_after = 6;
    tick_hook = None;
    shard_b = [||];
    shard_m = [||];
    shard_keys = Hashtbl.create 8;
  }

let stats t = t.stats
let set_handler t f = t.handler <- Some f
let set_evlog t l = t.evlog <- Some l

let set_backoff t ?rto ?rto_max ?max_attempts ?suspect_after () =
  let rto = Option.value ~default:t.rto rto in
  let rto_max = Option.value ~default:t.rto_max rto_max in
  let max_attempts = Option.value ~default:t.max_attempts max_attempts in
  let suspect_after = Option.value ~default:t.suspect_after suspect_after in
  if rto <= 0 || rto_max < rto || max_attempts < 1 || suspect_after < 1 then
    invalid_arg "Net.set_backoff: bad retransmission parameters";
  t.rto <- rto;
  t.rto_max <- rto_max;
  t.max_attempts <- max_attempts;
  t.suspect_after <- suspect_after

let set_reliable t ?(rto = 4) ?(rto_max = 64) ?(max_attempts = 20)
    ?(suspect_after = 6) kinds =
  set_backoff t ~rto ~rto_max ~max_attempts ~suspect_after ();
  Hashtbl.reset t.reliable;
  List.iter (fun k -> Hashtbl.replace t.reliable k ()) kinds

let backoff_ceiling t = t.rto_max
let suspect_after t = t.suspect_after

let now t = t.now
let is_down t node = Hashtbl.mem t.down node

(* Every event is built under [if logging t], so a run with the log off
   allocates none. *)
let logging t =
  match t.evlog with Some l -> Trace_event.enabled l | None -> false

let ev t e = match t.evlog with Some l -> Trace_event.record l e | None -> ()

let ev_sent t ~src ~dst ~kind ~seq ~rel =
  if logging t then
    ev t
      (Trace_event.Msg_sent { src; dst; kind = kind_to_string kind; seq; rel })

let ev_delivered t ~src ~dst ~kind ~seq ~rel =
  if logging t then
    ev t
      (Trace_event.Msg_delivered
         { src; dst; kind = kind_to_string kind; seq; rel })

(* ------------------------------------------------------------------ *)
(* Network partitions.  A cut is a {e directed} link property: while
   (src, dst) is cut every transmission from src to dst blackholes at
   delivery time — deterministic, unlike the probabilistic fault dice —
   and, for reliable traffic, the implicit ack of a delivered message
   blackholes when the {e reverse} link is cut (asymmetric partition).
   Cut links drop messages; they never forget them: reliable messages
   stay in the sender's retransmission buffer and land after heal. *)

(* Most runs cut no link: the guard spares them the tuple key a lookup
   would allocate. *)
let is_cut t ~src ~dst = Hashtbl.length t.cut > 0 && Hashtbl.mem t.cut (src, dst)

let reachable t a b =
  (not (Hashtbl.mem t.down a))
  && (not (Hashtbl.mem t.down b))
  && (not (is_cut t ~src:a ~dst:b))
  && not (is_cut t ~src:b ~dst:a)

(* The (src, dst) path is severed for reliable delivery: no ack can
   complete the round trip, whatever the sender does. *)
let severed t (src, dst) =
  Hashtbl.mem t.down dst || Hashtbl.mem t.down src
  || is_cut t ~src ~dst
  || is_cut t ~src:dst ~dst:src

let cut_link t ~src ~dst =
  if not (Hashtbl.mem t.cut (src, dst)) then begin
    Hashtbl.replace t.cut (src, dst) ();
    Stats.incr t.stats "net.cut.count";
    if logging t then ev t (Trace_event.Link_cut { src; dst })
  end

let heal_link t ~src ~dst =
  if Hashtbl.mem t.cut (src, dst) then begin
    Hashtbl.remove t.cut (src, dst);
    Stats.incr t.stats "net.heal.count";
    if logging t then ev t (Trace_event.Link_heal { src; dst })
  end

let cut_pairs t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.cut [] |> List.sort compare

let heal_all_links t =
  List.iter (fun (src, dst) -> heal_link t ~src ~dst) (cut_pairs t)

let partition t ~groups =
  List.iteri
    (fun i gi ->
      List.iteri
        (fun j gj ->
          if i <> j then
            List.iter
              (fun src -> List.iter (fun dst -> cut_link t ~src ~dst) gj)
              gi)
        groups)
    groups

let is_suspect t ~src ~dst = Hashtbl.mem t.suspect (src, dst)

let suspect_pairs t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.suspect [] |> List.sort compare

let suspect_transition t ~src ~dst ~on =
  Stats.incr t.stats "net.suspect_transitions";
  (match t.obs with
  | Some m -> Bmx_obs.Metrics.incr m ~node:src "net.suspect_transitions"
  | None -> ());
  if logging t then ev t (Trace_event.Suspect { src; dst; on })

let mark_suspect t (src, dst) =
  if not (Hashtbl.mem t.suspect (src, dst)) then begin
    Hashtbl.replace t.suspect (src, dst) ();
    suspect_transition t ~src ~dst ~on:true
  end

let clear_suspect t (src, dst) =
  if Hashtbl.mem t.suspect (src, dst) then begin
    Hashtbl.remove t.suspect (src, dst);
    suspect_transition t ~src ~dst ~on:false
  end

(* Advance a per-(src, dst) stream counter: the sequence numbers of
   every send, or the reliable-stream indices. *)
let next_in tbl key =
  match Pair_tbl.find tbl key with
  | r ->
      incr r;
      !r
  | exception Not_found ->
      Pair_tbl.add tbl key (ref 1);
      1

let rstate t key =
  match Hashtbl.find_opt t.rstates key with
  | Some rs -> rs
  | None ->
      let rs = { r_next = 1; r_buf = Hashtbl.create 4 } in
      Hashtbl.add t.rstates key rs;
      rs

let shard_row rows shard =
  if shard < Array.length rows then rows.(shard)
  else invalid_arg "Net: shard accounting row missing"

let ensure_shard_rows t shard =
  if shard >= Array.length t.shard_b then begin
    let n = max (shard + 1) (2 * Array.length t.shard_b) in
    let grow old =
      Array.init n (fun i ->
          if i < Array.length old then old.(i)
          else Array.make Component.count 0)
    in
    t.shard_b <- grow t.shard_b;
    t.shard_m <- grow t.shard_m
  end

let shard_metric_keys t shard =
  match Hashtbl.find_opt t.shard_keys shard with
  | Some ks -> ks
  | None ->
      let suffix = ".s" ^ string_of_int shard in
      let ks =
        ( Array.init Component.count (fun i ->
              comp_bytes_key (Component.of_index i) ^ suffix),
          Array.init Component.count (fun i ->
              comp_msgs_key (Component.of_index i) ^ suffix) )
      in
      Hashtbl.add t.shard_keys shard ks;
      ks

(* The per-shard series reach the metric registry as callback gauges
   over the dense rows, registered once per shard: a counter increment
   here would pay the continuous sampler's tap on every labelled send,
   and the shard label rides the hottest path in the system. *)
let register_shard_gauges t shard =
  match t.obs with
  | None -> ()
  | Some m ->
      if not (Hashtbl.mem t.shard_keys shard) then begin
        let bkeys, mkeys = shard_metric_keys t shard in
        for ci = 0 to Component.count - 1 do
          Bmx_obs.Metrics.gauge_fn m bkeys.(ci) (fun () ->
              (shard_row t.shard_b shard).(ci));
          Bmx_obs.Metrics.gauge_fn m mkeys.(ci) (fun () ->
              (shard_row t.shard_m shard).(ci))
        done
      end

(* One logical send routed via a registry shard: label the component
   series with the shard so a hot shard can't hide in a flat total.
   [msg] is false for a piggyback, which adds bytes but no message. *)
let shard_account t ~kind ~shard ~bytes ~msg =
  match shard with
  | None -> ()
  | Some shard ->
      if shard < 0 then invalid_arg "Net: negative shard label";
      ensure_shard_rows t shard;
      register_shard_gauges t shard;
      let ci = Component.index (Component.of_kind kind) in
      let brow = shard_row t.shard_b shard in
      brow.(ci) <- brow.(ci) + bytes;
      if msg then begin
        let mrow = shard_row t.shard_m shard in
        mrow.(ci) <- mrow.(ci) + 1
      end

(* A slot no registry cell ever occupies. *)
let no_cell = ref 0

(* The counter cell of [family] (0 messages, 1 bytes) for component
   index [ci], cluster-wide ([row] 0) or labelled with node [row - 1].
   It is fetched from the registry the first time it is bumped — when
   [Metrics.incr] would have registered it, so the sampler sees the
   same columns in the same order — and kept in [t.cells]. *)
let cell t m ~family ~row ci =
  let i = (((2 * row) + family) * Component.count) + ci in
  if i >= Array.length t.cells then begin
    let grown = Array.make (max (i + 1) (2 * Array.length t.cells)) no_cell in
    Array.blit t.cells 0 grown 0 (Array.length t.cells);
    t.cells <- grown
  end;
  let r = t.cells.(i) in
  if r != no_cell then r
  else begin
    let key =
      (if family = 0 then comp_msgs_key else comp_bytes_key)
        (Component.of_index ci)
    in
    let r =
      if row = 0 then Bmx_obs.Metrics.counter_cell m key
      else Bmx_obs.Metrics.counter_cell m ~node:(row - 1) key
    in
    t.cells.(i) <- r;
    r
  end

(* Bump the cluster-wide and the [src]-labelled counter of [family] for
   [kind]'s component. *)
let account_obs t ~src ~kind ~family by =
  match t.obs with
  | None -> ()
  | Some m ->
      let ci = Component.index (Component.of_kind kind) in
      let total = cell t m ~family ~row:0 ci in
      total := !total + by;
      let mine = cell t m ~family ~row:(src + 1) ci in
      mine := !mine + by

(* One message, and the bytes of one copy on the wire.  The
   per-(component, node) series feed the continuous sampler;
   cluster-wide totals ride along unlabelled. *)
let account_msg t ~src ~kind =
  Stats.incr t.stats (sent_key kind);
  Stats.incr t.stats "net.sent.total";
  account_obs t ~src ~kind ~family:0 1

let account_bytes t ~src ~kind ~bytes =
  Stats.add t.stats (bytes_key kind) bytes;
  Stats.add t.stats "net.bytes.total" bytes;
  account_obs t ~src ~kind ~family:1 bytes

(* Enqueue one copy of [w].  An unreliable copy counts as a message; a
   reliable one counts only its bytes (its logical send is counted once,
   by [send]). *)
let enqueue t w ~bytes =
  let env = w.w_env in
  if env.rel = 0 then account_msg t ~src:env.src ~kind:env.kind;
  account_bytes t ~src:env.src ~kind:env.kind ~bytes;
  Queue.add w t.queue

(* Put one copy of [env] on the wire, rolling the fault dice: first sends
   and retransmissions alike.  Returns the message when exactly one copy
   was queued: a dropped message is gone, and a duplicated one takes no
   riders, since each copy would hand them off again. *)
let transmit t env ~bytes =
  let w = { w_env = env; w_riders = []; w_at = t.now } in
  match Hashtbl.find_opt t.faults env.kind with
  | Some { drop; dup; rng } ->
      if Rng.float rng 1.0 < drop then begin
        Stats.incr t.stats (dropped_key env.kind);
        Stats.incr t.stats "net.dropped.total";
        None
      end
      else begin
        enqueue t w ~bytes;
        if Rng.float rng 1.0 < dup then begin
          Stats.incr t.stats (duplicated_key env.kind);
          Stats.incr t.stats "net.duplicated.total";
          enqueue t w ~bytes;
          None
        end
        else Some w
      end
  | None ->
      enqueue t w ~bytes;
      Some w

(* The queued message an unreliable send of [kind] on the pair [key]
   rides: the pair's tail, when it has the same kind, was sent at this
   virtual instant, and is still the last thing stamped on the pair. *)
let carrier t key kind =
  match Pair_tbl.find t.tails key with
  | w when w.w_env.kind = kind && w.w_at = t.now -> (
      let last = match w.w_riders with r :: _ -> r | [] -> w.w_env in
      match Pair_tbl.find t.seqs key with
      | stamped when last.seq = !stamped -> Some w
      | _ | (exception Not_found) -> None)
  | _ | (exception Not_found) -> None

(* [w] leaves the queue (delivered or purged): nothing may join it. *)
let close t w =
  let key = pair w.w_env.src w.w_env.dst in
  match Pair_tbl.find t.tails key with
  | tail -> if tail == w then Pair_tbl.remove t.tails key
  | exception Not_found -> ()

let send t ~src ~dst ~kind ?(bytes = 64) ?shard payload =
  let key = pair src dst in
  let reliable = Hashtbl.mem t.reliable kind in
  let ride = if reliable then None else carrier t key kind in
  shard_account t ~kind ~shard ~bytes ~msg:(Option.is_none ride);
  let seq = next_in t.seqs key in
  ev_sent t ~src ~dst ~kind ~seq ~rel:reliable;
  match ride with
  | Some w ->
      (* A rider: its own seq, event, handler call and bytes, but no
         wire message of its own, and no dice — it shares the carrier's
         fate. *)
      w.w_riders <- { src; dst; kind; seq; rel = 0; payload } :: w.w_riders;
      Stats.incr t.stats (coalesced_key kind);
      Stats.incr t.stats "net.coalesced.total";
      account_bytes t ~src ~kind ~bytes
  | None -> (
      let rel = if reliable then next_in t.rseqs key else 0 in
      let env = { src; dst; kind; seq; rel; payload } in
      if reliable then begin
        (* One logical send, however many transmissions it takes. *)
        account_msg t ~src ~kind;
        let u =
          {
            u_env = env;
            u_bytes = bytes;
            u_due = t.now + t.rto;
            u_interval = t.rto;
            u_attempts = 1;
          }
        in
        match Hashtbl.find_opt t.unacked_tbl (src, dst) with
        | Some r -> r := !r @ [ u ]
        | None -> Hashtbl.add t.unacked_tbl (src, dst) (ref [ u ])
      end;
      match transmit t env ~bytes with
      | Some w when not reliable -> Pair_tbl.replace t.tails key w
      | Some _ | None -> ())

let record_rpc t ~src ~dst ~kind ?(bytes = 64) ?shard () =
  (* Synchronous exchange executed inline by the caller; it overtakes
     any queued background messages on the (src, dst) stream, so it gets
     its own event kind rather than a sent/delivered pair.  An RPC is a
     round trip, so a cut in either direction makes it time out — the
     caller sees the failure immediately instead of a silent half-run. *)
  if is_cut t ~src ~dst || is_cut t ~src:dst ~dst:src then begin
    Stats.incr t.stats "net.rpc_unreachable";
    failwith
      (Printf.sprintf "Net.record_rpc: link %d-%d cut (%s)" src dst
         (kind_to_string kind))
  end;
  shard_account t ~kind ~shard ~bytes ~msg:true;
  let seq = next_in t.seqs (pair src dst) in
  if logging t then
    ev t (Trace_event.Rpc { src; dst; kind = kind_to_string kind; seq });
  account_msg t ~src ~kind;
  account_bytes t ~src ~kind ~bytes

let record_piggyback t ~src ~kind ~bytes ?shard () =
  shard_account t ~kind ~shard ~bytes ~msg:false;
  Stats.incr t.stats (piggyback_key kind);
  Stats.add t.stats "net.bytes.piggyback" bytes;
  account_bytes t ~src ~kind ~bytes

(* Cumulative acknowledgement: everything on the (src, dst) stream up to
   reliable index [upto] has been handed to the handler; retire the
   sender's retransmission state for it.  Acks are modeled as
   instantaneous control traffic (they carry no payload and the layer
   only needs them eventually; an ack loss is indistinguishable from a
   late ack, which the duplicate suppression already absorbs). *)
let ack t ~src ~dst ~upto =
  match Hashtbl.find_opt t.unacked_tbl (src, dst) with
  | None -> ()
  | Some r ->
      let keep, acked = List.partition (fun u -> u.u_env.rel > upto) !r in
      if acked <> [] then begin
        r := keep;
        (* An ack is proof of a live round trip: the failure detector
           stands down, and anything still outstanding on the pair is
           re-armed at the base timeout for a prompt post-heal flush. *)
        if Hashtbl.mem t.suspect (src, dst) then begin
          clear_suspect t (src, dst);
          List.iter
            (fun u ->
              u.u_interval <- t.rto;
              u.u_due <- t.now)
            keep
        end;
        Stats.add t.stats "net.rel.acked" (List.length acked);
        match t.obs with
        | None -> ()
        | Some m ->
            (* Transmissions it took to land each reliable message — the
               retransmit-epoch cost in one histogram. *)
            List.iter
              (fun u ->
                Bmx_obs.Metrics.observe m ~node:src "net.rel.attempts"
                  (float_of_int u.u_attempts))
              acked
      end

let handoff t env =
  let handler =
    match t.handler with
    | Some h -> h
    | None -> failwith "Net.step: no handler installed"
  in
  Stats.incr t.stats (delivered_key env.kind);
  ev_delivered t ~src:env.src ~dst:env.dst ~kind:env.kind ~seq:env.seq
    ~rel:(env.rel > 0);
  handler env

let deliver t env =
  if Hashtbl.mem t.down env.dst then begin
    (* The destination host is dead: the message evaporates.  Reliable
       messages stay in the sender's retransmission buffer and are
       retried when (if) the node returns. *)
    Stats.incr t.stats (down_dropped_key env.kind);
    Stats.incr t.stats "net.down_dropped.total"
  end
  else if is_cut t ~src:env.src ~dst:env.dst then begin
    (* The directed link is cut: the transmission blackholes.  As with a
       dead destination, reliable messages survive in the sender's
       retransmission buffer and land after heal. *)
    Stats.incr t.stats (cut_dropped_key env.kind);
    Stats.incr t.stats "net.cut_dropped.total"
  end
  else if env.rel = 0 then handoff t env
  else begin
    let rs = rstate t (env.src, env.dst) in
    if env.rel < rs.r_next || Hashtbl.mem rs.r_buf env.rel then begin
      (* Duplicate (fault-injected copy or spurious retransmission). *)
      Stats.incr t.stats "net.rel.suppressed";
      if logging t then
        ev t
          (Trace_event.Msg_suppressed
             {
               src = env.src;
               dst = env.dst;
               kind = kind_to_string env.kind;
               seq = env.seq;
             })
    end
    else if env.rel > rs.r_next then begin
      (* Ahead of a gap (an earlier copy was dropped): hold it so the
         handler observes per-pair FIFO in send order. *)
      Hashtbl.add rs.r_buf env.rel env;
      Stats.incr t.stats "net.rel.buffered";
      if logging t then
        ev t
          (Trace_event.Msg_buffered
             {
               src = env.src;
               dst = env.dst;
               kind = kind_to_string env.kind;
               seq = env.seq;
             })
    end
    else begin
      handoff t env;
      rs.r_next <- rs.r_next + 1;
      let rec flush () =
        match Hashtbl.find_opt rs.r_buf rs.r_next with
        | Some held ->
            Hashtbl.remove rs.r_buf rs.r_next;
            handoff t held;
            rs.r_next <- rs.r_next + 1;
            flush ()
        | None -> ()
      in
      flush ()
    end;
    (* Only contiguously delivered prefixes are acknowledged: a crash of
       the receiver can lose buffered-but-unacked messages, never acked
       ones.  When the reverse link is cut (asymmetric partition) the
       payload was handed off but the ack blackholes: the sender keeps
       retransmitting, the receiver suppresses the duplicates, and the
       ack finally lands on the first post-heal copy. *)
    if is_cut t ~src:env.dst ~dst:env.src then
      Stats.incr t.stats "net.rel.ack_blackholed"
    else ack t ~src:env.src ~dst:env.dst ~upto:(rs.r_next - 1)
  end

(* Hand off a wire message: the carrier, then its riders in send order.
   Each payload meets the carrier's fate on its own account, so one lost
   with it counts once in the down or cut rows. *)
let deliver_wire t w =
  close t w;
  deliver t w.w_env;
  List.iter (deliver t) (List.rev w.w_riders)

let step t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some w ->
      deliver_wire t w;
      true

(* ------------------------------------------------------------------ *)
(* Out-of-global-order delivery for the schedule explorer.  The only
   ordering guarantee the GC design relies on is FIFO per (src, dst)
   pair (§6.1), so any interleaving that delivers each pair's messages
   in queue order is a legal network behaviour.  [deliverable_pairs]
   enumerates the choice points; [step_pair] commits one choice. *)

let deliverable_pairs t =
  let seen = Hashtbl.create 8 in
  Queue.fold
    (fun acc { w_env = env; _ } ->
      let key = (env.src, env.dst) in
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.add seen key ();
        key :: acc
      end)
    [] t.queue
  |> List.rev

let step_pair t ~src ~dst =
  (* Remove the oldest queued message of the pair, preserving the
     relative order of everything else. *)
  let all = List.of_seq (Queue.to_seq t.queue) in
  let rec split acc = function
    | [] -> None
    | w :: rest
      when Ids.Node.equal w.w_env.src src && Ids.Node.equal w.w_env.dst dst ->
        Some (w, List.rev_append acc rest)
    | w :: rest -> split (w :: acc) rest
  in
  match split [] all with
  | None -> false
  | Some (w, rest) ->
      Queue.clear t.queue;
      List.iter (fun e -> Queue.add e t.queue) rest;
      deliver_wire t w;
      true

let drain t =
  let rec go n = if step t then go (n + 1) else n in
  go 0

let pending t = Queue.length t.queue

(* ------------------------------------------------------------------ *)
(* Retransmission clock. *)

let unacked_count t =
  Hashtbl.fold (fun _ r acc -> acc + List.length !r) t.unacked_tbl 0

let set_metrics t m =
  t.obs <- Some m;
  t.cells <- [||];
  (* Shards labelled before the registry was attached registered no
     gauges; catch them up now. *)
  for shard = 0 to Array.length t.shard_b - 1 do
    register_shard_gauges t shard
  done;
  (* Occupancy levels read lazily at snapshot time — no hot-path cost. *)
  Bmx_obs.Metrics.gauge_fn m "net.unacked_reliable" (fun () -> unacked_count t);
  Bmx_obs.Metrics.gauge_fn m "net.pending" (fun () -> Queue.length t.queue);
  Bmx_obs.Metrics.gauge_fn m "net.vclock" (fun () -> t.now)

let set_tick_hook t f = t.tick_hook <- Some f

let tick ?(dt = 1) t =
  if dt <= 0 then invalid_arg "Net.tick: dt must be positive";
  t.now <- t.now + dt;
  (match t.tick_hook with None -> () | Some f -> f t.now);
  let retransmitted = ref 0 in
  let retransmit_one u ~interval =
    u.u_attempts <- u.u_attempts + 1;
    u.u_interval <- interval;
    u.u_due <- t.now + interval;
    incr retransmitted;
    Stats.incr t.stats (retransmit_key u.u_env.kind);
    Stats.incr t.stats "net.retransmit.total";
    if logging t then
      ev t
        (Trace_event.Msg_retransmit
           {
             src = u.u_env.src;
             dst = u.u_env.dst;
             kind = kind_to_string u.u_env.kind;
             seq = u.u_env.seq;
             attempt = u.u_attempts;
           });
    (* Retransmissions carry the original sequence number: the
       receivers' logical clocks compare against send time, and
       the reorder buffer restores handler-visible FIFO. *)
    ignore (transmit t u.u_env ~bytes:u.u_bytes)
  in
  Hashtbl.iter
    (fun key r ->
      (* While a pair is suspect only its oldest overdue message is
         probed, at the backoff ceiling — a partitioned destination costs
         one transmission per [rto_max] however deep the backlog. *)
      let probe_sent = ref false in
      r :=
        List.filter
          (fun u ->
            if u.u_due > t.now then true
            else if Hashtbl.mem t.suspect key then begin
              if !probe_sent then u.u_due <- t.now + t.rto_max
              else begin
                probe_sent := true;
                Stats.incr t.stats "net.rel.probes";
                retransmit_one u ~interval:t.rto_max
              end;
              true
            end
            else if severed t key && u.u_attempts >= t.suspect_after then begin
              (* Repeated timeouts against a severed path: stop spinning,
                 switch to the slow probe.  Suspect messages are never
                 abandoned — they deliver after heal or restart. *)
              mark_suspect t key;
              probe_sent := true;
              Stats.incr t.stats "net.rel.probes";
              retransmit_one u ~interval:t.rto_max;
              true
            end
            else if u.u_attempts >= t.max_attempts && not (severed t key)
            then begin
              (* Abandonment is for sustained loss on a live path only: a
                 severed path is the failure detector's business whatever
                 the attempt count, even when [max_attempts] is below
                 [suspect_after] — reliable messages to a cut or down
                 destination are never abandoned. *)
              Stats.incr t.stats "net.rel.abandoned";
              false
            end
            else begin
              (* Exponential backoff, capped at [rto_max]. *)
              retransmit_one u ~interval:(min (u.u_interval * 2) t.rto_max);
              true
            end)
          !r)
    t.unacked_tbl;
  !retransmitted

let settle ?(max_rounds = 10_000) t =
  let delivered = ref (drain t) in
  let next_due () =
    (* Pairs whose path is severed (down node or cut link in either
       direction) can make no progress however far the clock jumps:
       ignore them so [settle] terminates during a partition instead of
       probing it [max_rounds] times. *)
    Hashtbl.fold
      (fun key r acc ->
        if severed t key then acc
        else
          List.fold_left
            (fun acc u ->
              match acc with
              | None -> Some u.u_due
              | Some d -> Some (min d u.u_due))
            acc !r)
      t.unacked_tbl None
  in
  let rounds = ref 0 in
  let rec go () =
    if unacked_count t > 0 && !rounds < max_rounds then begin
      incr rounds;
      match next_due () with
      | None -> ()
      | Some due ->
          (* Jump the virtual clock straight to the next deadline. *)
          ignore (tick ~dt:(max 1 (due - t.now)) t);
          delivered := !delivered + drain t;
          go ()
    end
  in
  go ();
  !delivered

(* ------------------------------------------------------------------ *)
(* Node crash/restart.  Volatile per-node channel state dies with the
   node: queued messages from/to it, its retransmission buffer, and its
   reorder buffers.  Per-pair sequence counters and the receivers'
   delivery cursors are stable (tiny, O(nodes^2) integers journalled with
   the RVM image), the standard at-most-once assumption that lets a
   stream resume across a crash without an epoch handshake. *)

let set_down t node =
  if not (Hashtbl.mem t.down node) then begin
    Hashtbl.replace t.down node ();
    Stats.incr t.stats "net.crash.count";
    (* In-flight messages involving the node are lost, riders with their
       carrier, each payload counted once. *)
    let keep =
      Queue.fold
        (fun acc w ->
          if Ids.Node.equal w.w_env.src node || Ids.Node.equal w.w_env.dst node
          then begin
            close t w;
            Stats.add t.stats "net.crash.purged_in_flight"
              (1 + List.length w.w_riders);
            acc
          end
          else w :: acc)
        [] t.queue
    in
    Queue.clear t.queue;
    List.iter (fun e -> Queue.add e t.queue) (List.rev keep);
    (* The node's own retransmission buffer is volatile, and so is its
       failure detector's opinion of its peers. *)
    Hashtbl.iter
      (fun (src, _) r ->
        if Ids.Node.equal src node && !r <> [] then begin
          Stats.add t.stats "net.crash.lost_unacked" (List.length !r);
          r := []
        end)
      t.unacked_tbl;
    List.iter
      (fun (src, dst) ->
        if Ids.Node.equal src node then clear_suspect t (src, dst))
      (suspect_pairs t);
    (* Reorder buffers touching the node are volatile; roll the crashed
       sender's stream counters back to each receiver's contiguous
       high-water mark so post-restart sends resume gap-free. *)
    Hashtbl.iter
      (fun (src, dst) rs ->
        if Ids.Node.equal src node || Ids.Node.equal dst node then
          Hashtbl.reset rs.r_buf)
      t.rstates;
    Pair_tbl.iter
      (fun k r ->
        let src = pair_src k and dst = pair_dst k in
        if Ids.Node.equal src node then
          let delivered =
            match Hashtbl.find_opt t.rstates (src, dst) with
            | Some rs -> rs.r_next - 1
            | None -> 0
          in
          r := delivered)
      t.rseqs
  end

let set_up t node = Hashtbl.remove t.down node

let down_nodes t =
  Hashtbl.fold (fun n () acc -> n :: acc) t.down [] |> List.sort Ids.Node.compare

let current_seq t ~src ~dst =
  match Pair_tbl.find t.seqs (pair src dst) with
  | r -> !r
  | exception Not_found -> 0
let set_fault t ~kind ~drop ~dup ~rng = Hashtbl.replace t.faults kind { drop; dup; rng }
let clear_faults t = Hashtbl.reset t.faults
let sent t kind = Stats.get t.stats (sent_key kind)
let coalesced t kind = Stats.get t.stats (coalesced_key kind)
let total_messages t = Stats.get t.stats "net.sent.total"
let total_coalesced t = Stats.get t.stats "net.coalesced.total"
let total_bytes t = Stats.get t.stats "net.bytes.total"

let component_bytes t comp =
  List.fold_left
    (fun acc k ->
      if Component.of_kind k = comp then
        acc + Stats.get t.stats (bytes_key k)
      else acc)
    0 all_kinds

let shard_rows_to_list rows =
  Array.to_list rows
  |> List.mapi (fun shard row ->
         let comps =
           List.filter_map
             (fun c ->
               let v = row.(Component.index c) in
               if v > 0 then Some (c, v) else None)
             Component.all
         in
         (shard, comps))
  |> List.filter (fun (_, comps) -> comps <> [])

let shard_components t = shard_rows_to_list t.shard_b
let shard_component_msgs t = shard_rows_to_list t.shard_m

(* ------------------------------------------------------------------ *)
(* Scaling gate over a node sweep. *)

type scaling_point = {
  sp_nodes : int;
  sp_bytes : (Component.t * int) list;
  sp_shards : (int * (Component.t * int) list) list;
}

let scaling_point t ~nodes =
  {
    sp_nodes = nodes;
    sp_bytes = List.map (fun c -> (c, component_bytes t c)) Component.all;
    sp_shards = shard_components t;
  }

type scaling_row = {
  sr_component : Component.t;
  sr_shard : int option;
      (* [None]: the component's cluster-wide total.  [Some s]: the
         hottest-shard row — s is the shard carrying the most bytes of
         this component at the widest sweep point. *)
  sr_first_per_node : float;
  sr_last_per_node : float;
  sr_growth : float;
  sr_ok : bool;
  sr_note : string;
}

let scaling_check ?(floor = 1024) ?(bound = 1.5) points =
  if List.length points < 3 then
    invalid_arg "Net.scaling_check: need at least 3 sweep points";
  let points =
    List.sort (fun a b -> compare a.sp_nodes b.sp_nodes) points
  in
  let first = List.hd points in
  let last = List.nth points (List.length points - 1) in
  if first.sp_nodes >= last.sp_nodes then
    invalid_arg "Net.scaling_check: sweep points must span distinct node counts";
  let bytes_of comps c =
    match List.assoc_opt c comps with Some b -> b | None -> 0
  in
  let per_node b p = float_of_int b /. float_of_int p.sp_nodes in
  let growth b0 b1 =
    let per0 = per_node b0 first in
    if per0 > 0. then per_node b1 last /. per0 else 0.
  in
  let row c shard b0 b1 (ok, note) =
    {
      sr_component = c;
      sr_shard = shard;
      sr_first_per_node = per_node b0 first;
      sr_last_per_node = per_node b1 last;
      sr_growth = growth b0 b1;
      sr_ok = ok;
      sr_note = note;
    }
  in
  let rows =
    List.map
      (fun c ->
        let b0 = bytes_of first.sp_bytes c and b1 = bytes_of last.sp_bytes c in
        row c None b0 b1
          (match c with
          | Component.Gc_cleaner ->
              (* Cleaner traffic is O(sharing): widening the sweep adds
                 cross-node references, so its total must grow — but it is
                 exempt from the per-node bound. *)
              if b1 <= floor && b0 <= floor then
                (false, "cleaner traffic below floor — sweep saw no sharing")
              else if b1 > b0 then (true, "grows with sharing (exempt from bound)")
              else (false, "cleaner traffic failed to grow with sharing")
          | _ ->
              if b1 <= floor then (true, "below floor (skipped)")
              else if growth b0 b1 <= bound then (true, "per-node traffic bounded")
              else (false, "per-node traffic grows with N — superlinear total")))
      Component.all
  in
  (* Hottest-shard rows: when the sweep carries per-shard attribution at
     both ends, a component's flat total is not enough — one overloaded
     shard can absorb the growth while the sum stays bounded.  For each
     component with shard data, gate the single hottest shard's per-node
     traffic by the same bound.  The cleaner keeps its exemption. *)
  let shard_rows =
    if first.sp_shards = [] || last.sp_shards = [] then []
    else
      List.filter_map
        (fun c ->
          if c = Component.Gc_cleaner then None
          else
            let hottest =
              List.fold_left
                (fun acc (s, comps) ->
                  let b = bytes_of comps c in
                  match acc with
                  | Some (_, best) when best >= b -> acc
                  | _ -> if b > 0 then Some (s, b) else acc)
                None last.sp_shards
            in
            match hottest with
            | None -> None
            | Some (s, b1) ->
                if b1 <= floor then None
                else
                  let b0 =
                    match List.assoc_opt s first.sp_shards with
                    | None -> 0
                    | Some comps -> bytes_of comps c
                  in
                  let ok = per_node b0 first > 0. && growth b0 b1 <= bound in
                  Some
                    (row c (Some s) b0 b1
                       ( ok,
                         if ok then "hottest shard bounded"
                         else if per_node b0 first = 0. then
                           "hottest shard absent at first point — \
                            shard layout changed across the sweep"
                         else "hottest shard's per-node traffic grows with N" )))
        Component.all
  in
  let rows = rows @ shard_rows in
  (rows, List.for_all (fun r -> r.sr_ok) rows)
