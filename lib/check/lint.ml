open Bmx_util
module E = Trace_event
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store

type rule =
  | Gc_acquired_token
  | Invariant1
  | Invariant2
  | Invariant3
  | Fifo_order
  | Reliable_fifo
  | Dead_node_activity
  | Forwarder_cycle
  | Incomplete_trace
  | Split_brain_ownership
  | Partition_quarantine
  | Checksum_recovery
  | Shard_ownership

type violation = { rule : rule; at : int; vnode : int; detail : string }

let rule_to_string = function
  | Gc_acquired_token -> "gc-acquired-token"
  | Invariant1 -> "invariant-1"
  | Invariant2 -> "invariant-2"
  | Invariant3 -> "invariant-3"
  | Fifo_order -> "fifo-order"
  | Reliable_fifo -> "reliable-fifo"
  | Dead_node_activity -> "dead-node-activity"
  | Forwarder_cycle -> "forwarder-cycle"
  | Incomplete_trace -> "incomplete-trace"
  | Split_brain_ownership -> "split-brain-ownership"
  | Partition_quarantine -> "partition-quarantine"
  | Checksum_recovery -> "checksum-recovery"
  | Shard_ownership -> "shard-ownership"

let violation_to_string v =
  Printf.sprintf "[%s] %s" (rule_to_string v.rule) v.detail

let pp_violation ppf v = Format.pp_print_string ppf (violation_to_string v)

(* Deterministic report order: trace position, then rule, then node, then
   text; duplicates collapse.  End-of-trace emissions walk hashtables
   whose iteration order is seeded per-process, so without this the same
   trace could lint to differently-ordered (or repeated) findings. *)
let compare_violation a b =
  let c = Int.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = Int.compare a.vnode b.vnode in
      if c <> 0 then c else String.compare a.detail b.detail

let normalize vs = List.sort_uniq compare_violation vs

let tok_str = function E.Read -> "read" | E.Write -> "write"

(* [replay iter] runs the rules over [iter], which calls its argument on
   every event with its index, oldest first. *)
let replay iter =
  let out = ref [] in
  let add ~at ~vnode rule fmt =
    Printf.ksprintf (fun detail -> out := { rule; at; vnode; detail } :: !out) fmt
  in
  (* Outstanding grants: (requester, uid) -> (piggybacked update count,
     "updates were applied at the requester" flag).  Acquires execute
     synchronously, so at most one grant per requester is in flight. *)
  let grants : (int * int, int * bool ref) Hashtbl.t = Hashtbl.create 32 in
  (* Invariant-3 hook firings not yet consumed by a write grant. *)
  let hooks : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Invariant-2 obligations: (node, peer, uid) still owed a forward. *)
  let due : (int * int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let last_sent : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  (* Delivered-side FIFO is tracked per delivery class: unreliable
     streams may repeat a sequence number (duplicate) but never run
     backwards; reliable streams must be handed off strictly in order,
     exactly once — duplicate suppression makes a repeat a violation. *)
  let last_delivered : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let last_rel_delivered : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  (* Nodes currently crashed (between their Crash and Restart events). *)
  let down : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  (* Directed links currently cut (between Link_cut and Link_heal). *)
  let cut : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let partitioned a b =
    Hashtbl.mem cut (a, b) || Hashtbl.mem cut (b, a)
  in
  (* Registry-shard ownership as witnessed by the trace: adoptions
     re-seat it, allocations must come from it.  Partial knowledge —
     shard ownership is durable (journalled), so a crash does not erase
     what the trace recorded. *)
  let shard_owner_seen : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* Storage faults injected and not yet acknowledged by a recovery. *)
  let faults : (int, (int * string) list ref) Hashtbl.t = Hashtbl.create 4 in
  let dead i node fmt =
    Printf.ksprintf
      (fun what ->
        if Hashtbl.mem down node then
          add ~at:i ~vnode:node Dead_node_activity
            "event %d: %s at/involving crashed N%d" i what node)
      fmt
  in
  iter (fun i e ->
      match e with
      | E.Acquire_start { actor = E.Gc; node; uid; tok } ->
          add ~at:i ~vnode:node Gc_acquired_token
            "event %d: the collector acquired a %s token for o%d at N%d \
             (actor = Gc on the acquire path)"
            i (tok_str tok) uid node;
          dead i node "%s token acquire for o%d" (tok_str tok) uid
      | E.Acquire_start { node; uid; tok; _ } ->
          dead i node "%s token acquire for o%d" (tok_str tok) uid
      | E.Grant_sent { granter; requester; uid; tok; updates } ->
          (* No token resurrects at a crashed node: a dead granter means
             a token was minted from lost state. *)
          dead i granter "token grant of o%d (as granter)" uid;
          dead i requester "token grant of o%d (as requester)" uid;
          (* No token crosses a partition: the protocol must refuse the
             acquire while granter and requester cannot exchange
             messages. *)
          if granter <> requester && partitioned granter requester then
            add ~at:i ~vnode:granter Split_brain_ownership
              "event %d: %s token of o%d granted N%d -> N%d across a cut \
               link"
              i (tok_str tok) uid granter requester;
          Hashtbl.replace grants (requester, uid) (updates, ref false);
          if tok = E.Write then
            if Hashtbl.mem hooks (granter, requester, uid) then
              Hashtbl.remove hooks (granter, requester, uid)
            else
              add ~at:i ~vnode:granter Invariant3
                "event %d: write grant of o%d (N%d -> N%d) sent without the \
                 SSP-creation hook having run"
                i uid granter requester
      | E.Hook_ssp { granter; requester; uid } ->
          dead i granter "SSP hook for o%d (as granter)" uid;
          dead i requester "SSP hook for o%d (as requester)" uid;
          Hashtbl.replace hooks (granter, requester, uid) ()
      | E.Updates_applied { node; uids = _ } ->
          dead i node "location updates applied";
          Hashtbl.iter
            (fun (r, _) (_, applied) -> if r = node then applied := true)
            grants
      | E.Acquire_done { actor = _; node; uid; tok; addr_valid } ->
          dead i node "%s acquire completion for o%d" (tok_str tok) uid;
          if not addr_valid then
            add ~at:i ~vnode:node Invariant1
              "event %d: %s acquire of o%d at N%d completed without a valid \
               local address"
              i (tok_str tok) uid node;
          (match Hashtbl.find_opt grants (node, uid) with
          | Some (updates, applied) ->
              if updates > 0 && not !applied then
                add ~at:i ~vnode:node Invariant1
                  "event %d: the grant for o%d carried %d location updates \
                   that N%d never applied before the acquire completed"
                  i uid updates node;
              Hashtbl.remove grants (node, uid)
          | None -> ())
      | E.Forward_due { node; uid; peers } ->
          List.iter (fun p -> Hashtbl.replace due (node, p, uid) i) peers
      | E.Copyset_forward { src; dst; uid } ->
          Hashtbl.remove due (src, dst, uid)
      | E.Msg_sent { src; dst; kind; seq; rel = _ } ->
          dead i src "%s message sent to N%d (seq %d)" kind dst seq;
          (match Hashtbl.find_opt last_sent (src, dst) with
          | Some s when seq <= s ->
              add ~at:i ~vnode:src Fifo_order
                "event %d: %s message N%d -> N%d sent with seq %d after seq \
                 %d on the same stream"
                i kind src dst seq s
          | Some _ | None -> ());
          Hashtbl.replace last_sent (src, dst) seq
      | E.Msg_delivered { src; dst; kind; seq; rel = false } ->
          dead i src "%s message delivered from it (seq %d)" kind seq;
          dead i dst "%s message delivered to it (seq %d)" kind seq;
          if Hashtbl.mem cut (src, dst) then
            add ~at:i ~vnode:dst Partition_quarantine
              "event %d: %s message N%d -> N%d (seq %d) delivered over a cut \
               link"
              i kind src dst seq;
          (match Hashtbl.find_opt last_delivered (src, dst) with
          | Some s when seq < s ->
              add ~at:i ~vnode:dst Fifo_order
                "event %d: %s message N%d -> N%d delivered with seq %d after \
                 seq %d — per-pair FIFO broken"
                i kind src dst seq s
          | Some _ | None -> ());
          Hashtbl.replace last_delivered (src, dst) seq
      | E.Msg_delivered { src; dst; kind; seq; rel = true } ->
          dead i src "reliable %s delivered from it (seq %d)" kind seq;
          dead i dst "reliable %s delivered to it (seq %d)" kind seq;
          if Hashtbl.mem cut (src, dst) then
            add ~at:i ~vnode:dst Partition_quarantine
              "event %d: reliable %s message N%d -> N%d (seq %d) delivered \
               over a cut link"
              i kind src dst seq;
          (match Hashtbl.find_opt last_rel_delivered (src, dst) with
          | Some s when seq <= s ->
              add ~at:i ~vnode:dst Reliable_fifo
                "event %d: reliable %s message N%d -> N%d handed off with \
                 seq %d after seq %d — exactly-once in-order delivery broken"
                i kind src dst seq s
          | Some _ | None -> ());
          Hashtbl.replace last_rel_delivered (src, dst) seq
      | E.Msg_retransmit { src; dst; kind; seq; attempt = _ } ->
          (* A dead node's retransmission buffer died with it. *)
          dead i src "%s retransmission to N%d (seq %d)" kind dst seq
      | E.Msg_suppressed _ | E.Msg_buffered _ ->
          (* Receiver-side bookkeeping of the reliable layer. *)
          ()
      | E.Rpc _ ->
          (* Synchronous inline exchange: shares the seq counter but is
             exempt from the background channel's FIFO; recovery-time
             accounting (ownership adoption) also records these. *)
          ()
      | E.Crash { node } -> Hashtbl.replace down node ()
      | E.Restart { node } -> Hashtbl.remove down node
      | E.Link_cut { src; dst } -> Hashtbl.replace cut (src, dst) ()
      | E.Link_heal { src; dst } -> Hashtbl.remove cut (src, dst)
      | E.Suspect _ ->
          (* Transport failure-detector bookkeeping.  A crash clears the
             crashed sender's suspect pairs, so a Suspect-off can
             legitimately trail a Crash event — no dead-node check. *)
          ()
      | E.Owner_adopted { node; uid; prev } ->
          dead i node "ownership adoption of o%d" uid;
          (* [prev] is the owner the protocol recorded at adoption
             ([Node.invalid] when none survived): it must be down, not
             merely cut off. *)
          if
            prev <> node
            && (not (Hashtbl.mem down prev))
            && partitioned prev node
          then
            add ~at:i ~vnode:node Split_brain_ownership
              "event %d: N%d adopted ownership of o%d while its last \
               recorded owner N%d is alive across a cut link — two owners \
               after heal"
              i node uid prev
      | E.Tables_processed { at; sender; bunch; seq = _ } ->
          dead i at "reachability tables processed";
          if Hashtbl.mem down sender then
            add ~at:i ~vnode:at Partition_quarantine
              "event %d: N%d processed reachability tables for b%d from \
               crashed sender N%d — dead-sender quarantine bypassed"
              i at bunch sender
          else if partitioned sender at then
            add ~at:i ~vnode:at Partition_quarantine
              "event %d: N%d processed reachability tables for b%d from \
               unreachable sender N%d — partition quarantine bypassed"
              i at bunch sender
      | E.Disk_fault { node; fault } -> (
          (* The disk is independent of the node's volatile state: faults
             may be injected while the node is down.  Each must later be
             acknowledged by a recovery at that node. *)
          match Hashtbl.find_opt faults node with
          | Some l -> l := (i, fault) :: !l
          | None -> Hashtbl.add faults node (ref [ (i, fault) ]))
      | E.Rvm_recover { node; dropped = _; lost = _ } ->
          dead i node "RVM recovery";
          Hashtbl.remove faults node
      | E.Bunch_verified { node; missing = _ } ->
          dead i node "bunch verification"
      | E.Shard_adopted { shard; node } ->
          dead i node "registry shard %d adoption" shard;
          (match Hashtbl.find_opt shard_owner_seen shard with
          | Some prev
            when prev <> node
                 && (not (Hashtbl.mem down prev))
                 && partitioned prev node ->
              add ~at:i ~vnode:node Shard_ownership
                "event %d: N%d adopted registry shard %d while its last \
                 recorded owner N%d is alive across a cut link — two shard \
                 owners after heal"
                i node shard prev
          | Some _ | None -> ());
          Hashtbl.replace shard_owner_seen shard node
      | E.Shard_alloc { shard; node } ->
          dead i node "range carved from registry shard %d" shard;
          (* A non-owner carve is the fail-stop regency, legal only while
             the recorded owner is down — everyone agrees a crashed node
             is gone, unlike a partition, where carving for an absent
             owner would be exactly the two-writers split-brain. *)
          (match Hashtbl.find_opt shard_owner_seen shard with
          | Some owner when owner <> node && not (Hashtbl.mem down owner) ->
              add ~at:i ~vnode:node Shard_ownership
                "event %d: N%d carved a range from registry shard %d whose \
                 recorded owner N%d is alive — registry mutation applied by \
                 a non-owning node"
                i node shard owner
          | Some _ -> ()
          | None -> Hashtbl.replace shard_owner_seen shard node)
      | E.Gc_begin { node; _ } -> dead i node "collection started"
      | E.Gc_end { node; _ } -> dead i node "collection finished"
      | E.Release { node; uid } -> dead i node "token release for o%d" uid
      | E.Read_obs { node; uid; _ } -> dead i node "field read of o%d" uid
      | E.Write_obs { node; uid; _ } -> dead i node "field write of o%d" uid
      | E.Invalidate { src; dst = _; uid } ->
          (* An invalidation *to* a dead node is legal — the message just
             evaporates at the dead host; one *from* a dead node is not. *)
          dead i src "invalidation of o%d issued" uid);
  Hashtbl.iter
    (fun (node, peer, uid) i ->
      add ~at:i ~vnode:node Invariant2
        "event %d: N%d installed new-location information for o%d but never \
         forwarded it to copy-set member N%d"
        i node uid peer)
    due;
  Hashtbl.iter
    (fun node l ->
      List.iter
        (fun (i, fault) ->
          add ~at:i ~vnode:node Checksum_recovery
            "event %d: storage fault '%s' injected at N%d's disk was never \
             acknowledged by an RVM recovery at that node"
            i fault node)
        (List.rev !l))
    faults;
  normalize !out

let run events = replay (fun f -> List.iteri f events)

let check_log log =
  let vs =
    replay (fun f ->
        ignore
          (E.fold log
             (fun i _ e ->
               f i e;
               i + 1)
             0))
  in
  if E.overflowed log then
    {
      rule = Incomplete_trace;
      at = -1;
      vnode = -1;
      detail =
        Printf.sprintf
          "the event log overflowed after %d events; the trace cannot be \
           certified"
          (E.length log);
    }
    :: vs
  else vs

let check_stores proto =
  let out = ref [] in
  List.iter
    (fun node ->
      let store = Protocol.store proto node in
      (* Snapshot the forwarder graph, then walk every chain. *)
      let fwd : (Addr.t, Addr.t) Hashtbl.t = Hashtbl.create 64 in
      Store.iter store (fun a cell ->
          match cell with
          | Store.Forwarder target -> Hashtbl.replace fwd a target
          | Store.Object _ -> ());
      let reported = Hashtbl.create 4 in
      Hashtbl.iter
        (fun start _ ->
          let visited = Hashtbl.create 8 in
          let rec walk a =
            if Hashtbl.mem visited a then begin
              if not (Hashtbl.mem reported a) then begin
                (* Mark the whole cycle so each is flagged exactly once. *)
                let rec mark x =
                  if not (Hashtbl.mem reported x) then begin
                    Hashtbl.replace reported x ();
                    match Hashtbl.find_opt fwd x with
                    | Some next -> mark next
                    | None -> ()
                  end
                in
                mark a;
                out :=
                  {
                    rule = Forwarder_cycle;
                    at = -1;
                    vnode = node;
                    detail =
                      Printf.sprintf
                        "N%d: forwarding-pointer cycle through %s" node
                        (Addr.to_string a);
                  }
                  :: !out
              end
            end
            else begin
              Hashtbl.replace visited a ();
              match Hashtbl.find_opt fwd a with
              | Some next -> walk next
              | None -> ()
            end
          in
          walk start)
        fwd)
    (Protocol.nodes proto);
  normalize !out

let check_all proto = check_log (Protocol.evlog proto) @ check_stores proto
