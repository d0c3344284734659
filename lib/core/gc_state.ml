open Bmx_util

let edge_bytes (a, b) = Varint.size a + Varint.size b

(* ------------------------------------------------------------------ *)
(* SSP tables.

   A table is the set of its entries, [members], and one index that
   files each entry under the int [index_of] reads from it: for a stub
   table, the uid the §5 invariant-3 hook queries (inter stubs: the
   source object; intra stubs: the object itself); for a scion table,
   the stub side's node, which the scion cleaner's per-sender sweeps
   query.  Readers iterate over the members or count them: a table
   keeps no order.

   A stub table also tracks its {e edges} ([edge_of], the
   stream-relative key {!Ssp.inter_stub_edge}/{!Ssp.intra_stub_edge}).
   [edges] counts the records per edge, [key_bytes] sums what the
   distinct edges weigh on the wire ({!edge_bytes}), so a full is priced
   without a walk, and [touched] journals every edge whose presence
   flipped since the last {!rebase_stub_journal}.  The scion cleaner
   derives reachability-table deltas from it (added = touched edge
   still present, removed = touched edge now absent).  Cumulative since
   the journal base, the delta applies correctly to a mirror in any
   state between the base and now.  Working on edges rather than
   records means a BGC that merely relocates targets (new addresses,
   same edges) journals nothing. *)

type 'a table = {
  members : ('a, unit) Hashtbl.t;
  index_of : 'a -> int;
  index : ('a, unit) Hashtbl.t Ids.Uid_tbl.t; (* members by [index_of] *)
  edge_of : ('a -> int * int) option; (* stub tables only *)
  edges : (int * int, int) Hashtbl.t; (* records per edge *)
  mutable key_bytes : int; (* [edge_bytes] summed over [edges]' keys *)
  touched : (int * int, unit) Hashtbl.t;
}

let t_make ?edge_of index_of =
  let journal = if Option.is_some edge_of then 16 else 1 in
  {
    members = Hashtbl.create 16;
    index_of;
    index = Ids.Uid_tbl.create 8;
    edge_of;
    edges = Hashtbl.create journal;
    key_bytes = 0;
    touched = Hashtbl.create journal;
  }

(* Count one record of [x]'s edge in or out ([d] = 1 or -1); an edge
   whose count flips between 0 and 1 changes the table's wire weight
   and is journalled. *)
let t_edge tb x d =
  match tb.edge_of with
  | None -> ()
  | Some edge_of ->
      let e = edge_of x in
      let c = match Hashtbl.find tb.edges e with c -> c | exception Not_found -> 0 in
      if c + d = 0 then Hashtbl.remove tb.edges e
      else Hashtbl.replace tb.edges e (c + d);
      if c = 0 || c + d = 0 then begin
        tb.key_bytes <- tb.key_bytes + (d * edge_bytes e);
        Hashtbl.replace tb.touched e ()
      end

let t_add tb x =
  (not (Hashtbl.mem tb.members x))
  && begin
       Hashtbl.replace tb.members x ();
       let k = tb.index_of x in
       (match Ids.Uid_tbl.find tb.index k with
       | b -> Hashtbl.replace b x ()
       | exception Not_found ->
           let b = Hashtbl.create 4 in
           Hashtbl.replace b x ();
           Ids.Uid_tbl.add tb.index k b);
       t_edge tb x 1;
       true
     end

let t_drop tb x =
  Hashtbl.remove tb.members x;
  let k = tb.index_of x in
  (match Ids.Uid_tbl.find tb.index k with
  | b ->
      Hashtbl.remove b x;
      if Hashtbl.length b = 0 then Ids.Uid_tbl.remove tb.index k
  | exception Not_found -> ());
  t_edge tb x (-1)

let t_indexed tb k =
  match Ids.Uid_tbl.find tb.index k with
  | b -> Hashtbl.fold (fun x () acc -> x :: acc) b []
  | exception Not_found -> []

(* Drop the entries of [h] — the members or one index bucket — that
   satisfy [pred], gathered before any is dropped; returns how many. *)
let t_drop_where tb h pred =
  match Hashtbl.fold (fun x () acc -> if pred x then x :: acc else acc) h [] with
  | [] -> 0
  | drop ->
      List.iter (t_drop tb) drop;
      List.length drop

(* Remove the entries filed under [k] that satisfy [pred].  Only that
   index bucket is visited. *)
let t_remove_indexed tb k pred =
  match Ids.Uid_tbl.find tb.index k with
  | b -> t_drop_where tb b pred
  | exception Not_found -> 0

(* Keep only the entries satisfying [keep] (BGC table reconstruction,
   §4.3).  Only the write barrier adds entries, so the table a BGC
   regenerates is always a subset of the current one: dropping the
   failures in place journals exactly the edges whose last entry goes,
   and a collection that keeps every edge allocates nothing per stub. *)
let t_retain tb keep = ignore (t_drop_where tb tb.members (fun x -> not (keep x)))

(* ------------------------------------------------------------------ *)
(* Reachability-table mirrors (§6.1, delta protocol).

   A node receiving delta reachability messages keeps, per (sender,
   bunch), the edge sets of the sender's stub tables reassembled from
   fulls and diffs, and the sender's exiting entries addressed to the
   node (only an object's owner reads an exiting entry, so the sender
   ships each destination its own and the owner goes without saying).
   The edge sets are immutable and shared: every receiver of a round's
   fulls stores the sets the sender built, and a delta makes new ones
   for its own mirror.  Coverage queries — the cleaner's §6.1 deletion
   test — are ordered lookups; the (sender, bunch) the mirror is filed
   under supplies the rest of each match key.  [mi_seq] is the
   transport seq of the last message processed on the stream, the
   cleaner's freshness clock.  [mi_basis] is the seq of the send the
   mirror's contents reflect (and every delta the sender emits builds
   on); a delta with a different basis is unusable and triggers a
   resync. *)

(* Target-major: a mirror's edges into one uid are adjacent. *)
module Inter_edges = Set.Make (struct
  type t = Ssp.inter_edge
  let compare (s1, t1) (s2, t2) =
    match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

module Intra_edges = Set.Make (struct
  type t = Ssp.intra_edge
  let compare (u1, n1) (u2, n2) =
    match Int.compare u1 u2 with 0 -> Int.compare n1 n2 | c -> c
end)

type mirror = {
  mutable mi_seq : int;
  mutable mi_basis : int;
  mutable mi_inter : Inter_edges.t;
  mutable mi_intra : Intra_edges.t;
  mi_exiting : unit Ids.Uid_tbl.t;
}

(* One owner's share of a bunch's exiting-ownerPtr journal, the same
   shape as the stub-table journals: the present uids, each with the
   mark [note_exiting] sets while it updates the slot (false between
   calls), their {!Varint} bytes on the wire, and the uids whose
   presence flipped since the last rebase. *)
type exiting_slot = {
  ex_cur : bool Ids.Uid_tbl.t;
  mutable ex_bytes : int;
  ex_touched : unit Ids.Uid_tbl.t;
}

(* The sender side of a bunch's table streams at one node. *)
type broadcast_state = {
  mutable bs_round : int;
  mutable bs_dests : Ids.Node.t list;
  bs_sent : (int * int) Ids.Node_tbl.t;
  bs_exiting : exiting_slot Ids.Node_tbl.t;
}

(* ------------------------------------------------------------------ *)

type node_state = {
  mutable gc_version : int;
      (* per-node component of the BGC dirtiness epoch: bumped on root
         and scion changes (the collection's inputs), not on the
         bookkeeping a collection writes about itself *)
  last_bgc : int Ids.Bunch_tbl.t; (* composite epoch after last BGC *)
  mutable roots : Addr.t list;
      (* newest first; may still hold the occurrences in [roots_dropped] *)
  roots_live : (Addr.t, int) Hashtbl.t; (* occurrences per address *)
  roots_dropped : (Addr.t, int) Hashtbl.t;
      (* per address, the occurrences removed since [roots] was last
         read: the newest ones of that address in [roots] *)
  inter_stubs : Ssp.inter_stub table Ids.Bunch_tbl.t;
      (* by source bunch; holds only stubs created at this node *)
  intra_stubs : Ssp.intra_stub table Ids.Bunch_tbl.t;
  inter_scions : Ssp.inter_scion table Ids.Bunch_tbl.t; (* by target bunch *)
  intra_scions : Ssp.intra_scion table Ids.Bunch_tbl.t;
  broadcasts : broadcast_state Ids.Bunch_tbl.t; (* sender side, by bunch *)
  mirrors : mirror Ids.Bunch_tbl.t Ids.Node_tbl.t;
      (* receiver side, by sender, then bunch *)
}

type t = {
  proto : Bmx_dsm.Protocol.t;
  per_node : node_state Ids.Node_tbl.t;
  mutable obs : Bmx_obs.Metrics.t option;
}

let create ~proto = { proto; per_node = Ids.Node_tbl.create 8; obs = None }
let proto t = t.proto
let stats t = Bmx_dsm.Protocol.stats t.proto
let set_metrics t m = t.obs <- Some m
let metrics t = t.obs

let make_inter_stub_table () =
  t_make ~edge_of:Ssp.inter_stub_edge (fun (s : Ssp.inter_stub) ->
      s.Ssp.is_src_uid)

let make_intra_stub_table () =
  t_make ~edge_of:Ssp.intra_stub_edge (fun (s : Ssp.intra_stub) -> s.Ssp.ns_uid)

let make_inter_scion_table () = t_make (fun (s : Ssp.inter_scion) -> s.Ssp.xs_src_node)

let make_intra_scion_table () =
  t_make (fun (s : Ssp.intra_scion) -> s.Ssp.xn_owner_side)

let node_state t node =
  match Ids.Node_tbl.find t.per_node node with
  | ns -> ns
  | exception Not_found ->
      let ns =
        {
          gc_version = 0;
          last_bgc = Ids.Bunch_tbl.create 8;
          roots = [];
          roots_live = Hashtbl.create 16;
          roots_dropped = Hashtbl.create 16;
          inter_stubs = Ids.Bunch_tbl.create 8;
          intra_stubs = Ids.Bunch_tbl.create 8;
          inter_scions = Ids.Bunch_tbl.create 8;
          intra_scions = Ids.Bunch_tbl.create 8;
          broadcasts = Ids.Bunch_tbl.create 8;
          mirrors = Ids.Node_tbl.create 8;
        }
      in
      Ids.Node_tbl.add t.per_node node ns;
      ns

let crash_node t ~node =
  (* GC tables are volatile per-node state (they are reconstructed by
     every local collection, §4.3): a crash loses roots, stub and scion
     tables and both sides of every cleaner stream alike (the broadcast
     records with their journals, the mirrors with their freshness
     seqs).  The entry regenerates lazily, empty. *)
  Ids.Node_tbl.remove t.per_node node

(* Mutator roots: a multiset kept newest first, where a removal drops
   the newest occurrence.  Removal is O(1): it moves one occurrence
   from [roots_live] to [roots_dropped], and the list sheds the dropped
   occurrences once, at the next read. *)
let count h a = match Hashtbl.find h a with n -> n | exception Not_found -> 0

let count_add h a d =
  match count h a + d with 0 -> Hashtbl.remove h a | n -> Hashtbl.replace h a n

let live_roots ns =
  if Hashtbl.length ns.roots_dropped > 0 then
    ns.roots <-
      List.filter
        (fun a ->
          count ns.roots_dropped a = 0
          || (count_add ns.roots_dropped a (-1);
              false))
        ns.roots;
  ns.roots

let add_root t ~node a =
  let ns = node_state t node in
  ns.gc_version <- ns.gc_version + 1;
  (* A removal of [a] still pending must drop an older occurrence, not
     this one. *)
  if count ns.roots_dropped a > 0 then ignore (live_roots ns);
  ns.roots <- a :: ns.roots;
  count_add ns.roots_live a 1

let remove_root t ~node a =
  let ns = node_state t node in
  count ns.roots_live a > 0
  && begin
       count_add ns.roots_live a (-1);
       count_add ns.roots_dropped a 1;
       ns.gc_version <- ns.gc_version + 1;
       true
     end

let roots t ~node = live_roots (node_state t node)

(* Counts up before down, so a root that stays costs no table entry. *)
let set_roots t ~node roots =
  let ns = node_state t node in
  let cur = live_roots ns in
  if not (List.equal Addr.equal roots cur) then begin
    ns.gc_version <- ns.gc_version + 1;
    List.iter (fun a -> count_add ns.roots_live a 1) roots;
    List.iter (fun a -> count_add ns.roots_live a (-1)) cur;
    ns.roots <- roots
  end

let forward_roots t ~node =
  let store = Bmx_dsm.Protocol.store t.proto node in
  let cur a = Bmx_memory.Store.current_addr store a in
  let roots = roots t ~node in
  if List.exists (fun a -> not (Addr.equal (cur a) a)) roots then
    set_roots t ~node (List.map cur roots)

let find_table make tbl bunch =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb -> tb
  | exception Not_found ->
      let tb = make () in
      Ids.Bunch_tbl.add tbl bunch tb;
      tb

let tbl_fold tbl bunch f acc =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb -> Hashtbl.fold (fun x () acc -> f x acc) tb.members acc
  | exception Not_found -> acc

let tbl_list tbl bunch = tbl_fold tbl bunch List.cons []

let tbl_count size tbl bunch =
  match Ids.Bunch_tbl.find tbl bunch with tb -> size tb | exception Not_found -> 0

let records tb = Hashtbl.length tb.members
let keys tb = Hashtbl.length tb.edges
let key_bytes tb = tb.key_bytes

let inter_stubs t ~node ~bunch = tbl_list (node_state t node).inter_stubs bunch
let intra_stubs t ~node ~bunch = tbl_list (node_state t node).intra_stubs bunch

let stub_holders t ~node ~bunch =
  let ns = node_state t node in
  tbl_fold ns.inter_stubs bunch
    (fun (s : Ssp.inter_stub) acc -> Ids.Node_set.add s.Ssp.is_scion_at acc)
    (tbl_fold ns.intra_stubs bunch
       (fun (s : Ssp.intra_stub) acc -> Ids.Node_set.add s.Ssp.ns_holder acc)
       Ids.Node_set.empty)

let edges_inserted n =
  Perfcount.(counters.s_gc_edges_inserted <- counters.s_gc_edges_inserted + n)

(* Edge sets: [edges] holds each edge once, so a table's distinct edges
   are one fold over it and their number is its length. *)
let tbl_edges of_list tbl bunch =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb ->
      edges_inserted (Hashtbl.length tb.edges);
      of_list (Hashtbl.fold (fun k _ acc -> k :: acc) tb.edges [])
  | exception Not_found -> of_list []

let inter_stub_keys t ~node ~bunch =
  tbl_edges Inter_edges.of_list (node_state t node).inter_stubs bunch

let intra_stub_keys t ~node ~bunch =
  tbl_edges Intra_edges.of_list (node_state t node).intra_stubs bunch

let inter_stub_count t ~node ~bunch =
  tbl_count records (node_state t node).inter_stubs bunch

let intra_stub_count t ~node ~bunch =
  tbl_count records (node_state t node).intra_stubs bunch

let inter_key_count t ~node ~bunch =
  tbl_count keys (node_state t node).inter_stubs bunch

let intra_key_count t ~node ~bunch =
  tbl_count keys (node_state t node).intra_stubs bunch

let inter_key_bytes t ~node ~bunch =
  tbl_count key_bytes (node_state t node).inter_stubs bunch

let intra_key_bytes t ~node ~bunch =
  tbl_count key_bytes (node_state t node).intra_stubs bunch

(* Nothing on the wire names a stub's holder: receivers rebuild it from
   the stream's sender, so a stub filed at any node but its creator
   would be rebuilt into the wrong key everywhere. *)
let add_inter_stub t ~node (s : Ssp.inter_stub) =
  if not (Ids.Node.equal s.Ssp.is_created_at node) then
    invalid_arg
      (Printf.sprintf "Gc_state.add_inter_stub: stub created at N%d filed at N%d"
         s.Ssp.is_created_at node);
  let ns = node_state t node in
  if t_add (find_table make_inter_stub_table ns.inter_stubs s.Ssp.is_src_bunch) s
  then ns.gc_version <- ns.gc_version + 1

let add_intra_stub t ~node (s : Ssp.intra_stub) =
  let ns = node_state t node in
  if t_add (find_table make_intra_stub_table ns.intra_stubs s.Ssp.ns_bunch) s
  then ns.gc_version <- ns.gc_version + 1

let retain_stubs t ~node ~bunch ~inter ~intra =
  let ns = node_state t node in
  t_retain (find_table make_inter_stub_table ns.inter_stubs bunch) inter;
  t_retain (find_table make_intra_stub_table ns.intra_stubs bunch) intra

let inter_scions t ~node ~bunch = tbl_list (node_state t node).inter_scions bunch
let intra_scions t ~node ~bunch = tbl_list (node_state t node).intra_scions bunch

let iter_inter_scions t ~node ~bunch f =
  tbl_fold (node_state t node).inter_scions bunch (fun s () -> f s) ()

let iter_intra_scions t ~node ~bunch f =
  tbl_fold (node_state t node).intra_scions bunch (fun s () -> f s) ()

let holds_ssps t ~node ~bunch =
  let ns = node_state t node in
  tbl_count records ns.inter_scions bunch > 0
  || tbl_count records ns.intra_scions bunch > 0
  || tbl_count records ns.inter_stubs bunch > 0

let add_inter_scion t ~node (s : Ssp.inter_scion) =
  let ns = node_state t node in
  if
    t_add
      (find_table make_inter_scion_table ns.inter_scions s.Ssp.xs_target_bunch)
      s
  then ns.gc_version <- ns.gc_version + 1

let add_intra_scion t ~node (s : Ssp.intra_scion) =
  let ns = node_state t node in
  if
    t_add (find_table make_intra_scion_table ns.intra_scions s.Ssp.xn_bunch) s
  then ns.gc_version <- ns.gc_version + 1

let remove_inter_scions_from t ~node ~src pred =
  let ns = node_state t node in
  Ids.Bunch_tbl.fold
    (fun _ tb total ->
      let n = t_remove_indexed tb src pred in
      if n > 0 then ns.gc_version <- ns.gc_version + 1;
      total + n)
    ns.inter_scions 0

let remove_intra_scions_from t ~node ~bunch ~src pred =
  let ns = node_state t node in
  match Ids.Bunch_tbl.find ns.intra_scions bunch with
  | exception Not_found -> 0
  | tb ->
      let n = t_remove_indexed tb src pred in
      if n > 0 then ns.gc_version <- ns.gc_version + 1;
      n

(* ------------------------------------------------------------------ *)
(* BGC dirtiness epoch (economical collection).

   The composite epoch folds every input a local collection reads: the
   store (objects, forwarders, field writes), the directory (records,
   ownership, entering entries) and the per-node GC state (roots,
   scions).  A (node, bunch) pair whose epoch is unchanged since the end
   of its previous collection would recompute exactly the same live set
   and tables — the collection is skipped outright.  Crash/restart wipes
   the per-node state, so a recovering node always collects for real. *)

let dirty_epoch t ~node =
  let ns = node_state t node in
  ns.gc_version
  + Bmx_memory.Store.mut_version (Bmx_dsm.Protocol.store t.proto node)
  + Bmx_dsm.Directory.mut_version (Bmx_dsm.Protocol.directory t.proto node)

let bgc_clean t ~node ~bunch =
  let ns = node_state t node in
  match Ids.Bunch_tbl.find_opt ns.last_bgc bunch with
  | Some e -> e = dirty_epoch t ~node
  | None -> false

let note_bgc_epoch t ~node ~bunch =
  let ns = node_state t node in
  Ids.Bunch_tbl.replace ns.last_bgc bunch (dirty_epoch t ~node)

let tbl_indexed tbl bunch k =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb -> t_indexed tb k
  | exception Not_found -> []

let inter_stubs_with_src t ~node ~bunch ~uid =
  tbl_indexed (node_state t node).inter_stubs bunch uid

let intra_stubs_for_uid t ~node ~bunch ~uid =
  tbl_indexed (node_state t node).intra_stubs bunch uid

let has_inter_scion t ~node (s : Ssp.inter_scion) =
  match Ids.Bunch_tbl.find (node_state t node).inter_scions s.Ssp.xs_target_bunch with
  | tb -> Hashtbl.mem tb.members s
  | exception Not_found -> false

(* ------------------------------------------------------------------ *)
(* Delta-table journal (sender side).                                  *)

type stub_delta = {
  sd_add_inter : Ssp.inter_edge list;
  sd_del_inter : Ssp.inter_edge list;
  sd_add_intra : Ssp.intra_edge list;
  sd_del_intra : Ssp.intra_edge list;
  sd_exiting_flips : int;
}

let split_touched tb =
  Hashtbl.fold
    (fun k () (added, removed) ->
      if Hashtbl.mem tb.edges k then (k :: added, removed)
      else (added, k :: removed))
    tb.touched ([], [])

let find_broadcast_state t ~node ~bunch =
  Ids.Bunch_tbl.find_opt (node_state t node).broadcasts bunch

let broadcast_state t ~node ~bunch =
  match find_broadcast_state t ~node ~bunch with
  | Some bs -> bs
  | None ->
      let bs =
        {
          bs_round = 0;
          bs_dests = [];
          bs_sent = Ids.Node_tbl.create 8;
          bs_exiting = Ids.Node_tbl.create 8;
        }
      in
      Ids.Bunch_tbl.add (node_state t node).broadcasts bunch bs;
      bs

let note_exiting bs exiting =
  (* Reflect the list the BGC just produced in the journal, in place:
     mark every listed entry (adding and journalling the new ones), then
     drop and journal the unmarked ones.  Every entry whose presence
     flips is marked touched, so cumulative deltas also cover entries
     that appeared and vanished again between two rebases. *)
  let slots = bs.bs_exiting in
  List.iter
    (fun (uid, owner) ->
      let slot =
        match Ids.Node_tbl.find_opt slots owner with
        | Some slot -> slot
        | None ->
            let slot =
              {
                ex_cur = Ids.Uid_tbl.create 16;
                ex_bytes = 0;
                ex_touched = Ids.Uid_tbl.create 16;
              }
            in
            Ids.Node_tbl.add slots owner slot;
            slot
      in
      if not (Ids.Uid_tbl.mem slot.ex_cur uid) then begin
        Ids.Uid_tbl.replace slot.ex_touched uid ();
        slot.ex_bytes <- slot.ex_bytes + Varint.size uid
      end;
      Ids.Uid_tbl.replace slot.ex_cur uid true)
    exiting;
  Ids.Node_tbl.iter
    (fun _ slot ->
      Ids.Uid_tbl.filter_map_inplace
        (fun uid marked ->
          if marked then Some false
          else begin
            Ids.Uid_tbl.replace slot.ex_touched uid ();
            slot.ex_bytes <- slot.ex_bytes - Varint.size uid;
            None
          end)
        slot.ex_cur)
    slots

let exiting_to bs ~owner =
  match Ids.Node_tbl.find_opt bs.bs_exiting owner with
  | None -> []
  | Some slot -> Ids.Uid_tbl.fold (fun uid _ acc -> uid :: acc) slot.ex_cur []

let exiting_count_to bs ~owner =
  match Ids.Node_tbl.find bs.bs_exiting owner with
  | slot -> Ids.Uid_tbl.length slot.ex_cur
  | exception Not_found -> 0

let exiting_bytes_to bs ~owner =
  match Ids.Node_tbl.find bs.bs_exiting owner with
  | slot -> slot.ex_bytes
  | exception Not_found -> 0

let exiting_delta_to bs ~owner =
  match Ids.Node_tbl.find_opt bs.bs_exiting owner with
  | None -> ([], [])
  | Some slot ->
      Ids.Uid_tbl.fold
        (fun uid () (a, d) ->
          if Ids.Uid_tbl.mem slot.ex_cur uid then (uid :: a, d) else (a, uid :: d))
        slot.ex_touched ([], [])

let current_exiting t ~node ~bunch =
  match find_broadcast_state t ~node ~bunch with
  | None -> []
  | Some bs ->
      Ids.Node_tbl.fold
        (fun owner slot acc ->
          Ids.Uid_tbl.fold (fun uid _ acc -> (uid, owner) :: acc) slot.ex_cur acc)
        bs.bs_exiting []

let stub_delta t ~node ~bunch =
  let ns = node_state t node in
  let add_inter, del_inter =
    match Ids.Bunch_tbl.find_opt ns.inter_stubs bunch with
    | None -> ([], [])
    | Some tb -> split_touched tb
  in
  let add_intra, del_intra =
    match Ids.Bunch_tbl.find_opt ns.intra_stubs bunch with
    | None -> ([], [])
    | Some tb -> split_touched tb
  in
  {
    sd_add_inter = add_inter;
    sd_del_inter = del_inter;
    sd_add_intra = add_intra;
    sd_del_intra = del_intra;
    sd_exiting_flips =
      Ids.Node_tbl.fold
        (fun _ slot n -> n + Ids.Uid_tbl.length slot.ex_touched)
        (broadcast_state t ~node ~bunch).bs_exiting 0;
  }

let rebase_stub_journal t ~node ~bunch =
  let ns = node_state t node in
  (match Ids.Bunch_tbl.find_opt ns.inter_stubs bunch with
  | Some tb -> Hashtbl.reset tb.touched
  | None -> ());
  (match Ids.Bunch_tbl.find_opt ns.intra_stubs bunch with
  | Some tb -> Hashtbl.reset tb.touched
  | None -> ());
  let bs = broadcast_state t ~node ~bunch in
  (* An owner whose last entry went has nothing left to journal. *)
  Ids.Node_tbl.filter_map_inplace
    (fun _ slot ->
      Ids.Uid_tbl.reset slot.ex_touched;
      if Ids.Uid_tbl.length slot.ex_cur = 0 then None else Some slot)
    bs.bs_exiting;
  bs.bs_round <- bs.bs_round + 1

(* ------------------------------------------------------------------ *)
(* Delta-table mirrors (receiver side).                                *)

let mirror_reset t ~node ~sender ~bunch ~seq ~basis ~inter ~intra ~exiting =
  let mirrors = (node_state t node).mirrors in
  let by_bunch =
    match Ids.Node_tbl.find_opt mirrors sender with
    | Some by_bunch -> by_bunch
    | None ->
        let by_bunch = Ids.Bunch_tbl.create 8 in
        Ids.Node_tbl.add mirrors sender by_bunch;
        by_bunch
  in
  let mi_exiting = Ids.Uid_tbl.create (max 16 (2 * List.length exiting)) in
  List.iter (fun uid -> Ids.Uid_tbl.replace mi_exiting uid ()) exiting;
  Ids.Bunch_tbl.replace by_bunch bunch
    { mi_seq = seq; mi_basis = basis; mi_inter = inter; mi_intra = intra; mi_exiting }

let mirror t ~node ~sender ~bunch =
  match Ids.Node_tbl.find_opt (node_state t node).mirrors sender with
  | Some by_bunch -> Ids.Bunch_tbl.find_opt by_bunch bunch
  | None -> None

let mirror_apply t ~node ~sender ~bunch ~basis ~seq ~add_inter ~del_inter
    ~add_intra ~del_intra ~add_exiting ~del_exiting =
  match mirror t ~node ~sender ~bunch with
  | Some m when m.mi_basis = basis ->
      (* The delta covers every edge touched since its basis, so
         deletions are applied before additions: an edge removed and
         later re-added appears only on the add side and must end up
         present. *)
      let fold f set edges = List.fold_left (Fun.flip f) set edges in
      m.mi_inter <-
        fold Inter_edges.add (fold Inter_edges.remove m.mi_inter del_inter)
          add_inter;
      m.mi_intra <-
        fold Intra_edges.add (fold Intra_edges.remove m.mi_intra del_intra)
          add_intra;
      edges_inserted (List.length add_inter + List.length add_intra);
      List.iter (Ids.Uid_tbl.remove m.mi_exiting) del_exiting;
      List.iter (fun uid -> Ids.Uid_tbl.replace m.mi_exiting uid ()) add_exiting;
      (* Basis chaining: this message's transport seq is what the
         sender's next delta on this stream will name as its basis. *)
      m.mi_seq <- seq;
      m.mi_basis <- seq;
      true
  | Some _ | None -> false

let mirror_seq m = m.mi_seq
let mirror_has_inter m edge = Inter_edges.mem edge m.mi_inter
let mirror_has_intra m edge = Intra_edges.mem edge m.mi_intra
let mirror_has_exiting m uid = Ids.Uid_tbl.mem m.mi_exiting uid
let mirror_iter_inter m f = Inter_edges.iter f m.mi_inter
let mirror_iter_intra m f = Intra_edges.iter f m.mi_intra
let mirror_iter_exiting m f = Ids.Uid_tbl.iter (fun uid () -> f uid) m.mi_exiting

(* One ordered lookup per mirror from [sender] but [bunch]'s, each
   charged as a table entry visited: in target-major order, the least
   edge whose target is at least [uid] targets [uid] if any edge of the
   mirror does.  [bunch]'s own mirror holds only edges leaving it (the
   barrier files an inter-bunch stub only across bunches), so it cannot
   claim a uid of [bunch]. *)
let mirror_claims_target t ~node ~sender ~bunch uid =
  match Ids.Node_tbl.find_opt (node_state t node).mirrors sender with
  | None -> false
  | Some by_bunch ->
      let from_uid ((_, target) : Ssp.inter_edge) = target >= uid in
      Ids.Bunch_tbl.fold
        (fun b m claimed ->
          claimed
          || (not (Ids.Bunch.equal b bunch))
             && begin
                  Perfcount.(
                    counters.s_gc_table_entries <- counters.s_gc_table_entries + 1);
                  match Inter_edges.find_first from_uid m.mi_inter with
                  | _, target -> target = uid
                  | exception Not_found -> false
                end)
        by_bunch false

(* ------------------------------------------------------------------ *)

let tbl_total tbl =
  Ids.Bunch_tbl.fold (fun _ tb acc -> acc + Hashtbl.length tb.members) tbl 0

let sample_ssp_gauges t ~node =
  match t.obs with
  | None -> ()
  | Some m ->
      let ns = node_state t node in
      let set name v = Bmx_obs.Metrics.set_gauge m ~node name v in
      (* [tbl_total] folds over per-bunch tables — O(bunches), never
         O(entries), and bunches don't grow with the heap. *)
      Bmx_util.Perfcount.counters.Bmx_util.Perfcount.s_obs_sample_work <-
        Bmx_util.Perfcount.counters.Bmx_util.Perfcount.s_obs_sample_work
        + Ids.Bunch_tbl.length ns.inter_stubs
        + Ids.Bunch_tbl.length ns.intra_stubs
        + Ids.Bunch_tbl.length ns.inter_scions
        + Ids.Bunch_tbl.length ns.intra_scions;
      set "gc.stubs.inter" (tbl_total ns.inter_stubs);
      set "gc.stubs.intra" (tbl_total ns.intra_stubs);
      set "gc.scion_table.inter" (tbl_total ns.inter_scions);
      set "gc.scion_table.intra" (tbl_total ns.intra_scions)

(* Sampled at every GC / cleaner completion: must stay O(1) in the heap.
   The store maintains object, byte and segment counters on
   install/remove, so no iteration happens here — the complexity tests
   assert via [Perfcount.s_obs_sample_work] that sampling cost does not
   scale with the object population. *)
let sample_node_gauges t ~node =
  match t.obs with
  | None -> ()
  | Some m ->
      let store = Bmx_dsm.Protocol.store t.proto node in
      let module Store = Bmx_memory.Store in
      let set name v = Bmx_obs.Metrics.set_gauge m ~node name v in
      Bmx_util.Perfcount.counters.Bmx_util.Perfcount.s_obs_sample_work <-
        Bmx_util.Perfcount.counters.Bmx_util.Perfcount.s_obs_sample_work + 3;
      set "gc.heap.objects" (Store.object_count store);
      set "gc.heap.bytes" (Store.objects_bytes store);
      set "gc.heap.segments" (Store.segment_count store);
      sample_ssp_gauges t ~node

(* One [Obj.reachable_words] walk per row, over a list of every node's
   structures, so what nodes share counts once. *)
let words_held t =
  let words f =
    Obj.reachable_words
      (Obj.repr (Ids.Node_tbl.fold (fun _ ns acc -> f ns :: acc) t.per_node []))
  in
  let kinds =
    [
      ("mirrors", fun ns -> Obj.repr ns.mirrors);
      ("stub tables", fun ns -> Obj.repr (ns.inter_stubs, ns.intra_stubs));
      ("scion tables", fun ns -> Obj.repr (ns.inter_scions, ns.intra_scions));
      ("broadcast records", fun ns -> Obj.repr ns.broadcasts);
    ]
  in
  List.map (fun (kind, f) -> (kind, words f)) kinds
  @ [ ("all four", words (fun ns -> List.map (fun (_, f) -> f ns) kinds)) ]
