open Bmx_util

let wire_size a b = Varint.size a + Varint.size b
let edge_bytes (a, b) = wire_size a b

let edges_inserted n =
  Perfcount.(counters.s_gc_edges_inserted <- counters.s_gc_edges_inserted + n)

(* ------------------------------------------------------------------ *)
(* Edge sets: what a full ships and a mirror holds, in wire order.

   Each set is ordered by a major id, then a minor one: inter edges
   (source, target) target-major, so a mirror's edges into one uid are
   adjacent; intra edges (uid, holder) uid-major.  A full walks a set in
   that order and writes each edge as two unsigned integers relative to
   the edge before it, the first edge relative to (0, 0): the major
   id's difference, then the minor id's difference when the major ids
   are equal and the minor id itself otherwise.  In set order neither
   is ever negative.  [gap_code] is that rule, the only one: the
   encoding and the kept sets' byte sums go through it, and
   [gap_decode] is its inverse. *)

module type EDGES = sig
  include Set.S with type elt = int * int

  val order : elt -> elt -> int
  val gap : prev:elt -> elt -> (int -> int -> 'a) -> 'a
end

let gap_code ~pmajor ~pminor ~major ~minor k =
  let d = major - pmajor in
  k d (if d = 0 then minor - pminor else minor)

(* The major and minor ids of the edge after ([pmajor], [pminor]) whose
   wire integers are [d] and [m], refusing an edge that does not sort
   strictly after it and a sum past [max_int]. *)
let gap_decode ~pmajor ~pminor ~first d m k =
  let sum a b =
    let s = a + b in
    if s < a then invalid_arg "Gc_state.of_gap: id past max_int";
    s
  in
  if d = 0 && m = 0 && not first then
    invalid_arg "Gc_state.of_gap: edge not after its predecessor";
  let major = sum pmajor d in
  k major (if d = 0 then sum pminor m else m)

module Inter_edges = struct
  let order (s1, t1) (s2, t2) =
    match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

  include Set.Make (struct
    type t = Ssp.inter_edge
    let compare = order
  end)

  let gap ~prev:(ps, pt) (s, t) k = gap_code ~pmajor:pt ~pminor:ps ~major:t ~minor:s k

  let of_gap ~prev:(ps, pt) ~first d m =
    gap_decode ~pmajor:pt ~pminor:ps ~first d m (fun t s -> (s, t))
end

module Intra_edges = struct
  let order (u1, n1) (u2, n2) =
    match Int.compare u1 u2 with 0 -> Int.compare n1 n2 | c -> c

  include Set.Make (struct
    type t = Ssp.intra_edge
    let compare = order
  end)

  let gap ~prev:(pu, pn) (u, n) k = gap_code ~pmajor:pu ~pminor:pn ~major:u ~minor:n k

  let of_gap ~prev:(pu, pn) ~first d m =
    gap_decode ~pmajor:pu ~pminor:pn ~first d m (fun u n -> (u, n))
end

(* ------------------------------------------------------------------ *)
(* SSP tables.

   A table is the set of its entries, [members], and one index that
   files each entry under the int [index_of] reads from it: for a stub
   table, the uid the §5 invariant-3 hook queries (inter stubs: the
   source object; intra stubs: the object itself); for a scion table,
   the stub side's node, which the scion cleaner's per-sender sweeps
   query.  Readers iterate over the members or count them: a table
   keeps no order.

   A stub table also tracks its {e edges} ([keys]: [edge_of] gives the
   stream-relative key {!Ssp.inter_stub_edge}/{!Ssp.intra_stub_edge}).
   [edges] counts the records per edge, and [touched] journals every
   edge whose presence flipped since the last {!rebase_stub_journal}.
   The scion cleaner derives reachability-table deltas from it (added =
   touched edge still present, removed = touched edge now absent).
   Cumulative since the journal base, the delta applies correctly to a
   mirror in any state between the base and now.  Working on edges
   rather than records means a BGC that merely relocates targets (new
   addresses, same edges) journals nothing.

   Beside them a stub table keeps its distinct edges as the immutable
   set a full ships ([kept], in the set's wire order) and that set's
   gap-coded size ([kept_bytes]), so a full is priced and built
   without a walk of the table.  A flip touches only the counts and the
   journal; a read of the set or its sum folds the journal into both
   first.  Each touched edge the set disagrees with [edges] about goes
   in or out in O(log n), and the sum moves by what the edge costs
   between its neighbours; a fold into the empty set sorts the edge
   counts instead.  A rebase folds before it clears the journal. *)

type ('a, 's) table = {
  members : ('a, unit) Hashtbl.t;
  index_of : 'a -> int;
  index : ('a, unit) Hashtbl.t Ids.Uid_tbl.t; (* members by [index_of] *)
  keys : ('a, 's) keys option; (* stub tables only *)
}

and ('a, 's) keys = {
  edge_of : 'a -> int * int;
  set : (module EDGES with type t = 's);
  edges : (int * int, int) Hashtbl.t; (* records per edge *)
  touched : (int * int, unit) Hashtbl.t;
  mutable kept : 's; (* [edges]' keys as of the last fold *)
  mutable kept_bytes : int; (* [kept] gap-coded *)
  mutable folded : bool; (* no flip journalled since the last fold *)
}

let t_make ?keys index_of =
  { members = Hashtbl.create 16; index_of; index = Ids.Uid_tbl.create 8; keys }

let make_keys (type s) (set : (module EDGES with type t = s)) edge_of =
  let module S = (val set) in
  {
    edge_of;
    set;
    edges = Hashtbl.create 16;
    touched = Hashtbl.create 16;
    kept = S.empty;
    kept_bytes = 0;
    folded = true;
  }

(* Put [e] into the kept set ([d] = 1) or take it out ([d] = -1), and
   move the sum by what [e] costs between its neighbours:
   cost(pred → e) + cost(e → succ) − cost(pred → succ), where the first
   edge's predecessor is (0, 0). *)
let keep_flip (type s) (k : (_, s) keys) e d =
  let module S = (val k.set) in
  let pred =
    match S.find_last (fun x -> S.order x e < 0) k.kept with
    | p -> p
    | exception Not_found -> (0, 0)
  in
  let around =
    S.gap ~prev:pred e wire_size
    +
    match S.find_first (fun x -> S.order x e > 0) k.kept with
    | succ -> S.gap ~prev:e succ wire_size - S.gap ~prev:pred succ wire_size
    | exception Not_found -> 0
  in
  k.kept_bytes <- k.kept_bytes + (d * around);
  if d > 0 then begin
    k.kept <- S.add e k.kept;
    edges_inserted 1
  end
  else k.kept <- S.remove e k.kept

(* [k] with its kept set and sum brought up to [edges].  The journal
   holds every edge flipped since the last rebase (since the table was
   made, before the first), and a rebase folds first, so flipping each
   touched edge the set disagrees about is enough.  An edge it already
   agrees about is skipped: a journal folded twice flips nothing
   twice.  Into an empty set — a table's first fold, which meets every
   edge it holds — one sort of the edge counts and one walk do the same
   work for far fewer words than an insertion per edge. *)
let fold_journal (type s) (k : (_, s) keys) =
  if not k.folded then begin
    let module S = (val k.set) in
    if S.is_empty k.kept then begin
      let set = S.of_list (Hashtbl.fold (fun e _ acc -> e :: acc) k.edges []) in
      let prev = ref (0, 0) and bytes = ref 0 in
      S.iter
        (fun e ->
          bytes := !bytes + S.gap ~prev:!prev e wire_size;
          prev := e)
        set;
      edges_inserted (Hashtbl.length k.edges);
      k.kept <- set;
      k.kept_bytes <- !bytes
    end
    else
      Hashtbl.iter
        (fun e () ->
          let present = Hashtbl.mem k.edges e in
          if present <> S.mem e k.kept then keep_flip k e (if present then 1 else -1))
        k.touched;
    k.folded <- true
  end;
  k

(* Count one record of [x]'s edge in or out ([d] = 1 or -1); an edge
   whose count flips between 0 and 1 is journalled. *)
let t_edge tb x d =
  match tb.keys with
  | None -> ()
  | Some k ->
      let e = k.edge_of x in
      let c = match Hashtbl.find k.edges e with c -> c | exception Not_found -> 0 in
      if c + d = 0 then Hashtbl.remove k.edges e
      else Hashtbl.replace k.edges e (c + d);
      if c = 0 || c + d = 0 then begin
        Hashtbl.replace k.touched e ();
        k.folded <- false
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
   Every sender is another node: a node checks its own scions against
   its own stub tables, and keeps no mirror of them.
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
  inter_stubs : (Ssp.inter_stub, Inter_edges.t) table Ids.Bunch_tbl.t;
      (* by source bunch; holds only stubs created at this node *)
  intra_stubs : (Ssp.intra_stub, Intra_edges.t) table Ids.Bunch_tbl.t;
  (* scion tables keep no edges *)
  inter_scions : (Ssp.inter_scion, unit) table Ids.Bunch_tbl.t; (* by target bunch *)
  intra_scions : (Ssp.intra_scion, unit) table Ids.Bunch_tbl.t;
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

let make_inter_stub_table () =
  t_make
    ~keys:(make_keys (module Inter_edges) Ssp.inter_stub_edge)
    (fun (s : Ssp.inter_stub) -> s.Ssp.is_src_uid)

let make_intra_stub_table () =
  t_make
    ~keys:(make_keys (module Intra_edges) Ssp.intra_stub_edge)
    (fun (s : Ssp.intra_stub) -> s.Ssp.ns_uid)

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
let stub_keys tb = Option.get tb.keys
let key_count tb = Hashtbl.length (stub_keys tb).edges

let key_bytes tb = (fold_journal (stub_keys tb)).kept_bytes

let inter_stubs t ~node ~bunch = tbl_list (node_state t node).inter_stubs bunch
let intra_stubs t ~node ~bunch = tbl_list (node_state t node).intra_stubs bunch

let stub_holders t ~node ~bunch =
  let ns = node_state t node in
  tbl_fold ns.inter_stubs bunch
    (fun (s : Ssp.inter_stub) acc -> Ids.Node_set.add s.Ssp.is_scion_at acc)
    (tbl_fold ns.intra_stubs bunch
       (fun (s : Ssp.intra_stub) acc -> Ids.Node_set.add s.Ssp.ns_holder acc)
       Ids.Node_set.empty)

let tbl_kept empty tbl bunch =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb -> (fold_journal (stub_keys tb)).kept
  | exception Not_found -> empty

let inter_stub_keys t ~node ~bunch =
  tbl_kept Inter_edges.empty (node_state t node).inter_stubs bunch

let intra_stub_keys t ~node ~bunch =
  tbl_kept Intra_edges.empty (node_state t node).intra_stubs bunch

let inter_stub_count t ~node ~bunch =
  tbl_count records (node_state t node).inter_stubs bunch

let intra_stub_count t ~node ~bunch =
  tbl_count records (node_state t node).intra_stubs bunch

let inter_key_count t ~node ~bunch =
  tbl_count key_count (node_state t node).inter_stubs bunch

let intra_key_count t ~node ~bunch =
  tbl_count key_count (node_state t node).intra_stubs bunch

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
  match Ids.Bunch_tbl.find ns.last_bgc bunch with
  | e -> e = dirty_epoch t ~node
  | exception Not_found -> false

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

(* An index bucket is dropped with its last entry, so membership of the
   key is the emptiness test. *)
let tbl_holds tbl bunch k =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb -> Ids.Uid_tbl.mem tb.index k
  | exception Not_found -> false

let holds_inter_stub_with_src t ~node ~bunch ~uid =
  tbl_holds (node_state t node).inter_stubs bunch uid

let holds_intra_stub_for_uid t ~node ~bunch ~uid =
  tbl_holds (node_state t node).intra_stubs bunch uid

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

let split_touched tbl bunch =
  match Ids.Bunch_tbl.find tbl bunch with
  | tb ->
      let k = stub_keys tb in
      Hashtbl.fold
        (fun e () (added, removed) ->
          if Hashtbl.mem k.edges e then (e :: added, removed)
          else (added, e :: removed))
        k.touched ([], [])
  | exception Not_found -> ([], [])

let find_broadcast_state t ~node ~bunch =
  Ids.Bunch_tbl.find (node_state t node).broadcasts bunch

let broadcast_state t ~node ~bunch =
  match find_broadcast_state t ~node ~bunch with
  | bs -> bs
  | exception Not_found ->
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
        match Ids.Node_tbl.find slots owner with
        | slot -> slot
        | exception Not_found ->
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
  match Ids.Node_tbl.find bs.bs_exiting owner with
  | slot -> Ids.Uid_tbl.fold (fun uid _ acc -> uid :: acc) slot.ex_cur []
  | exception Not_found -> []

let exiting_count_to bs ~owner =
  match Ids.Node_tbl.find bs.bs_exiting owner with
  | slot -> Ids.Uid_tbl.length slot.ex_cur
  | exception Not_found -> 0

let exiting_bytes_to bs ~owner =
  match Ids.Node_tbl.find bs.bs_exiting owner with
  | slot -> slot.ex_bytes
  | exception Not_found -> 0

let exiting_delta_to bs ~owner =
  match Ids.Node_tbl.find bs.bs_exiting owner with
  | slot ->
      Ids.Uid_tbl.fold
        (fun uid () (a, d) ->
          if Ids.Uid_tbl.mem slot.ex_cur uid then (uid :: a, d) else (a, uid :: d))
        slot.ex_touched ([], [])
  | exception Not_found -> ([], [])

let current_exiting t ~node ~bunch =
  match find_broadcast_state t ~node ~bunch with
  | bs ->
      Ids.Node_tbl.fold
        (fun owner slot acc ->
          Ids.Uid_tbl.fold (fun uid _ acc -> (uid, owner) :: acc) slot.ex_cur acc)
        bs.bs_exiting []
  | exception Not_found -> []

let stub_delta t ~node ~bunch =
  let ns = node_state t node in
  let add_inter, del_inter = split_touched ns.inter_stubs bunch in
  let add_intra, del_intra = split_touched ns.intra_stubs bunch in
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
  let rebase tbl =
    match Ids.Bunch_tbl.find tbl bunch with
    | tb -> Hashtbl.reset (fold_journal (stub_keys tb)).touched
    | exception Not_found -> ()
  in
  rebase ns.inter_stubs;
  rebase ns.intra_stubs;
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
    match Ids.Node_tbl.find mirrors sender with
    | by_bunch -> by_bunch
    | exception Not_found ->
        let by_bunch = Ids.Bunch_tbl.create 8 in
        Ids.Node_tbl.add mirrors sender by_bunch;
        by_bunch
  in
  let mi_exiting = Ids.Uid_tbl.create (max 16 (2 * List.length exiting)) in
  List.iter (fun uid -> Ids.Uid_tbl.replace mi_exiting uid ()) exiting;
  Ids.Bunch_tbl.replace by_bunch bunch
    { mi_seq = seq; mi_basis = basis; mi_inter = inter; mi_intra = intra; mi_exiting }

let mirror t ~node ~sender ~bunch =
  Ids.Bunch_tbl.find (Ids.Node_tbl.find (node_state t node).mirrors sender) bunch

let mirror_apply t ~node ~sender ~bunch ~basis ~seq ~add_inter ~del_inter
    ~add_intra ~del_intra ~add_exiting ~del_exiting =
  match mirror t ~node ~sender ~bunch with
  | m when m.mi_basis = basis ->
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
  | _ | (exception Not_found) -> false

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
  match Ids.Node_tbl.find (node_state t node).mirrors sender with
  | exception Not_found -> false
  | by_bunch ->
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
