(* Exact decremental+incremental reachability over a fixed population.
   See reach.mli for the algorithm; everything here is flat arrays and a
   bit-per-object mark so the driver's legality check never allocates.

   Encoding: edge id [eid = src * arity + slot].  [out_.(eid)] is the
   slot's target index or -1.  In-edges of a node form a doubly-linked
   list threaded through [e_next]/[e_prev] (indexed by eid), with
   [pred_head.(target)] the first eid or -1 — so unlinking an edge on
   overwrite is O(1) and walking a node's predecessors is O(in-degree). *)

module Perfcount = Bmx_util.Perfcount

type t = {
  n : int;
  arity : int;
  out_ : int array; (* n*arity: slot target or -1 *)
  pred_head : int array; (* n: first incoming eid or -1 *)
  e_next : int array; (* n*arity *)
  e_prev : int array; (* n*arity *)
  roots : int array; (* n: root count *)
  reach : Bytes.t; (* mark bitmap, 1 bit per object *)
  (* Preallocated traversal scratch.  [queue] holds each node at most
     once per search (guarded by the mark bit or the stamp); [work] is
     the cascade worklist — pushes are bounded by one per (cleared
     node, out slot), so n*arity entries suffice for any single event. *)
  queue : int array;
  stamp : int array;
  mutable cur_stamp : int;
  work : int array;
}

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let k = i lsr 3 in
  Bytes.unsafe_set b k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (i land 7))))

let bit_clear b i =
  let k = i lsr 3 in
  Bytes.unsafe_set b k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) land lnot (1 lsl (i land 7)) land 0xff))

let create ~n ~arity =
  if n <= 0 || arity < 0 then invalid_arg "Reach.create";
  let ne = max 1 (n * arity) in
  {
    n;
    arity;
    out_ = Array.make ne (-1);
    pred_head = Array.make n (-1);
    e_next = Array.make ne (-1);
    e_prev = Array.make ne (-1);
    roots = Array.make n 0;
    reach = Bytes.make ((n + 7) lsr 3) '\000';
    queue = Array.make n 0;
    stamp = Array.make n 0;
    cur_stamp = 0;
    work = Array.make (ne + 1) 0;
  }

let reset t =
  Array.fill t.out_ 0 (Array.length t.out_) (-1);
  Array.fill t.pred_head 0 t.n (-1);
  Array.fill t.e_next 0 (Array.length t.e_next) (-1);
  Array.fill t.e_prev 0 (Array.length t.e_prev) (-1);
  Array.fill t.roots 0 t.n 0;
  Bytes.fill t.reach 0 (Bytes.length t.reach) '\000'

let reachable t i = bit_get t.reach i

let touched k =
  Perfcount.counters.Perfcount.s_reach_nodes_touched <-
    Perfcount.counters.Perfcount.s_reach_nodes_touched + k

(* Mark [start] and everything newly reachable through it. *)
let mark_forward t start =
  if not (bit_get t.reach start) then begin
    bit_set t.reach start;
    t.queue.(0) <- start;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let x = t.queue.(!head) in
      incr head;
      touched 1;
      let base = x * t.arity in
      for s = 0 to t.arity - 1 do
        let y = t.out_.(base + s) in
        if y >= 0 && not (bit_get t.reach y) then begin
          bit_set t.reach y;
          t.queue.(!tail) <- y;
          incr tail
        end
      done
    done
  end

let link_edge t eid target =
  let h = t.pred_head.(target) in
  t.e_prev.(eid) <- -1;
  t.e_next.(eid) <- h;
  if h >= 0 then t.e_prev.(h) <- eid;
  t.pred_head.(target) <- eid

let unlink_edge t eid target =
  let p = t.e_prev.(eid) and nx = t.e_next.(eid) in
  if p >= 0 then t.e_next.(p) <- nx else t.pred_head.(target) <- nx;
  if nx >= 0 then t.e_prev.(nx) <- p;
  t.e_next.(eid) <- -1;
  t.e_prev.(eid) <- -1

(* A support of [j0] vanished: re-derive its reachability, cascading to
   dependents.  The worklist holds candidates whose support may be gone;
   for each still-marked, root-free candidate we search backward through
   marked predecessors.  Finding a rooted anchor proves a live path (the
   backward walk is a real path in the graph, and marks never understate
   reachability, so the walk only crosses genuinely usable edges).
   Exhausting a rootless closure proves every member dead: a rooted path
   into the closure would have put its entry point — and then the root
   itself — into the search.  Clearing the closure may orphan its
   out-targets, so those re-enter the worklist. *)
let on_support_lost t j0 =
  let wh = ref 0 and wt = ref 0 in
  t.work.(0) <- j0;
  wt := 1;
  while !wh < !wt do
    let j = t.work.(!wh) in
    incr wh;
    if bit_get t.reach j && t.roots.(j) = 0 then begin
      t.cur_stamp <- t.cur_stamp + 1;
      let st = t.cur_stamp in
      t.queue.(0) <- j;
      t.stamp.(j) <- st;
      let head = ref 0 and tail = ref 1 in
      let anchored = ref false in
      while (not !anchored) && !head < !tail do
        let x = t.queue.(!head) in
        incr head;
        touched 1;
        if t.roots.(x) > 0 then anchored := true
        else begin
          let e = ref t.pred_head.(x) in
          while !e >= 0 do
            let p = !e / t.arity in
            if bit_get t.reach p && t.stamp.(p) <> st then begin
              t.stamp.(p) <- st;
              t.queue.(!tail) <- p;
              incr tail
            end;
            e := t.e_next.(!e)
          done
        end
      done;
      if not !anchored then begin
        (* queue.(0 .. tail-1) is the whole rootless backward closure. *)
        for k = 0 to !tail - 1 do
          bit_clear t.reach t.queue.(k)
        done;
        for k = 0 to !tail - 1 do
          let base = t.queue.(k) * t.arity in
          for s = 0 to t.arity - 1 do
            let y = t.out_.(base + s) in
            if y >= 0 && bit_get t.reach y then begin
              t.work.(!wt) <- y;
              incr wt
            end
          done
        done
      end
    end
  done

let set_edge t ~src ~slot target =
  if src < 0 || src >= t.n || slot < 0 || slot >= t.arity then
    invalid_arg "Reach.set_edge";
  if target >= t.n then invalid_arg "Reach.set_edge: target out of range";
  let eid = (src * t.arity) + slot in
  let old = t.out_.(eid) in
  if old <> target then begin
    if old >= 0 then unlink_edge t eid old;
    t.out_.(eid) <- target;
    if target >= 0 then begin
      link_edge t eid target;
      if bit_get t.reach src then mark_forward t target
    end;
    if old >= 0 then begin
      Perfcount.counters.Perfcount.s_memo_invalidations <-
        Perfcount.counters.Perfcount.s_memo_invalidations + 1;
      on_support_lost t old
    end
  end

let add_root t i =
  if i < 0 || i >= t.n then invalid_arg "Reach.add_root";
  t.roots.(i) <- t.roots.(i) + 1;
  mark_forward t i

let drop_root t i =
  if i < 0 || i >= t.n then invalid_arg "Reach.drop_root";
  if t.roots.(i) <= 0 then invalid_arg "Reach.drop_root: no root held";
  t.roots.(i) <- t.roots.(i) - 1;
  if t.roots.(i) = 0 then begin
    Perfcount.counters.Perfcount.s_memo_invalidations <-
      Perfcount.counters.Perfcount.s_memo_invalidations + 1;
    on_support_lost t i
  end
