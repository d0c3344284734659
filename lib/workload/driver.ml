open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Value = Bmx_memory.Value

type config = {
  nodes : int;
  bunches : int;
  objects_per_bunch : int;
  out_degree : int;
  cross_bunch_prob : float;
  ops : int;
  write_prob : float;
  relink_prob : float;
  root_churn_prob : float;
  seed : int;
  mode : Bmx_dsm.Protocol.mode;
  update_policy : Bmx_dsm.Protocol.update_policy;
  shards : int;
  locality : int;
}

let default =
  {
    nodes = 4;
    bunches = 4;
    objects_per_bunch = 64;
    out_degree = 2;
    cross_bunch_prob = 0.2;
    ops = 2000;
    write_prob = 0.4;
    relink_prob = 0.3;
    root_churn_prob = 0.02;
    seed = 7;
    mode = Bmx_dsm.Protocol.Distributed;
    update_policy = Bmx_dsm.Protocol.Lazy;
    shards = 1;
    locality = 0;
  }

type t = {
  cfg : config;
  cluster : Cluster.t;
  objects : Addr.t array;
  (* Per node: the address under which the local mutator knows object i. *)
  handles : Addr.t array Ids.Node_tbl.t;
  rng : Rng.t;
  node_arr : Ids.Node.t array; (* cached — random_node must not allocate *)
  uids : Ids.Uid.t array; (* uid of object i (stable for its lifetime) *)
  uid_index : int Ids.Uid_tbl.t; (* uid -> population index *)
  reach : Reach.t; (* incremental legality memo (mirror of the cluster) *)
  (* Rooted set as a ring buffer: churn pops the oldest and pushes the
     newest — O(1), where the old list append was O(live roots). *)
  mutable root_nodes : Ids.Node.t array;
  mutable root_is : int array;
  mutable root_head : int;
  mutable root_len : int;
}

let cluster t = t.cluster

let handle t ~node i =
  match Ids.Node_tbl.find_opt t.handles node with
  | Some arr -> arr.(i)
  | None -> t.objects.(i)

let set_handle t ~node i addr =
  match Ids.Node_tbl.find_opt t.handles node with
  | Some arr -> arr.(i) <- addr
  | None -> ()

let live_roots t = t.root_len

(* --- rooted-set ring buffer ------------------------------------------- *)

let root_push t node i =
  let cap = Array.length t.root_is in
  if t.root_len = cap then begin
    let cap' = max 8 (2 * cap) in
    let nodes' = Array.make cap' node and is' = Array.make cap' 0 in
    for k = 0 to t.root_len - 1 do
      let src = (t.root_head + k) mod cap in
      nodes'.(k) <- t.root_nodes.(src);
      is'.(k) <- t.root_is.(src)
    done;
    t.root_nodes <- nodes';
    t.root_is <- is';
    t.root_head <- 0
  end;
  let cap = Array.length t.root_is in
  let at = (t.root_head + t.root_len) mod cap in
  t.root_nodes.(at) <- node;
  t.root_is.(at) <- i;
  t.root_len <- t.root_len + 1

let root_pop t =
  let cap = Array.length t.root_is in
  let node = t.root_nodes.(t.root_head) and i = t.root_is.(t.root_head) in
  t.root_head <- (t.root_head + 1) mod cap;
  t.root_len <- t.root_len - 1;
  (node, i)

(* --- legality memo ----------------------------------------------------- *)

(* A mutator can only name objects it can reach from a root: pointers come
   from roots or from fields of reachable objects.  The handle table is a
   testing convenience and must not resurrect unreachable objects. *)
let uid_of_handle t addr = Protocol.uid_of_addr (Cluster.proto t.cluster) addr

(* Legality of operating on population index [i] through [addr]: the
   object must be reachable AND the handle must still be a mapped name
   for it (a node that slept through enough collections can hold an
   address whose forwarder chain has been retired; the op on it would
   fail, so a real mutator could not issue it). *)
let legal t i addr =
  Reach.reachable t.reach i && uid_of_handle t addr <> None

(* Rebuild the mirror from cluster truth: per-slot edges read from each
   object's owner copy (the audit's authoritative-graph rule, with the
   same stale-replica fallback), roots from every node's root set.
   O(population) — run once per batch, amortized over the batch's ops. *)
let resync t =
  Perfcount.counters.Perfcount.s_memo_resyncs <-
    Perfcount.counters.Perfcount.s_memo_resyncs + 1;
  Reach.reset t.reach;
  let proto = Cluster.proto t.cluster in
  let module Store = Bmx_memory.Store in
  let module Heap_obj = Bmx_memory.Heap_obj in
  let copy_at node uid =
    let store = Protocol.store proto node in
    match Store.addr_of_uid store uid with
    | None -> None
    | Some a -> (
        match Store.resolve store a with
        | Some (_, obj) -> Some obj
        | None -> None)
  in
  let arity = t.cfg.out_degree in
  Array.iteri
    (fun i uid ->
      let obj =
        match Protocol.owner_of proto uid with
        | Some owner when copy_at owner uid <> None -> copy_at owner uid
        | Some _ | None -> (
            match Protocol.replica_nodes proto uid with
            | n :: _ -> copy_at n uid
            | [] -> None)
      in
      match obj with
      | None -> () (* reclaimed — unreachable, no edges *)
      | Some obj ->
          Heap_obj.iteri_pointers obj (fun slot target ->
              if slot < arity then
                match Protocol.uid_of_addr proto target with
                | Some tu -> (
                    match Ids.Uid_tbl.find_opt t.uid_index tu with
                    | Some j -> Reach.set_edge t.reach ~src:i ~slot j
                    | None -> ())
                | None -> ()))
    t.uids;
  List.iter
    (fun node ->
      List.iter
        (fun addr ->
          match Protocol.uid_of_addr proto addr with
          | Some uid -> (
              match Ids.Uid_tbl.find_opt t.uid_index uid with
              | Some i -> Reach.add_root t.reach i
              | None -> ())
          | None -> ())
        (Cluster.roots t.cluster ~node))
    (Cluster.nodes t.cluster)

let setup cfg =
  let c =
    Cluster.create ~nodes:cfg.nodes ~shards:cfg.shards ~mode:cfg.mode
      ~update_policy:cfg.update_policy ~seed:cfg.seed ()
  in
  let rng = Rng.make (cfg.seed * 31) in
  let nodes = Cluster.nodes c in
  let node_arr = Array.of_list nodes in
  let bunches =
    List.init cfg.bunches (fun i ->
        Cluster.new_bunch c ~home:node_arr.(i mod Array.length node_arr))
  in
  (* Each bunch's population is created at its home node; edges through
     the barrier. *)
  let objects =
    Graphgen.random_graph ~window:cfg.locality c ~rng ~node:node_arr.(0)
      ~bunches
      ~objects:(cfg.bunches * cfg.objects_per_bunch)
      ~out_degree:cfg.out_degree ~cross_bunch_prob:cfg.cross_bunch_prob
  in
  let proto = Cluster.proto c in
  let uids =
    Array.map
      (fun addr ->
        match Protocol.uid_of_addr proto addr with
        | Some uid -> uid
        | None -> failwith "Driver.setup: fresh object has no uid")
      objects
  in
  let uid_index = Ids.Uid_tbl.create (Array.length objects) in
  Array.iteri (fun i uid -> Ids.Uid_tbl.replace uid_index uid i) uids;
  let t =
    {
      cfg;
      cluster = c;
      objects;
      handles = Ids.Node_tbl.create cfg.nodes;
      rng;
      node_arr;
      uids;
      uid_index;
      reach = Reach.create ~n:(Array.length objects) ~arity:cfg.out_degree;
      root_nodes = Array.make 8 node_arr.(0);
      root_is = Array.make 8 0;
      root_head = 0;
      root_len = 0;
    }
  in
  List.iter
    (fun n -> Ids.Node_tbl.add t.handles n (Array.copy objects))
    nodes;
  (* Root a quarter of the population, spread over the nodes, and give
     every node a replicated working set. *)
  Array.iteri
    (fun i addr ->
      if i mod 4 = 0 then begin
        let node = node_arr.(i mod Array.length node_arr) in
        let a = Cluster.acquire_read c ~node addr in
        Cluster.release c ~node a;
        set_handle t ~node i a;
        Cluster.add_root c ~node a;
        root_push t node i
      end)
    objects;
  ignore (Cluster.drain c);
  resync t;
  t

let random_node t = t.node_arr.(Rng.int t.rng (Array.length t.node_arr))

(* Locality window: node [n] works on objects of bunches
   [n .. n+locality-1] (mod bunches).  Objects are laid out round-robin
   (object [i] lives in bunch [i mod bunches]), so a window pick is pure
   index arithmetic.  A fixed window keeps the per-node working set
   constant as the cluster grows — the property the e22 scaling sweep
   depends on for flat per-node traffic. *)
let pick_local t node =
  let nb = t.cfg.bunches in
  let per = max 1 (Array.length t.objects / nb) in
  let w = Rng.int t.rng (min t.cfg.locality nb) in
  let b = (node + w) mod nb in
  min (Array.length t.objects - 1) ((Rng.int t.rng per * nb) + b)

let one_op t =
  let c = t.cluster in
  (* locality = 0 keeps the historical draw order (object then node) so
     existing seeded runs replay identically. *)
  let i, node =
    if t.cfg.locality <= 0 then
      let i = Rng.int t.rng (Array.length t.objects) in
      (i, random_node t)
    else
      let node = random_node t in
      (pick_local t node, node)
  in
  let addr = handle t ~node i in
  if not (legal t i addr) then () else
  if Rng.float t.rng 1.0 < t.cfg.root_churn_prob && t.root_len > 0 then begin
    (* Root churn: drop one root, add another — this is what creates
       garbage for the collector to find. *)
    let rn, ri = root_pop t in
    let removed = Cluster.remove_root_checked c ~node:rn (handle t ~node:rn ri) in
    if removed then Reach.drop_root t.reach ri;
    let a = Cluster.acquire_read c ~node addr in
    Cluster.release c ~node a;
    set_handle t ~node i a;
    Cluster.add_root c ~node a;
    root_push t node i;
    Reach.add_root t.reach i
  end
  else if Rng.float t.rng 1.0 < t.cfg.write_prob then begin
    let a = Cluster.acquire_write c ~node addr in
    set_handle t ~node i a;
    if Rng.float t.rng 1.0 < t.cfg.relink_prob && t.cfg.out_degree > 0 then begin
      let j =
        if t.cfg.locality <= 0 then Rng.int t.rng (Array.length t.objects)
        else pick_local t node
      in
      let field = Rng.int t.rng t.cfg.out_degree in
      let target = handle t ~node j in
      let alive = legal t j target in
      if alive then Cluster.write c ~node a field (Value.Ref target)
      else Cluster.write c ~node a field Value.nil;
      Reach.set_edge t.reach ~src:i ~slot:field (if alive then j else -1)
    end
    else
      Cluster.write c ~node a t.cfg.out_degree (Value.Data (Rng.int t.rng 1000));
    Cluster.release c ~node a
  end
  else begin
    let a = Cluster.acquire_read c ~node addr in
    set_handle t ~node i a;
    ignore (Cluster.read c ~node a t.cfg.out_degree);
    Cluster.release c ~node a
  end

let run_ops t ?(resync_first = true) ?ops () =
  let n = match ops with Some n -> n | None -> t.cfg.ops in
  (* Callers may have mutated the cluster directly (crashes, manual
     writes) since the last batch: trust nothing across the boundary.
     [resync_first:false] skips the O(population) re-extraction for
     callers that know only driver ops have run — the complexity tests
     use it to measure the steady-state per-op cost in isolation. *)
  if resync_first then resync t;
  for _ = 1 to n do
    (* An op may target an object that has legitimately died (its roots
       were all dropped and a collection ran): real mutators cannot name
       such objects, but the driver keeps raw handles.  Skip those ops. *)
    try one_op t with Failure _ -> ()
  done

let check_memo t =
  let truth = Bmx.Audit.union_reachable t.cluster in
  let bad = ref [] in
  Array.iteri
    (fun i uid ->
      let mirror = Reach.reachable t.reach i in
      let oracle = Ids.Uid_set.mem uid truth in
      if mirror <> oracle then bad := (i, mirror, oracle) :: !bad)
    t.uids;
  match !bad with
  | [] -> Ok ()
  | l ->
      Error
        (Printf.sprintf "legality memo diverged on %d object(s): %s"
           (List.length l)
           (String.concat ", "
              (List.map
                 (fun (i, m, o) ->
                   Printf.sprintf "#%d mirror=%b oracle=%b" i m o)
                 (List.filteri (fun k _ -> k < 8) (List.rev l)))))
