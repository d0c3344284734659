open Bmx_util
module Cluster = Bmx.Cluster
module Value = Bmx_memory.Value

type config = {
  levels : int;
  assembly_fanout : int;
  comp_per_base : int;
  atomic_per_comp : int;
  part_bunches : int;
  seed : int;
}

let default =
  {
    levels = 3;
    assembly_fanout = 3;
    comp_per_base = 3;
    atomic_per_comp = 8;
    part_bunches = 3;
    seed = 13;
  }

type t = {
  cluster : Cluster.t;
  cfg : config;
  root_addr : Addr.t;
  assembly_bunch : Ids.Bunch.t;
  part_bunch_list : Ids.Bunch.t list;
  mutable objects : int;
  rng : Rng.t;
}

let config t = t.cfg
let size t = t.objects

(* atomic part: [next; build_date].  The atomics of one composite form a
   ring — a connected graph with a cycle, as in OO7's part graphs. *)
let build_part_graph t ~node ~bunch =
  let c = t.cluster in
  let first = Cluster.alloc c ~node ~bunch [| Value.nil; Value.Data 0 |] in
  let rec chain i prev =
    if i = t.cfg.atomic_per_comp then prev
    else begin
      let p = Cluster.alloc c ~node ~bunch [| Value.Ref prev; Value.Data 0 |] in
      chain (i + 1) p
    end
  in
  let last = chain 1 first in
  let first' = Cluster.acquire_write c ~node first in
  Cluster.write c ~node first' 0 (Value.Ref last);
  Cluster.release c ~node first';
  t.objects <- t.objects + t.cfg.atomic_per_comp;
  first'

(* composite part: [atomic_graph; document]. *)
let build_composite t ~node =
  let bunch = List.nth t.part_bunch_list (Rng.int t.rng t.cfg.part_bunches) in
  let atomics = build_part_graph t ~node ~bunch in
  let comp =
    Cluster.alloc t.cluster ~node ~bunch [| Value.Ref atomics; Value.Data 7 |]
  in
  t.objects <- t.objects + 1;
  comp

(* base assembly: [comp_0 .. comp_k-1]; complex assembly: [child_0 ..]. *)
let rec build_assembly t ~node ~depth =
  let c = t.cluster in
  if depth = 0 then begin
    let comps = Array.init t.cfg.comp_per_base (fun _ -> build_composite t ~node) in
    let a =
      Cluster.alloc c ~node ~bunch:t.assembly_bunch
        (Array.map (fun p -> Value.Ref p) comps)
    in
    t.objects <- t.objects + 1;
    a
  end
  else begin
    let kids =
      Array.init t.cfg.assembly_fanout (fun _ ->
          build_assembly t ~node ~depth:(depth - 1))
    in
    let a =
      Cluster.alloc c ~node ~bunch:t.assembly_bunch
        (Array.map (fun k -> Value.Ref k) kids)
    in
    t.objects <- t.objects + 1;
    a
  end

let build c ~node cfg =
  let assembly_bunch = Cluster.new_bunch c ~home:node in
  let part_bunch_list =
    List.init cfg.part_bunches (fun _ -> Cluster.new_bunch c ~home:node)
  in
  let t =
    {
      cluster = c;
      cfg;
      root_addr = Addr.null;
      assembly_bunch;
      part_bunch_list;
      objects = 0;
      rng = Rng.make cfg.seed;
    }
  in
  let root_addr = build_assembly t ~node ~depth:cfg.levels in
  Cluster.add_root c ~node root_addr;
  { t with root_addr }

(* Shared DFS: [on_atomic] gets each atomic part's current address and
   returns its possibly refreshed handle. *)
let traverse t ~node ~on_atomic =
  let c = t.cluster in
  let visited = ref 0 in
  let read_fields addr =
    let a = Cluster.acquire_read c ~node addr in
    let n =
      match Bmx_memory.Store.resolve (Bmx_dsm.Protocol.store (Cluster.proto c) node) a with
      | Some (_, obj) -> Bmx_memory.Heap_obj.num_fields obj
      | None -> 0
    in
    let fields = List.init n (fun i -> Cluster.read c ~node a i) in
    Cluster.release c ~node a;
    fields
  in
  let walk_ring first =
    (* Follow the ring until back at the start. *)
    let rec go addr =
      let addr = on_atomic addr in
      incr visited;
      let a = Cluster.acquire_read c ~node addr in
      let next = Cluster.read c ~node a 0 in
      Cluster.release c ~node a;
      match next with
      | Value.Ref nxt when not (Cluster.ptr_eq c ~node nxt first) -> go nxt
      | _ -> ()
    in
    go first
  in
  let rec walk_assembly addr depth =
    if depth = 0 then
      (* base: fields are composite parts *)
      List.iter
        (fun f ->
          match f with
          | Value.Ref comp -> (
              match read_fields comp with
              | Value.Ref atomic_first :: _ -> walk_ring atomic_first
              | _ -> ())
          | Value.Data _ -> ())
        (read_fields addr)
    else
      List.iter
        (fun f ->
          match f with
          | Value.Ref kid -> walk_assembly kid (depth - 1)
          | Value.Data _ -> ())
        (read_fields addr)
  in
  walk_assembly t.root_addr t.cfg.levels;
  !visited

let t1 t ~node = traverse t ~node ~on_atomic:(fun a -> a)

let t2 t ~node =
  let c = t.cluster in
  traverse t ~node ~on_atomic:(fun addr ->
      let a = Cluster.acquire_write c ~node addr in
      let date =
        match Cluster.read c ~node a 1 with Value.Data d -> d | _ -> 0
      in
      Cluster.write c ~node a 1 (Value.Data (date + 1));
      Cluster.release c ~node a;
      a)

let churn t ~node =
  let c = t.cluster in
  let replaced = ref 0 in
  let rec walk addr depth =
    if depth = 0 then begin
      (* Replace this base assembly's first composite with a fresh one. *)
      let a = Cluster.acquire_write c ~node addr in
      let fresh = build_composite t ~node in
      Cluster.write c ~node a 0 (Value.Ref fresh);
      Cluster.release c ~node a;
      replaced := !replaced + 1 + t.cfg.atomic_per_comp
    end
    else begin
      let a = Cluster.acquire_read c ~node addr in
      let n = t.cfg.assembly_fanout in
      let kids = List.init n (fun i -> Cluster.read c ~node a i) in
      Cluster.release c ~node a;
      List.iter
        (fun f -> match f with Value.Ref kid -> walk kid (depth - 1) | _ -> ())
        kids
    end
  in
  walk t.root_addr t.cfg.levels;
  !replaced
