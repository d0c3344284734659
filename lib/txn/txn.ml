open Bmx_util
module Cluster = Bmx.Cluster
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Heap_obj = Bmx_memory.Heap_obj
module Value = Bmx_memory.Value
module Rvm = Bmx_rvm.Rvm

type status = Active | Committed | Aborted

exception Conflict of string

type t = {
  cluster : Cluster.t;
  node : Ids.Node.t;
  mutable status : status;
  read_set : Addr.t Ids.Uid_tbl.t; (* uid -> current local address *)
  write_set : Addr.t Ids.Uid_tbl.t;
  mutable undo : (Ids.Uid.t * int * Value.t) list; (* newest first *)
  mutable allocs : Addr.t list;
}

let status t = t.status

let begin_ cluster ~node =
  {
    cluster;
    node;
    status = Active;
    read_set = Ids.Uid_tbl.create 16;
    write_set = Ids.Uid_tbl.create 16;
    undo = [];
    allocs = [];
  }

let ensure_active t =
  if t.status <> Active then failwith "Txn: transaction is not active"

let proto t = Cluster.proto t.cluster

let uid_of t addr =
  match Protocol.uid_of_addr (proto t) addr with
  | Some uid -> uid
  | None -> failwith "Txn: dangling address"

let acquire t addr kind =
  try Protocol.acquire (proto t) ~node:t.node addr kind
  with Failure msg when msg = "Protocol.acquire: write token held elsewhere"
                        || msg = "Protocol: invalidating a held token (missing release?)"
    -> raise (Conflict msg)

(* The object's current local address under a token this transaction
   already holds, acquiring one if needed. *)
let locked_addr t ~want_write addr =
  let uid = uid_of t addr in
  match Ids.Uid_tbl.find_opt t.write_set uid with
  | Some a -> a
  | None -> (
      match (want_write, Ids.Uid_tbl.find_opt t.read_set uid) with
      | false, Some a -> a
      | true, Some _ | true, None ->
          (* Upgrade or fresh write lock. *)
          let a = acquire t addr `Write in
          Ids.Uid_tbl.remove t.read_set uid;
          Ids.Uid_tbl.replace t.write_set uid a;
          a
      | false, None ->
          let a = acquire t addr `Read in
          Ids.Uid_tbl.replace t.read_set uid a;
          a)

let read t addr i =
  ensure_active t;
  let a = locked_addr t ~want_write:false addr in
  Protocol.read_field (proto t) ~node:t.node a i

let write t addr i v =
  ensure_active t;
  let a = locked_addr t ~want_write:true addr in
  let before = Protocol.read_field (proto t) ~node:t.node a i in
  t.undo <- (uid_of t a, i, before) :: t.undo;
  Bmx_gc.Barrier.write_field (Cluster.gc t.cluster) ~node:t.node a i v

let alloc t ~bunch fields =
  ensure_active t;
  let a = Cluster.alloc t.cluster ~node:t.node ~bunch fields in
  t.allocs <- a :: t.allocs;
  let uid = uid_of t a in
  Ids.Uid_tbl.replace t.write_set uid a;
  a

let release_all t =
  let release _uid a = Protocol.release (proto t) ~node:t.node a in
  Ids.Uid_tbl.iter release t.read_set;
  Ids.Uid_tbl.iter release t.write_set

let commit ?durable t =
  ensure_active t;
  (match durable with
  | None -> ()
  | Some disk ->
      (* One RVM transaction covers the whole write-set: after a crash,
         either every after-image is visible or none (§2.1, §8). *)
      Rvm.begin_tx disk;
      Ids.Uid_tbl.iter
        (fun _uid a ->
          match Store.resolve (Protocol.store (proto t) t.node) a with
          | Some (a', obj) -> Rvm.set disk a' (a', Heap_obj.to_image obj)
          | None -> ())
        t.write_set;
      Rvm.commit disk);
  release_all t;
  t.status <- Committed

let abort t =
  ensure_active t;
  (* Before-images go back in reverse order, under the still-held write
     tokens; restores run through the barrier so restored references
     regain their SSPs. *)
  List.iter
    (fun (uid, i, before) ->
      match Ids.Uid_tbl.find_opt t.write_set uid with
      | Some a -> Bmx_gc.Barrier.write_field (Cluster.gc t.cluster) ~node:t.node a i before
      | None -> ())
    t.undo;
  release_all t;
  t.status <- Aborted

let read_set_size t = Ids.Uid_tbl.length t.read_set
let write_set_size t = Ids.Uid_tbl.length t.write_set
