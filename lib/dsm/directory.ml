open Bmx_util

type token_state = Invalid | Read | Write

let token_state_to_string = function
  | Invalid -> "i"
  | Read -> "r"
  | Write -> "w"

type record = {
  uid : Ids.Uid.t;
  mutable state : token_state;
  mutable held : bool;
  mutable is_owner : bool;
  mutable prob_owner : Ids.Node.t;
  mutable copyset : Ids.Node_set.t;
}

type t = {
  node : Ids.Node.t;
  records : record Ids.Uid_tbl.t;
  (* uid -> (origin node -> registration seq) *)
  entering : (Ids.Node.t, int) Hashtbl.t Ids.Uid_tbl.t;
  (* origin node -> uids with a live entering entry from it.  The scion
     cleaner reconciles one sender's entries per table message; without
     this index every table received would rescan the node's whole
     entering set — O(heap) per message at scale. *)
  entering_by_origin : (Ids.Node.t, unit Ids.Uid_tbl.t) Hashtbl.t;
  (* Memoized sorted [entering_uids] — the BGC root computation asks for
     it on every run; rebuilding costs O(E log E) only per mutation
     epoch, not per collection. *)
  mutable entering_uids_cache : Ids.Uid.t list option;
  (* Mutation epoch: bumped on every change that can alter a BGC's result
     — record creation/forgetting, ownership moves (via [touch], called
     by the protocol when it rewrites is_owner/prob_owner), and entering
     membership changes.  Token-state and copyset churn does not bump:
     the collector traces cached copies regardless of their consistency
     state.  Seq advances on an existing entering entry do not bump
     either — they only gate cleaner deletions, which happen at message
     receipt, not at collection time. *)
  mutable version : int;
}

let create ~node =
  {
    node;
    records = Ids.Uid_tbl.create 128;
    entering = Ids.Uid_tbl.create 32;
    entering_by_origin = Hashtbl.create 8;
    entering_uids_cache = None;
    version = 0;
  }

let mut_version t = t.version
let touch t = t.version <- t.version + 1

let record t uid = Ids.Uid_tbl.find t.records uid
let find t uid = Ids.Uid_tbl.find_opt t.records uid

let ensure t ~uid ~prob_owner =
  match record t uid with
  | r -> r
  | exception Not_found ->
      let r =
        {
          uid;
          state = Invalid;
          held = false;
          is_owner = false;
          prob_owner;
          copyset = Ids.Node_set.empty;
        }
      in
      touch t;
      Ids.Uid_tbl.add t.records uid r;
      r

let register_new_object t ~uid =
  let r =
    {
      uid;
      state = Write;
      held = false;
      is_owner = true;
      prob_owner = t.node;
      copyset = Ids.Node_set.empty;
    }
  in
  touch t;
  Ids.Uid_tbl.replace t.records uid r;
  r

let forget t uid =
  if Ids.Uid_tbl.mem t.records uid || Ids.Uid_tbl.mem t.entering uid then
    touch t;
  Ids.Uid_tbl.remove t.records uid;
  if Ids.Uid_tbl.mem t.entering uid then t.entering_uids_cache <- None;
  (match Ids.Uid_tbl.find_opt t.entering uid with
  | None -> ()
  | Some tbl ->
      Hashtbl.iter
        (fun from _ ->
          match Hashtbl.find_opt t.entering_by_origin from with
          | Some uids -> Ids.Uid_tbl.remove uids uid
          | None -> ())
        tbl);
  Ids.Uid_tbl.remove t.entering uid

let add_entering t ~seq ~uid ~from =
  if not (Ids.Node.equal from t.node) then begin
    let tbl =
      match Ids.Uid_tbl.find t.entering uid with
      | tbl -> tbl
      | exception Not_found ->
          let tbl = Hashtbl.create 4 in
          Ids.Uid_tbl.add t.entering uid tbl;
          t.entering_uids_cache <- None;
          tbl
    in
    let prev = match Hashtbl.find tbl from with s -> s | exception Not_found -> -1 in
    if seq > prev then Hashtbl.replace tbl from seq;
    let uids =
      match Hashtbl.find t.entering_by_origin from with
      | uids -> uids
      | exception Not_found ->
          let uids = Ids.Uid_tbl.create 16 in
          Hashtbl.add t.entering_by_origin from uids;
          uids
    in
    if not (Ids.Uid_tbl.mem uids uid) then begin
      touch t;
      Ids.Uid_tbl.replace uids uid ()
    end
  end

let remove_entering t ~uid ~from =
  match Ids.Uid_tbl.find_opt t.entering uid with
  | None -> ()
  | Some tbl ->
      if Hashtbl.mem tbl from then touch t;
      Hashtbl.remove tbl from;
      if Hashtbl.length tbl = 0 then begin
        Ids.Uid_tbl.remove t.entering uid;
        t.entering_uids_cache <- None
      end;
      (match Hashtbl.find_opt t.entering_by_origin from with
      | Some uids -> Ids.Uid_tbl.remove uids uid
      | None -> ())

let entering t uid =
  match Ids.Uid_tbl.find_opt t.entering uid with
  | Some tbl -> Hashtbl.fold (fun n _ acc -> Ids.Node_set.add n acc) tbl Ids.Node_set.empty
  | None -> Ids.Node_set.empty

let entering_registration_seq t ~uid ~from =
  match Ids.Uid_tbl.find_opt t.entering uid with
  | Some tbl -> Option.value ~default:0 (Hashtbl.find_opt tbl from)
  | None -> 0

let is_entering_from t ~uid ~from =
  match Ids.Uid_tbl.find_opt t.entering uid with
  | Some tbl -> Hashtbl.mem tbl from
  | None -> false

let fold_entering_from t ~from f acc =
  match Hashtbl.find_opt t.entering_by_origin from with
  | None -> acc
  | Some uids -> Ids.Uid_tbl.fold (fun uid () acc -> f uid acc) uids acc

let entering_uids t =
  match t.entering_uids_cache with
  | Some uids -> uids
  | None ->
      let uids =
        Ids.Uid_tbl.fold
          (fun uid tbl acc -> if Hashtbl.length tbl = 0 then acc else uid :: acc)
          t.entering []
        |> List.sort Ids.Uid.compare
      in
      t.entering_uids_cache <- Some uids;
      uids

let iter t f = Ids.Uid_tbl.iter (fun _ r -> f r) t.records
