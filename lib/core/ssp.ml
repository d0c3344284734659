open Bmx_util

type inter_stub = {
  is_src_bunch : Ids.Bunch.t;
  is_src_uid : Ids.Uid.t;
  is_created_at : Ids.Node.t;
  is_target_uid : Ids.Uid.t;
  is_target_bunch : Ids.Bunch.t;
  is_target_addr : Addr.t;
  is_scion_at : Ids.Node.t;
}

type inter_scion = {
  xs_src_bunch : Ids.Bunch.t;
  xs_src_uid : Ids.Uid.t;
  xs_src_node : Ids.Node.t;
  xs_target_uid : Ids.Uid.t;
  xs_target_bunch : Ids.Bunch.t;
}

type intra_stub = { ns_bunch : Ids.Bunch.t; ns_uid : Ids.Uid.t; ns_holder : Ids.Node.t }

type intra_scion = {
  xn_bunch : Ids.Bunch.t;
  xn_uid : Ids.Uid.t;
  xn_owner_side : Ids.Node.t;
}

(* Match keys: exactly the fields the coverage predicates below compare.
   Stub records also carry volatile detail — notably the target's address,
   which changes whenever the target bunch is copied — so table journals,
   delta messages and receiver mirrors all work at key granularity
   (stream-relative edges, below): address churn costs no wire bytes and
   cannot perturb scion cleaning. *)

type inter_key = Ids.Bunch.t * Ids.Uid.t * Ids.Node.t * Ids.Uid.t
type intra_key = Ids.Bunch.t * Ids.Uid.t * Ids.Node.t

let inter_stub_key s =
  (s.is_src_bunch, s.is_src_uid, s.is_created_at, s.is_target_uid)

let intra_stub_key s = (s.ns_bunch, s.ns_uid, s.ns_holder)

(* Edge keys: the match key minus what a (node, bunch) stub table's
   stream already names.  Stub tables, table messages and mirrors use
   these. *)

type inter_edge = Ids.Uid.t * Ids.Uid.t
type intra_edge = Ids.Uid.t * Ids.Node.t

let inter_stub_edge s = (s.is_src_uid, s.is_target_uid)
let inter_scion_edge s = (s.xs_src_uid, s.xs_target_uid)
let intra_stub_edge s = (s.ns_uid, s.ns_holder)
let intra_scion_edge ~holder s = (s.xn_uid, holder)
let inter_key_of_edge ~sender ~bunch (src, target) = (bunch, src, sender, target)
let intra_key_of_edge ~bunch (uid, holder) = (bunch, uid, holder)

let inter_stub_matches stub scion =
  Ids.Bunch.equal stub.is_src_bunch scion.xs_src_bunch
  && Ids.Uid.equal stub.is_src_uid scion.xs_src_uid
  && Ids.Node.equal stub.is_created_at scion.xs_src_node
  && Ids.Uid.equal stub.is_target_uid scion.xs_target_uid

let intra_stub_matches ~holder stub scion =
  Ids.Bunch.equal stub.ns_bunch scion.xn_bunch
  && Ids.Uid.equal stub.ns_uid scion.xn_uid
  && Ids.Node.equal stub.ns_holder holder

let pp_inter_stub ppf s =
  Format.fprintf ppf "@[<h>stub[%a:%a@%a -> %a:%a sc@%a]@]" Ids.Bunch.pp
    s.is_src_bunch Ids.Uid.pp s.is_src_uid Ids.Node.pp s.is_created_at
    Ids.Bunch.pp s.is_target_bunch Ids.Uid.pp s.is_target_uid Ids.Node.pp
    s.is_scion_at

let pp_inter_scion ppf s =
  Format.fprintf ppf "@[<h>scion[%a:%a <- %a:%a@%a]@]" Ids.Bunch.pp
    s.xs_target_bunch Ids.Uid.pp s.xs_target_uid Ids.Bunch.pp s.xs_src_bunch
    Ids.Uid.pp s.xs_src_uid Ids.Node.pp s.xs_src_node

let pp_intra_stub ppf s =
  Format.fprintf ppf "@[<h>intra-stub[%a:%a holder=%a]@]" Ids.Bunch.pp s.ns_bunch
    Ids.Uid.pp s.ns_uid Ids.Node.pp s.ns_holder

let pp_intra_scion ppf s =
  Format.fprintf ppf "@[<h>intra-scion[%a:%a owner=%a]@]" Ids.Bunch.pp s.xn_bunch
    Ids.Uid.pp s.xn_uid Ids.Node.pp s.xn_owner_side
