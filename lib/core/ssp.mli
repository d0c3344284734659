(** Stub–scion pairs (§3.1).

    SSPs isolate each bunch replica so it can be collected with purely
    local information.  A {e stub} describes an outgoing reference held by
    this replica; the matching {e scion} is a GC root at the side being
    referenced.  Unlike the SSPs of RPC systems, they are auxiliary
    descriptions only: no indirection, no marshaling.

    Two kinds exist:

    - an {b inter-bunch SSP} follows the direction of a cross-bunch
      reference: stub at the node that created the reference (which held
      the write token, so it was the object's owner at the time), scion at
      a node where the target bunch is mapped;
    - an {b intra-bunch SSP} points {e against} the ownerPtr direction: the
      stub lives at the object's current owner and the scion at a previous
      owner that still holds inter-bunch stubs for the object, preserving
      that replica — and through it the inter-bunch stubs — until the
      owner-side copy dies (§3.2, §6.2). *)

type inter_stub = {
  is_src_bunch : Bmx_util.Ids.Bunch.t;  (** bunch of the referencing object *)
  is_src_uid : Bmx_util.Ids.Uid.t;  (** the referencing object *)
  is_created_at : Bmx_util.Ids.Node.t;  (** node holding this stub *)
  is_target_uid : Bmx_util.Ids.Uid.t;
  is_target_bunch : Bmx_util.Ids.Bunch.t;
  is_target_addr : Bmx_util.Addr.t;  (** address of the target at creation *)
  is_scion_at : Bmx_util.Ids.Node.t;  (** node holding the matching scion *)
}

type inter_scion = {
  xs_src_bunch : Bmx_util.Ids.Bunch.t;
  xs_src_uid : Bmx_util.Ids.Uid.t;
  xs_src_node : Bmx_util.Ids.Node.t;  (** node holding the matching stub *)
  xs_target_uid : Bmx_util.Ids.Uid.t;
  xs_target_bunch : Bmx_util.Ids.Bunch.t;
}

type intra_stub = {
  ns_bunch : Bmx_util.Ids.Bunch.t;
  ns_uid : Bmx_util.Ids.Uid.t;
  ns_holder : Bmx_util.Ids.Node.t;
      (** previous owner holding the inter-bunch stub(s); the matching
          scion lives there *)
}

type intra_scion = {
  xn_bunch : Bmx_util.Ids.Bunch.t;
  xn_uid : Bmx_util.Ids.Uid.t;
  xn_owner_side : Bmx_util.Ids.Node.t;
      (** the (then-)current owner holding the matching stub *)
}

(** {1 Match keys}

    Exactly the fields {!inter_stub_matches}/{!intra_stub_matches}
    compare.  Stub records also carry volatile detail (the target's
    address changes whenever the target bunch is copied), so the stub
    tables, table messages and mirrors work on the stream-relative
    {!section-edges} below, and these global keys name a stub across
    streams. *)

type inter_key =
  Bmx_util.Ids.Bunch.t * Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t * Bmx_util.Ids.Uid.t
(** source bunch, source uid, stub-holder node, target uid *)

type intra_key = Bmx_util.Ids.Bunch.t * Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t
(** bunch, uid, scion-holder node *)

val inter_stub_key : inter_stub -> inter_key
val intra_stub_key : intra_stub -> intra_key

(** {1:edges Edge keys}

    A stub table lives at one node for one bunch, and every message
    about it names that (sender, bunch) stream once, so the table, the
    messages and the receivers' mirrors key each stub by its {e edge}:
    the part of its match key the stream does not already say.  An
    inter-bunch stub is filed only at the node that created it, under
    its source bunch ({!Gc_state.add_inter_stub} checks the node), and an
    intra-bunch stub under its bunch, so within one stream the edge and
    the match key determine each other.  Where stubs of different
    streams can meet — the coverage predicates above — the global keys
    stay. *)

type inter_edge = Bmx_util.Ids.Uid.t * Bmx_util.Ids.Uid.t
(** source uid, target uid; the stream supplies the source bunch and the
    stub-holder node *)

type intra_edge = Bmx_util.Ids.Uid.t * Bmx_util.Ids.Node.t
(** uid, scion-holder node; the stream supplies the bunch *)

val inter_stub_edge : inter_stub -> inter_edge
val inter_scion_edge : inter_scion -> inter_edge
val intra_stub_edge : intra_stub -> intra_edge

val intra_scion_edge : holder:Bmx_util.Ids.Node.t -> intra_scion -> intra_edge
(** The edge of the stub that would cover this scion when held at
    [holder]. *)

val inter_key_of_edge :
  sender:Bmx_util.Ids.Node.t -> bunch:Bmx_util.Ids.Bunch.t -> inter_edge -> inter_key
(** The match key of the stub with this edge in [sender]'s table for
    [bunch]. *)

val intra_key_of_edge : bunch:Bmx_util.Ids.Bunch.t -> intra_edge -> intra_key

val inter_stub_matches : inter_stub -> inter_scion -> bool
(** Stub and scion of the same inter-bunch SSP? *)

val intra_stub_matches : holder:Bmx_util.Ids.Node.t -> intra_stub -> intra_scion -> bool
(** Does the stub (held at the scion's [xn_owner_side]) match a scion held
    at [holder]? *)

val pp_inter_stub : Format.formatter -> inter_stub -> unit
val pp_inter_scion : Format.formatter -> inter_scion -> unit
val pp_intra_stub : Format.formatter -> intra_stub -> unit
val pp_intra_scion : Format.formatter -> intra_scion -> unit
