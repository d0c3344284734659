(** Identifier namespaces used across the BMX subsystems.

    Node identifiers name machines in the simulated network; bunch
    identifiers name bunches (§2.1); object uids give each allocated object
    a stable identity that survives GC copying.  Mutators never see uids —
    they work with addresses and forwarding pointers, exactly as in the
    paper — but the DSM keeps token state per object, and the object's
    address changes when its owner's BGC copies it, so bookkeeping keyed by
    a stable uid mirrors the real system's "the object itself" notion. *)

module type ID = sig
  type t = int

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Node : sig
  include ID

  val invalid : t
  (** Placeholder for "no node"; never a live node id. *)
end

module Bunch : ID

module Uid : sig
  include ID

  (** A fresh-uid source (one per cluster, so runs are deterministic). *)
  type gen

  val generator : unit -> gen
  val fresh : gen -> t
end

(** Hashtables and sets keyed by each id type. *)
module Node_tbl : Hashtbl.S with type key = Node.t
module Bunch_tbl : Hashtbl.S with type key = Bunch.t
module Uid_tbl : Hashtbl.S with type key = Uid.t
module Node_set : Set.S with type elt = Node.t
module Bunch_set : Set.S with type elt = Bunch.t
module Uid_set : Set.S with type elt = Uid.t
