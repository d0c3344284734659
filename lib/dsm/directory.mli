(** Per-node DSM bookkeeping: token state, ownership, copy-sets,
    ownerPtrs (§2.2).

    For every object a node has heard of, the node keeps a token record.
    The {e owner} of an object is the node currently holding the write
    token, or the node that last held it.  A node that is not the owner
    keeps an {e ownerPtr} — a forwarding pointer indicating (possibly
    transitively) where the current owner is, per Li & Hudak's dynamic
    distributed manager.  The {e copy-set} lists the nodes to which this
    node has granted a read token; in the distributed mode the full replica
    set is the tree of copy-sets rooted at the owner.

    The {e entering-ownerPtr} table records, per object, the remote nodes
    whose ownerPtr points here; these are GC roots for the local BGC (§4.1)
    and are trimmed by the scion cleaner (§6). *)

type token_state =
  | Invalid  (** no token; a cached copy, if any, is inconsistent *)
  | Read  (** consistent for reading *)
  | Write  (** exclusive: no other consistent copy exists anywhere *)

val token_state_to_string : token_state -> string

type record = {
  uid : Bmx_util.Ids.Uid.t;
  mutable state : token_state;
  mutable held : bool;  (** between acquire and release *)
  mutable is_owner : bool;
  mutable prob_owner : Bmx_util.Ids.Node.t;
      (** exiting ownerPtr; only meaningful when [not is_owner] *)
  mutable copyset : Bmx_util.Ids.Node_set.t;
}

type t

val create : node:Bmx_util.Ids.Node.t -> t

val mut_version : t -> int
(** Mutation epoch: advances on any change that can alter what a local
    collection computes (records appearing/disappearing, ownership
    moves, entering membership).  Token-state churn does not advance
    it.  The economical BGC compares this against the value seen after
    its previous run to decide whether collecting again can possibly
    find new garbage. *)

val touch : t -> unit
(** Advance {!mut_version}.  The protocol calls this when it rewrites
    [is_owner]/[prob_owner] on a record in place. *)

val record : t -> Bmx_util.Ids.Uid.t -> record
(** The record for the uid.  Allocates nothing.
    @raise Not_found if this node has none. *)

val find : t -> Bmx_util.Ids.Uid.t -> record option
(** {!record} as an option. *)

val ensure :
  t -> uid:Bmx_util.Ids.Uid.t -> prob_owner:Bmx_util.Ids.Node.t -> record
(** The record for [uid], created as a non-owner [Invalid] entry pointing
    at [prob_owner] if absent. *)

val register_new_object : t -> uid:Bmx_util.Ids.Uid.t -> record
(** Record for a freshly allocated object: this node is owner, holds the
    write token. *)

val forget : t -> Bmx_util.Ids.Uid.t -> unit
(** Drop the record and entering entries (replica reclaimed by BGC). *)

val add_entering :
  t -> seq:int -> uid:Bmx_util.Ids.Uid.t -> from:Bmx_util.Ids.Node.t -> unit
(** [seq] is the logical time of the registration on the [from]->here
    message stream (see {!Bmx_netsim.Net.current_seq}); the scion cleaner
    refuses to delete an entry on the strength of a reachability table
    older than its registration.  An existing entry's seq only moves
    forward.  Use 0 for "removable by any table". *)

val remove_entering : t -> uid:Bmx_util.Ids.Uid.t -> from:Bmx_util.Ids.Node.t -> unit

val entering_registration_seq :
  t -> uid:Bmx_util.Ids.Uid.t -> from:Bmx_util.Ids.Node.t -> int
(** The registration time of the entry (0 if absent or unstamped). *)

val entering : t -> Bmx_util.Ids.Uid.t -> Bmx_util.Ids.Node_set.t

val entering_uids : t -> Bmx_util.Ids.Uid.t list
(** Objects with at least one entering ownerPtr (local GC roots). *)

val is_entering_from :
  t -> uid:Bmx_util.Ids.Uid.t -> from:Bmx_util.Ids.Node.t -> bool
(** O(1): does [from] hold an entering entry for [uid]? *)

val fold_entering_from :
  t -> from:Bmx_util.Ids.Node.t -> (Bmx_util.Ids.Uid.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over the objects with an entering entry originating at [from],
    in no particular order; [f] must not add or remove entering entries.
    The scion cleaner reconciles exactly one sender per full table; this
    keeps that walk proportional to the sender's entries, not the
    node's whole entering set. *)

val iter : t -> (record -> unit) -> unit
