module type ID = sig
  type t = int

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Make_id (P : sig
  val prefix : string
end) =
struct
  type t = int

  let compare = Int.compare
  let equal = Int.equal
  let pp ppf t = Format.fprintf ppf "%s%d" P.prefix t
  let to_string t = P.prefix ^ string_of_int t
end

module Node = struct
  include Make_id (struct
    let prefix = "N"
  end)

  let invalid = -1
end

module Bunch = Make_id (struct
  let prefix = "B"
end)

module Uid = struct
  include Make_id (struct
    let prefix = "o"
  end)

  type gen = int ref

  let generator () = ref 0

  let fresh g =
    incr g;
    !g
end

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
  let compare = Int.compare
end

module Node_tbl = Hashtbl.Make (Int_key)
module Bunch_tbl = Hashtbl.Make (Int_key)
module Uid_tbl = Hashtbl.Make (Int_key)
module Node_set = Set.Make (Int_key)
module Bunch_set = Set.Make (Int_key)
module Uid_set = Set.Make (Int_key)
