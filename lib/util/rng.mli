(** Deterministic pseudo-random numbers (splitmix64).

    All workloads and fault injection draw from an explicit generator so
    every experiment is reproducible from its seed. *)

type t

val make : int -> t
(** [make seed] creates a fresh generator. *)

val split : t -> t
(** An independent generator derived from [t]'s stream. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
