type registry = (string, int ref) Hashtbl.t

let create_registry () : registry = Hashtbl.create 64

let add reg name n =
  match Hashtbl.find reg name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.add reg name (ref n)

let incr reg name = add reg name 1

let get reg name =
  match Hashtbl.find reg name with r -> !r | exception Not_found -> 0

let reset reg = Hashtbl.iter (fun _ r -> r := 0) reg

let counters reg =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (prev + v))
    after;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Summary = struct
  let reservoir_capacity = 1024

  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    samples : float array;
    rng : Rng.t;
  }

  let default_seed = 0x5e5a11e

  let create ?(seed = default_seed) () =
    {
      n = 0;
      mean = 0.;
      m2 = 0.;
      min = infinity;
      max = neg_infinity;
      samples = Array.make reservoir_capacity 0.;
      rng = Rng.make seed;
    }

  (* Vitter's algorithm R: every sample has an equal chance of sitting in
     the reservoir, so percentiles over it are unbiased estimates.  It
     returns a slot rather than storing, so it serves any sample array
     and no float crosses the call. *)
  let reservoir_slot rng ~n ~cap =
    if n <= cap then n - 1
    else
      let j = Rng.int rng n in
      if j < cap then j else -1

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    let j = reservoir_slot t.rng ~n:t.n ~cap:reservoir_capacity in
    if j >= 0 then t.samples.(j) <- x

  let n t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))
  let min t = if t.n = 0 then 0. else t.min
  let max t = if t.n = 0 then 0. else t.max

  let nearest_rank arr p =
    let len = Array.length arr in
    if len = 0 then 0.
    else begin
      Array.sort Float.compare arr;
      let rank = p /. 100. *. float_of_int (len - 1) in
      let lo = int_of_float (Float.round rank) in
      arr.(Stdlib.max 0 (Stdlib.min (len - 1) lo))
    end

  let percentile t p =
    nearest_rank (Array.sub t.samples 0 (Stdlib.min t.n reservoir_capacity)) p
end
