type t = { mutable state : int64 }

let make seed = { state = Int64.of_int (seed lxor 0x9e3779b9) }

(* splitmix64: tiny, fast, and good enough for workload generation. *)
let next t =
  t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x /. 9007199254740992.0 *. bound

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
