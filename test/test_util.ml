open Bmx_util

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ Addr *)

let test_addr_align () =
  check_int "aligned stays" 8 (Addr.align_up 8);
  check_int "rounds up" 8 (Addr.align_up 5);
  check_int "zero" 0 (Addr.align_up 0);
  check_bool "is_aligned 4" true (Addr.is_aligned 4);
  check_bool "is_aligned 6" false (Addr.is_aligned 6)

let test_addr_arith () =
  check_int "add" 100 (Addr.add 60 40);
  check_int "diff" 40 (Addr.diff 100 60);
  check_bool "null" true (Addr.is_null Addr.null);
  Alcotest.check_raises "overflow" (Invalid_argument "Addr.add: address overflow")
    (fun () -> ignore (Addr.add max_int 1))

let test_range () =
  let r = Addr.Range.make ~lo:4096 ~size:8192 in
  check_int "size" 8192 (Addr.Range.size r);
  check_bool "contains lo" true (Addr.Range.contains r 4096);
  check_bool "excludes hi" false (Addr.Range.contains r (4096 + 8192));
  let r2 = Addr.Range.make ~lo:(4096 + 8192) ~size:4096 in
  check_bool "adjacent ranges do not overlap" false (Addr.Range.overlaps r r2);
  let r3 = Addr.Range.make ~lo:8000 ~size:8192 in
  check_bool "overlapping ranges overlap" true (Addr.Range.overlaps r r3);
  Alcotest.check_raises "empty range rejected"
    (Invalid_argument "Addr.Range.make: size must be positive") (fun () ->
      ignore (Addr.Range.make ~lo:0 ~size:0))

(* ---------------------------------------------------------------- Bitmap *)

let test_bitmap_basic () =
  let range = Addr.Range.make ~lo:4096 ~size:1024 in
  let bm = Bitmap.create ~range in
  check_int "starts empty" 0 (Bitmap.cardinal bm);
  Bitmap.set bm 4096;
  Bitmap.set bm 5116;
  check_bool "get set bit" true (Bitmap.get bm 4096);
  check_bool "get clear bit" false (Bitmap.get bm 4100);
  check_int "cardinal" 2 (Bitmap.cardinal bm);
  Bitmap.clear bm 4096;
  check_bool "cleared" false (Bitmap.get bm 4096);
  check_int "cardinal after clear" 1 (Bitmap.cardinal bm)

let test_bitmap_iter () =
  let range = Addr.Range.make ~lo:0 ~size:256 in
  let bm = Bitmap.create ~range in
  List.iter (Bitmap.set bm) [ 0; 12; 200; 252 ];
  let seen = ref [] in
  Bitmap.iter_set bm (fun a -> seen := a :: !seen);
  check (Alcotest.list Alcotest.int) "iter in order" [ 0; 12; 200; 252 ]
    (List.rev !seen);
  check (Alcotest.option Alcotest.int) "next_set" (Some 200) (Bitmap.next_set bm 13);
  check (Alcotest.option Alcotest.int) "next_set beyond" None (Bitmap.next_set bm 253)

let test_bitmap_bounds () =
  let range = Addr.Range.make ~lo:4096 ~size:64 in
  let bm = Bitmap.create ~range in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitmap: address out of range")
    (fun () -> Bitmap.set bm 0);
  Alcotest.check_raises "unaligned" (Invalid_argument "Bitmap: unaligned address")
    (fun () -> Bitmap.set bm 4097)

let test_bitmap_copy_independent () =
  let range = Addr.Range.make ~lo:0 ~size:64 in
  let bm = Bitmap.create ~range in
  Bitmap.set bm 0;
  let bm2 = Bitmap.copy bm in
  Bitmap.clear bm2 0;
  check_bool "original unaffected" true (Bitmap.get bm 0)

(* ------------------------------------------------------------------- Rng *)

let test_rng_determinism () =
  let a = Rng.make 123 and b = Rng.make 123 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let g = Rng.make 7 in
  for _ = 1 to 1000 do
    let x = Rng.int g 17 in
    check_bool "in bounds" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 100 do
    let f = Rng.float g 2.5 in
    check_bool "float in bounds" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split () =
  let g = Rng.make 7 in
  let h = Rng.split g in
  let xs = List.init 10 (fun _ -> Rng.int g 1000) in
  let ys = List.init 10 (fun _ -> Rng.int h 1000) in
  check_bool "split streams differ" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let g = Rng.make 11 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 20 Fun.id) sorted

(* ----------------------------------------------------------------- Stats *)

let test_stats_counters () =
  let reg = Stats.create_registry () in
  Stats.incr reg "a";
  Stats.add reg "a" 5;
  Stats.incr reg "b";
  check_int "a" 6 (Stats.get reg "a");
  check_int "b" 1 (Stats.get reg "b");
  check_int "missing is zero" 0 (Stats.get reg "zzz");
  let d =
    Stats.diff
      ~before:[ ("a", 2); ("c", 1) ]
      ~after:[ ("a", 6); ("b", 1) ]
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "diff"
    [ ("a", 4); ("b", 1); ("c", -1) ]
    d;
  Stats.reset reg;
  check_int "reset" 0 (Stats.get reg "a")

(* Counters are bumped on every message and collection, so a bump of an
   existing counter allocates nothing; adding 0 still creates one, which
   is how a counter charged nothing yet is listed. *)
let test_stats_bumps_allocate_nothing () =
  let reg = Stats.create_registry () in
  Stats.add reg "z" 0;
  check_bool "adding 0 creates the counter" true
    (List.mem_assoc "z" (Stats.counters reg));
  Stats.incr reg "a";
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Stats.incr reg "a";
    Stats.add reg "z" 2
  done;
  let words = Gc.minor_words () -. w0 in
  check_int "a" 1_001 (Stats.get reg "a");
  check_int "z" 2_000 (Stats.get reg "z");
  check_bool (Printf.sprintf "2 000 bumps allocated %.0f words" words) true
    (words < 100.)

let test_stats_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "n" 5 (Stats.Summary.n s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.Summary.max s);
  check (Alcotest.float 1e-6) "stddev" (sqrt 2.5) (Stats.Summary.stddev s);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.Summary.percentile s 50.0)

(* The two exposed estimator steps are the whole estimator: a reservoir
   driven by [reservoir_slot] and read by [nearest_rank] reproduces
   [Summary] sample for sample, eviction included. *)
let test_summary_steps () =
  let cap = Stats.Summary.reservoir_capacity in
  let seed = 42 in
  let s = Stats.Summary.create ~seed () in
  let rng = Rng.make seed in
  let samples = Array.make cap 0. in
  let values = Rng.make 7 in
  let n = (3 * cap) + 11 in
  for k = 1 to n do
    let x = float_of_int (Rng.int values 100_000) in
    Stats.Summary.add s x;
    let j = Stats.Summary.reservoir_slot rng ~n:k ~cap in
    if k <= cap then check_int "fills in order" (k - 1) j;
    if j >= 0 then samples.(j) <- x
  done;
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%g" p)
        (Stats.Summary.percentile s p)
        (Stats.Summary.nearest_rank (Array.copy samples) p))
    [ 0.; 50.; 90.; 99.; 100. ];
  let a = [| 5.; 1.; 4.; 2.; 3. |] in
  check (Alcotest.float 0.0) "nearest rank" 4. (Stats.Summary.nearest_rank a 75.);
  check (Alcotest.array (Alcotest.float 0.0)) "sorted in place"
    [| 1.; 2.; 3.; 4.; 5. |] a;
  check (Alcotest.float 0.0) "empty" 0. (Stats.Summary.nearest_rank [||] 50.)

(* ----------------------------------------------------------------- Table *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "1"; "foo" ];
  Table.add_rowf t "%d|%s" 22 "b";
  let s = Table.render t in
  check_bool "has title" true (String.length s > 0 && String.sub s 0 4 = "== T");
  check_bool "contains cell" true
    (contains_substring s "foo" && contains_substring s "22")

let test_table_width_mismatch () =
  let t = Table.create ~title:"T" ~columns:[ "x"; "y" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "1" ])

(* ------------------------------------------------------------------- Ids *)

let test_ids () =
  let g = Ids.Uid.generator () in
  let a = Ids.Uid.fresh g and b = Ids.Uid.fresh g in
  check_bool "fresh uids differ" true (not (Ids.Uid.equal a b));
  check Alcotest.string "node pp" "N3" (Ids.Node.to_string 3);
  check Alcotest.string "bunch pp" "B7" (Ids.Bunch.to_string 7);
  check_bool "invalid node is negative" true (Ids.Node.invalid < 0)

(* ---------------------------------------------------------------- Varint *)

(* Seven bits per byte: a value takes one byte more at each power of
   2^7, and [max_int] (62 bits) nine. *)
let boundaries =
  [ (0, 1); (127, 1); (128, 2); (16_383, 2); (16_384, 3); ((1 lsl 56) - 1, 8);
    (1 lsl 56, 9); (max_int, 9) ]

let test_varint_round_trip () =
  List.iter
    (fun (v, size) ->
      let buf = Buffer.create 16 in
      Varint.write buf v;
      Varint.write buf 5;
      check_int (Printf.sprintf "size %d" v) size (Varint.size v);
      check_int (Printf.sprintf "written %d" v) (size + 1) (Buffer.length buf);
      let b = Buffer.to_bytes buf and pos = ref 0 in
      check_int (Printf.sprintf "read %d" v) v (Varint.read b pos);
      check_int "cursor past it" size !pos;
      check_int "next value" 5 (Varint.read b pos))
    boundaries

let test_varint_refusals () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "size of -1" (fun () -> Varint.size (-1));
  raises "write min_int" (fun () -> Varint.write (Buffer.create 1) min_int);
  let read s () = Varint.read (Bytes.of_string s) (ref 0) in
  raises "truncated" (read "\x80");
  raises "empty" (read "");
  raises "bit 62 set" (read "\xff\xff\xff\xff\xff\xff\xff\xff\x40");
  raises "ten bytes" (read "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00")

let () =
  Alcotest.run "util"
    [
      ( "addr",
        [
          Alcotest.test_case "align" `Quick test_addr_align;
          Alcotest.test_case "arith" `Quick test_addr_arith;
          Alcotest.test_case "range" `Quick test_range;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "set/get/clear" `Quick test_bitmap_basic;
          Alcotest.test_case "iteration" `Quick test_bitmap_iter;
          Alcotest.test_case "bounds checking" `Quick test_bitmap_bounds;
          Alcotest.test_case "copy independence" `Quick test_bitmap_copy_independent;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "bumps allocate nothing" `Quick
            test_stats_bumps_allocate_nothing;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "summary estimator steps" `Quick
            test_summary_steps;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        ] );
      ("ids", [ Alcotest.test_case "generators and printing" `Quick test_ids ]);
      ( "varint",
        [
          Alcotest.test_case "sizes and round trip" `Quick test_varint_round_trip;
          Alcotest.test_case "negative, truncated and wide refused" `Quick
            test_varint_refusals;
        ] );
    ]
