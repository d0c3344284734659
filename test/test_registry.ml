(* Sharded segment registry: boundary behaviour of the O(1) routing +
   floor lookup, the crash/recovery surface, and a QCheck property
   comparing the sharded registry against an arithmetic model under
   random alloc / crash / recover sequences.

   The satellite-1 gauge contract is also pinned here: sampling registry
   occupancy must do O(1) work no matter how many ranges were carved
   (Perfcount.s_obs_sample_work stays flat). *)

open Bmx_util
module Registry = Bmx_memory.Registry
module Segment = Bmx_memory.Segment
module Cluster = Bmx.Cluster

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let region_bytes = 1 lsl 40
let first_lo = Addr.page_size

let bunch_of_entry e = e.Registry.bunch
let lo_of e = e.Registry.range.Addr.Range.lo
let hi_of e = e.Registry.range.Addr.Range.hi

(* ------------------------------------------------------------ boundaries *)

let test_find_boundaries () =
  let r = Registry.create () in
  let range = Registry.alloc_range r ~bunch:0 ~origin:0 ~bytes:4096 () in
  let lo = range.Addr.Range.lo and hi = range.Addr.Range.hi in
  check_int "first carve starts at first_addr" first_lo lo;
  check_bool "find at lo" true (Registry.find r lo <> None);
  check_bool "find mid-range (unaligned)" true (Registry.find r (lo + 13) <> None);
  check_bool "find at hi-1" true (Registry.find r (hi - 1) <> None);
  (* hi is exclusive: with nothing carved after it, the floor lookup must
     not stretch the last range by a byte. *)
  check_bool "find at hi is None" true (Registry.find r hi = None);
  check_bool "find below first carve is None" true
    (Registry.find r (lo - 1) = None);
  check_bool "find at null is None" true (Registry.find r 0 = None);
  (* A second carve is adjacent (the cursor moves to hi), so the old hi
     is now the next range's lo. *)
  let range2 = Registry.alloc_range r ~bunch:0 ~origin:0 ~bytes:64 () in
  check_int "adjacent carve" hi range2.Addr.Range.lo;
  (match Registry.find r hi with
  | Some e -> check_int "hi now resolves to the next range" hi (lo_of e)
  | None -> Alcotest.fail "hi should resolve to the second range");
  check_bool "beyond the cursor is None" true
    (Registry.find r (range2.Addr.Range.hi + 4096) = None)

let test_alignment () =
  let r = Registry.create () in
  (* An unaligned request is aligned up; carves stay word-aligned and
     adjacent. *)
  let a = Registry.alloc_range r ~bunch:1 ~origin:0 ~bytes:4093 () in
  check_int "size aligned up" (Addr.align_up 4093) (Addr.Range.size a);
  let b = Registry.alloc_range r ~bunch:1 ~origin:0 ~bytes:1 () in
  check_int "next carve starts at aligned hi" a.Addr.Range.hi b.Addr.Range.lo;
  check_int "total_bytes sums aligned sizes"
    (Addr.align_up 4093 + Addr.align_up 1)
    (Registry.total_bytes r)

let test_shard_routing () =
  let shards = 4 in
  let r = Registry.create ~shards () in
  check_int "num_shards" shards (Registry.num_shards r);
  for b = 0 to 7 do
    check_int
      (Printf.sprintf "bunch %d routes mod shards" b)
      (b mod shards) (Registry.shard_of_bunch r b)
  done;
  (* Carve one range per shard; each lands in its own region and routes
     back to its shard by address arithmetic. *)
  let ranges =
    List.init shards (fun b -> (b, Registry.alloc_range r ~bunch:b ~origin:0 ()))
  in
  List.iter
    (fun (b, (range : Addr.Range.t)) ->
      let k = b mod shards in
      check_int
        (Printf.sprintf "shard %d region start" k)
        (first_lo + (k * region_bytes))
        range.Addr.Range.lo;
      check_bool "shard_of_addr at lo" true
        (Registry.shard_of_addr r range.Addr.Range.lo = Some k);
      check_bool "shard_of_addr at hi-1" true
        (Registry.shard_of_addr r (range.Addr.Range.hi - 1) = Some k);
      match Registry.find r range.Addr.Range.lo with
      | Some e -> check_int "entry bunch" b (bunch_of_entry e)
      | None -> Alcotest.fail "carved range must be findable")
    ranges;
  (* Shard-boundary lookups: the first byte of shard k's region belongs
     to shard k even when shard k-1's cursor sits just below it, and
     addresses past the last region route nowhere. *)
  check_bool "below first region" true (Registry.shard_of_addr r (first_lo - 1) = None);
  check_bool "first byte of region 1" true
    (Registry.shard_of_addr r (first_lo + region_bytes) = Some 1);
  check_bool "last byte of last region" true
    (Registry.shard_of_addr r (first_lo + (shards * region_bytes) - 1)
    = Some (shards - 1));
  check_bool "past the last region" true
    (Registry.shard_of_addr r (first_lo + (shards * region_bytes)) = None);
  (* A shard-1 address never floor-matches a shard-0 range: the lookup
     is per-shard, so shard 1's empty map answers None even though
     shard 0 has a carve below the address. *)
  let r2 = Registry.create ~shards:2 () in
  ignore (Registry.alloc_range r2 ~bunch:0 ~origin:0 ());
  check_bool "no cross-shard floor bleed" true
    (Registry.find r2 (first_lo + region_bytes + 8) = None)

(* ------------------------------------------------------- crash / recover *)

let test_crash_recover_surface () =
  let r = Registry.create ~shards:2 () in
  let range0 = Registry.alloc_range r ~bunch:0 ~origin:0 () in
  Registry.crash_shard r 0;
  check_bool "shard 0 down" false (Registry.shard_up r 0);
  (* Lookups keep answering out of the read cache; only carving fails,
     and only on the downed shard. *)
  check_bool "find survives the crash" true
    (Registry.find r range0.Addr.Range.lo <> None);
  (match Registry.alloc_range r ~bunch:0 ~origin:0 () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "carve from a down shard must fail");
  let range1 = Registry.alloc_range r ~bunch:1 ~origin:0 () in
  check_bool "other shard still carves" true (Addr.Range.size range1 > 0);
  Registry.revive_shard r 0;
  let range0' = Registry.alloc_range r ~bunch:0 ~origin:0 () in
  check_int "cursor survived the outage" range0.Addr.Range.hi
    range0'.Addr.Range.lo

let test_restore_entry_idempotent () =
  let r = Registry.create ~shards:2 () in
  let _ = Registry.alloc_range r ~bunch:0 ~origin:0 () in
  let entries = Registry.shard_entries r 0 in
  check_int "one carve journaled" 1 (List.length entries);
  let e = List.hd entries in
  check_bool "replaying a cached entry installs nothing" false
    (Registry.restore_entry r ~shard:0 e);
  let bytes = Registry.total_bytes r in
  check_int "gauge unchanged by idempotent replay" bytes
    (Registry.total_bytes r);
  (* A journal that disagrees with the index is corruption, not a merge:
     replay must refuse. *)
  let bad =
    { e with Registry.range = Addr.Range.make ~lo:(lo_of e) ~size:8 }
  in
  (match Registry.restore_entry r ~shard:0 bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "conflicting replay must fail");
  ignore (hi_of e)

let test_restore_out_of_order () =
  (* Carving appends to a shard's sorted index; a replay into an empty
     index may arrive in any order and must still leave it sorted, so
     the floor lookup keeps answering. *)
  let r = Registry.create () in
  List.iter
    (fun bunch -> ignore (Registry.alloc_range r ~bunch ~origin:0 ()))
    [ 0; 0; 0; 0 ];
  let entries = Registry.shard_entries r 0 in
  let fresh = Registry.create () in
  List.iter
    (fun e ->
      check_bool "missing entry re-installed" true
        (Registry.restore_entry fresh ~shard:0 e))
    [ List.nth entries 2; List.nth entries 0; List.nth entries 3; List.nth entries 1 ];
  check (Alcotest.list Alcotest.int) "index ascending by lo"
    (List.map lo_of entries)
    (List.map lo_of (Registry.shard_entries fresh 0));
  List.iter
    (fun e ->
      List.iter
        (fun a ->
          match Registry.find fresh a with
          | Some e' -> check_int "lookup lands in its range" (lo_of e) (lo_of e')
          | None -> Alcotest.fail "restored range not found")
        [ lo_of e; hi_of e - 1 ])
    entries

(* --------------------------------------------- QCheck: model equivalence *)

(* Arithmetic model of the sharded registry: per-shard cursor plus a
   list of (lo, hi, bunch), regions carved exactly like the real one.
   The property drives both with random alloc / crash / recover and
   demands identical observable behaviour — including refusals. *)
type model_shard = {
  mutable m_next : int;
  m_region_hi : int;
  mutable m_up : bool;
  mutable m_entries : (int * int * int) list; (* lo, hi, bunch; newest first *)
}

type model = { m_shards : model_shard array }

let model_create ~shards =
  {
    m_shards =
      Array.init shards (fun k ->
          let lo = first_lo + (k * region_bytes) in
          {
            m_next = lo;
            m_region_hi = lo + region_bytes;
            m_up = true;
            m_entries = [];
          });
  }

let model_alloc m ~bunch ~bytes =
  let s = m.m_shards.(bunch mod Array.length m.m_shards) in
  if not s.m_up then None
  else begin
    let size = Addr.align_up bytes in
    let lo = s.m_next in
    if lo + size > s.m_region_hi then None
    else begin
      s.m_next <- lo + size;
      s.m_entries <- (lo, lo + size, bunch) :: s.m_entries;
      Some (lo, lo + size)
    end
  end

let model_find m a =
  if a < first_lo then None
  else
    let k = (a - first_lo) / region_bytes in
    if k >= Array.length m.m_shards then None
    else
      List.find_opt (fun (lo, hi, _) -> lo <= a && a < hi)
        m.m_shards.(k).m_entries

type reg_op =
  | Alloc of int * int (* bunch, bytes *)
  | Crash of int
  | Recover of int
  | Replay of int (* replay shard k's newest carve (idempotence) *)

let gen_op shards =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun b bytes -> Alloc (b, bytes))
            (int_range 0 (2 * shards))
            (int_range 1 20000) );
        (1, map (fun k -> Crash k) (int_range 0 (shards - 1)));
        (2, map (fun k -> Recover k) (int_range 0 (shards - 1)));
        (1, map (fun k -> Replay k) (int_range 0 (shards - 1)));
      ])

let arb_program shards =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Alloc (b, n) -> Printf.sprintf "alloc b%d %dB" b n
             | Crash k -> Printf.sprintf "crash s%d" k
             | Recover k -> Printf.sprintf "recover s%d" k
             | Replay k -> Printf.sprintf "replay s%d" k)
           ops))
    QCheck.Gen.(list_size (int_range 20 80) (gen_op shards))

let prop_model_equivalence ops =
  let shards = 3 in
  let r = Registry.create ~shards () in
  let m = model_create ~shards in
  List.iter
    (function
      | Alloc (bunch, bytes) -> (
          let real =
            match Registry.alloc_range r ~bunch ~origin:0 ~bytes () with
            | range -> Some (range.Addr.Range.lo, range.Addr.Range.hi)
            | exception Failure _ -> None
          in
          let expect = model_alloc m ~bunch ~bytes in
          if real <> expect then
            QCheck.Test.fail_reportf
              "alloc b%d %dB: real %s, model %s" bunch bytes
              (match real with
              | Some (lo, hi) -> Printf.sprintf "[%d,%d)" lo hi
              | None -> "refused")
              (match expect with
              | Some (lo, hi) -> Printf.sprintf "[%d,%d)" lo hi
              | None -> "refused"))
      | Crash k ->
          Registry.crash_shard r k;
          m.m_shards.(k).m_up <- false
      | Recover k ->
          (* Service recovery: replay every journaled carve (all cached,
             so every replay is a no-op) and bring the service up. *)
          List.iter
            (fun e ->
              if Registry.restore_entry r ~shard:k e then
                QCheck.Test.fail_reportf
                  "recover s%d: replay installed an entry the cache had" k)
            (Registry.shard_entries r k);
          Registry.revive_shard r k;
          m.m_shards.(k).m_up <- true
      | Replay k -> (
          match Registry.shard_entries r k with
          | [] -> ()
          | e :: _ ->
              if Registry.restore_entry r ~shard:k e then
                QCheck.Test.fail_reportf "replay s%d resurrected an entry" k))
    ops;
  (* Final audit: every model range is found with the right bunch, probe
     addresses around every boundary agree, and the gauges match. *)
  Array.iteri
    (fun k s ->
      List.iter
        (fun (lo, hi, bunch) ->
          (match Registry.find r lo with
          | Some e ->
              if bunch_of_entry e <> bunch || lo_of e <> lo || hi_of e <> hi
              then QCheck.Test.fail_reportf "find(lo=%d) disagrees" lo
          | None -> QCheck.Test.fail_reportf "find(lo=%d) lost a range" lo);
          let probe a =
            let real =
              match Registry.find r a with
              | Some e -> Some (lo_of e, hi_of e, bunch_of_entry e)
              | None -> None
            in
            if real <> model_find m a then
              QCheck.Test.fail_reportf "find(%d) disagrees with model" a
          in
          probe (hi - 1);
          probe hi;
          probe (lo + ((hi - lo) / 2)))
        s.m_entries;
      if Registry.shard_up r k <> s.m_up then
        QCheck.Test.fail_reportf "shard %d up-state diverged" k;
      let model_bytes =
        List.fold_left (fun a (lo, hi, _) -> a + hi - lo) 0 s.m_entries
      in
      if Registry.shard_bytes r k <> model_bytes then
        QCheck.Test.fail_reportf "shard %d bytes gauge diverged" k)
    m.m_shards;
  let total =
    Array.fold_left
      (fun a s -> a + List.fold_left (fun a (lo, hi, _) -> a + hi - lo) 0 s.m_entries)
      0 m.m_shards
  in
  if Registry.total_bytes r <> total then
    QCheck.Test.fail_reportf "total_bytes gauge diverged";
  true

let qcheck_model =
  QCheck.Test.make ~name:"sharded registry ≡ arithmetic model" ~count:200
    (arb_program 3) prop_model_equivalence

(* --------------------------------------- gauge sampling is heap-independent *)

let sample_work_of c =
  let before = Perfcount.counters.Perfcount.s_obs_sample_work in
  List.iter
    (fun ((name, _), src) ->
      if name = "registry.bytes" then
        match src with
        | Bmx_obs.Metrics.S_gauge_fn f -> ignore (!f ())
        | _ -> Alcotest.fail "registry.bytes should be a callback gauge")
    (Bmx_obs.Metrics.sources (Cluster.metrics c));
  Perfcount.counters.Perfcount.s_obs_sample_work - before

let test_gauge_sampling_flat () =
  (* Sampling the registry gauge must cost the same whether 4 or 400
     ranges were carved: total_bytes is a maintained counter, not a fold
     over segments. *)
  let small = Cluster.create ~nodes:2 ~shards:2 () in
  let _ = Cluster.new_bunch small ~home:0 in
  let w_small = sample_work_of small in
  let big = Cluster.create ~nodes:2 ~shards:2 () in
  let reg = Bmx_dsm.Protocol.registry (Cluster.proto big) in
  for b = 0 to 19 do
    for _ = 1 to 20 do
      ignore (Registry.alloc_range reg ~bunch:b ~origin:0 ~bytes:256 ())
    done
  done;
  check_int "400 carves on the books" 400
    (List.length
       (List.concat
          (List.init (Registry.num_shards reg) (Registry.shard_entries reg))));
  let w_big = sample_work_of big in
  check_int "sampling work independent of carve count" w_small w_big;
  check_bool "sampling did O(1) work, not zero" true (w_small >= 1)

let () =
  Alcotest.run "registry"
    [
      ( "boundaries",
        [
          Alcotest.test_case "find at lo/hi/unaligned" `Quick
            test_find_boundaries;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "shard routing and regions" `Quick
            test_shard_routing;
        ] );
      ( "crash-recover",
        [
          Alcotest.test_case "down shard refuses carves only" `Quick
            test_crash_recover_surface;
          Alcotest.test_case "restore_entry idempotence" `Quick
            test_restore_entry_idempotent;
          Alcotest.test_case "out-of-order replay keeps the index sorted"
            `Quick test_restore_out_of_order;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest qcheck_model ]);
      ( "gauges",
        [
          Alcotest.test_case "O(1) occupancy sampling" `Quick
            test_gauge_sampling_flat;
        ] );
    ]
