(* Flight recorder: bounded per-node rings over the typed event stream.

   Every red gate should ship its own reproduction slice.  The recorder
   taps the Trace_event log, keeps the last N events per node (so one
   chatty node cannot evict a quiet node's history), and on a trigger
   dumps the merged slice plus a metrics snapshot as a text artifact:
   '#'-prefixed header lines (reason, trip time, metrics JSON) followed
   by plain Trace_event.to_line lines — the slice feeds straight back
   into `bmxctl check --trace` / `certify --trace`, which skip '#'.

   Triggers: automatic on the §5 alarm (a GC-actor token acquire) and on
   truncating RVM recovery; external via [trip] for lint findings and
   audit loss, wired in bmxctl. *)

open Bmx_util
module T = Trace_event

type ring = {
  buf : (int * T.t) option array;
  mutable next : int;  (* next write position *)
  mutable count : int;  (* total writes ever *)
}

type dump = { reason : string; at : int; text : string }

type t = {
  per_node : int;
  max_dumps : int;
  metrics : Metrics.t option;
  rings : (Ids.Node.t, ring) Hashtbl.t;
  mutable dumps_rev : dump list;
  mutable n_dumps : int;
  mutable last_ts : int;
}

let create ?(per_node = 256) ?(max_dumps = 4) ?metrics () =
  if per_node <= 0 then invalid_arg "Flight.create: per_node";
  {
    per_node;
    max_dumps;
    metrics;
    rings = Hashtbl.create 8;
    dumps_rev = [];
    n_dumps = 0;
    last_ts = 0;
  }

let dumps t = List.rev t.dumps_rev

let ring_of t node =
  match Hashtbl.find_opt t.rings node with
  | Some r -> r
  | None ->
      let r = { buf = Array.make t.per_node None; next = 0; count = 0 } in
      Hashtbl.add t.rings node r;
      r

let push r entry =
  r.buf.(r.next) <- Some entry;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.count <- r.count + 1

(* ---------------------------------------------------------- dumping *)

let slice t =
  (* Merge every ring; duplicates (pair events recorded on both ends)
     collapse by timestamp — µstep stamps are strictly increasing, so a
     timestamp identifies an event. *)
  let all = ref [] in
  Hashtbl.iter
    (fun _ r ->
      Array.iter (function None -> () | Some e -> all := e :: !all) r.buf)
    t.rings;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !all in
  let rec dedup = function
    | (ta, _) :: ((tb, _) :: _ as rest) when ta = tb -> dedup rest
    | e :: rest -> e :: dedup rest
    | [] -> []
  in
  dedup sorted

let trip t ?at reason =
  if t.n_dumps < t.max_dumps then begin
    let at = match at with Some a -> a | None -> t.last_ts in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "# flight reason=%s\n" reason);
    Buffer.add_string buf (Printf.sprintf "# at=%d\n" at);
    (match t.metrics with
    | None -> ()
    | Some m ->
        Buffer.add_string buf
          ("# metrics=" ^ Json.to_string (Metrics.to_json (Metrics.snapshot m))
         ^ "\n"));
    List.iter
      (fun (_, e) ->
        Buffer.add_string buf (T.to_line e);
        Buffer.add_char buf '\n')
      (slice t);
    let d = { reason; at; text = Buffer.contents buf } in
    t.dumps_rev <- d :: t.dumps_rev;
    t.n_dumps <- t.n_dumps + 1
  end

(* ---------------------------------------------------------- recording *)

let record t ts e =
  t.last_ts <- ts;
  (* A pair event lands in both nodes' rings. *)
  List.iter
    (fun node -> push (ring_of t node) (ts, e))
    (List.sort_uniq Int.compare (T.nodes e));
  (* Automatic triggers: the §5 alarm and truncating recovery. *)
  match e with
  | T.Acquire_start { actor = T.Gc; node; uid; _ } ->
      trip t ~at:ts
        (Printf.sprintf "gc-token-acquire:n%d:o%d" node uid)
  | T.Rvm_recover { node; dropped; lost } when dropped > 0 || lost > 0 ->
      trip t ~at:ts (Printf.sprintf "rvm-truncation:n%d" node)
  | _ -> ()

let attach t log = T.add_tap log (fun ts e -> record t ts e)
