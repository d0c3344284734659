type t = {
  spans : Span.t list;
  snap : Metrics.snapshot;
  gc_acquires : int;
  certified : bool option;
}

let of_iter ~metrics iter =
  let spans = Span.of_iter iter in
  (* Created at zero so the non-interference number is in every report,
     then bumped per GC-actor acquisition. *)
  Metrics.incr metrics ~by:0 "gc.token_acquires";
  List.iter
    (fun (ev : Span.t) ->
      (match ev.Span.name with
      | "acquire.read" | "acquire.write" when ev.Span.track = Span.Gc ->
          Metrics.incr metrics "gc.token_acquires"
      | _ -> ());
      match (ev.Span.family, ev.Span.dur) with
      | Some fam, Some d ->
          Metrics.observe metrics
            ("latency." ^ Span.family_name fam)
            (float_of_int d)
      | _ -> ())
    spans;
  let snap = Metrics.snapshot metrics in
  {
    spans;
    snap;
    gc_acquires =
      (match Metrics.get snap "gc.token_acquires" with
      | Some (Metrics.Counter c) -> c
      | _ -> 0);
    certified = None;
  }

let of_events ~metrics timed =
  of_iter ~metrics (fun f -> List.iter (fun (ts, e) -> f ts e) timed)

let with_certified t verdict = { t with certified = Some verdict }
let certified t = t.certified
let spans t = t.spans
let snapshot t = t.snap
let gc_token_acquires t = t.gc_acquires
let ok t = t.gc_acquires = 0

let latency t fam =
  match Metrics.get t.snap ("latency." ^ fam) with
  | Some (Metrics.Histogram s) -> Some s
  | _ -> None

let latency_rows t =
  List.filter_map
    (fun ((name, node), v) ->
      match (node, v) with
      | None, Metrics.Histogram s
        when String.length name > 8 && String.sub name 0 8 = "latency." ->
          Some (name, s)
      | _ -> None)
    t.snap

let to_text t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== metrics ==\n";
  Buffer.add_string buf (Metrics.to_text t.snap);
  Buffer.add_string buf "\n== latency (virtual usteps) ==\n";
  Buffer.add_string buf
    (Printf.sprintf "%-34s %8s %8s %8s %8s %8s\n" "span" "n" "p50" "p90" "p99"
       "max");
  List.iter
    (fun (name, (s : Metrics.summary)) ->
      Buffer.add_string buf
        (Printf.sprintf "%-34s %8d %8.0f %8.0f %8.0f %8.0f\n" name s.s_count
           s.s_p50 s.s_p90 s.s_p99 s.s_max))
    (latency_rows t);
  Buffer.add_string buf
    (Printf.sprintf "\nnon-interference: gc.token_acquires = %d%s\n"
       t.gc_acquires
       (if ok t then " (OK: GC never blocked on the consistency protocol)"
        else " (VIOLATION: the GC acquired tokens)"));
  (match t.certified with
  | None -> ()
  | Some v ->
      Buffer.add_string buf
        (Printf.sprintf "certified:        %s\n"
           (if v then
              "yes (happens-before: no races, read mapping intact, GC \
               erasure holds)"
            else "NO (happens-before certificate failed)")));
  Buffer.contents buf
