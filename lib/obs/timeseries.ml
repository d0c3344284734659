(* Virtual-time metric series: the continuous half of bmx_obs.

   End-of-run reports (report.ml) answer "what happened overall"; this
   module answers "what was happening at virtual time T".  It slices the
   run into fixed-width windows of virtual µsteps (Trace_event
   timestamps, anchored to Net.now) and keeps a bounded ring of them:

   - counters and gauges come from the shared Metrics registry, read at
     each window close through cached cell references (never through
     Metrics.snapshot — the sampling path must stay allocation-bounded
     and heap-size-independent, see Perfcount.s_obs_sample_work);
   - latency.* histograms are derived live from the typed Trace_event
     stream by Span's pairing (the one begin/end matcher, which also
     feeds Report), one histogram per Span.family, into per-window
     bounded reservoirs (Stats.Summary's algorithm R step with a private
     deterministic Rng per series) so p50/p99/p999 are queryable over
     any window interval;
   - any other Metrics.observe samples reach the windows through the
     registry's observer hook.

   Windows export as JSONL (one window per line) and as Perfetto "C"
   counter-track events. *)

open Bmx_util
module T = Trace_event

type key = string * Ids.Node.t option

(* A numeric column: one counter or gauge cell of the registry.  For
   counters [prev] holds the cumulative value at the previous close, so
   each window stores the per-window delta (a flow); gauges store the
   level at close. *)
type ncol = {
  nkey : key;
  nsrc : Metrics.source;
  mutable prev : int;
  nis_counter : bool;
}

type hcol = { hkey : key; hrng : Rng.t }

(* Per-window reservoir of one histogram column.  [hn] counts samples
   offered; the stored prefix is [min hn (Array.length hsamples)].  The
   array grows by doubling up to the series' reservoir cap, so a column
   that sees few samples in a window holds few floats. *)
type hwin = { mutable hn : int; mutable hsamples : float array }

(* Every column idle in a window shares this one: a column gets its own
   reservoir on its first sample there.  Never written. *)
let idle = { hn = 0; hsamples = [||] }

type slot = {
  mutable t0 : int;
  mutable used : bool;  (* closed and queryable (vs in-progress/recycled) *)
  mutable nvals : int array;  (* per numeric column, value at close *)
  mutable hwins : hwin array;  (* per histogram column *)
}

type t = {
  window : int;
  reservoir : int;
  metrics : Metrics.t option;
  mutable gen : int;  (* Metrics.generation mirrored by the column cache *)
  mutable ncols : ncol array;
  nindex : (key, int) Hashtbl.t;
  mutable hcols : hcol array;
  hindex : (key, int) Hashtbl.t;
  slots : slot array;
  mutable cur : int;
  mutable cur_t0 : int;  (* -1 until the first event/note arrives *)
  mutable frozen : bool;
  mutable closed : int;
  mutable on_window : (t -> unit) option;
  pairing : int Span.pairing;  (* open intervals hold their begin time *)
  family_cols : (Span.family, int) Hashtbl.t;  (* family -> hcol index *)
  seed : int;
}

let default_window = T.quantum
let default_slots = 512
let default_reservoir = 128

let create ?(window = default_window) ?(slots = default_slots)
    ?(reservoir = default_reservoir) ?metrics ?(seed = 0x5e11e5) () =
  if window <= 0 then invalid_arg "Timeseries.create: window";
  if slots <= 0 then invalid_arg "Timeseries.create: slots";
  if reservoir <= 0 then invalid_arg "Timeseries.create: reservoir";
  {
    window;
    reservoir;
    metrics;
    gen = -1;
    ncols = [||];
    nindex = Hashtbl.create 64;
    hcols = [||];
    hindex = Hashtbl.create 16;
    slots =
      Array.init slots (fun _ ->
          { t0 = 0; used = false; nvals = [||]; hwins = [||] });
    cur = 0;
    cur_t0 = -1;
    frozen = false;
    closed = 0;
    on_window = None;
    pairing = Span.pairing (fun ts _ -> ts);
    family_cols = Hashtbl.create 16;
    seed;
  }

let window t = t.window
let closed_windows t = t.closed
let on_window t f = t.on_window <- Some f

(* ------------------------------------------------------- column cache *)

let source_value = function
  | Metrics.S_counter r | Metrics.S_gauge r -> !r
  | Metrics.S_gauge_fn f -> ( try !f () with _ -> 0)

(* Re-mirror the registry's cells when its generation moved.  Existing
   columns keep their position (and their counter baseline); new cells
   append in sorted-key order so identical runs build identical column
   layouts regardless of hash-table iteration. *)
let refresh_cols t =
  match t.metrics with
  | None -> ()
  | Some m ->
      let g = Metrics.generation m in
      if g <> t.gen then begin
        t.gen <- g;
        let fresh =
          Metrics.sources m
          |> List.filter (fun (key, _) -> not (Hashtbl.mem t.nindex key))
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        if fresh <> [] then begin
          let n = Array.length t.ncols in
          let add =
            Array.of_list
              (List.map
                 (fun (nkey, nsrc) ->
                   {
                     nkey;
                     nsrc;
                     (* baseline now: a counter that predates its column
                        must not dump its whole history into the first
                        window it appears in *)
                     prev = source_value nsrc;
                     nis_counter =
                       (match nsrc with
                       | Metrics.S_counter _ -> true
                       | _ -> false);
                   })
                 fresh)
          in
          t.ncols <- Array.append t.ncols add;
          Array.iteri
            (fun i c -> Hashtbl.replace t.nindex c.nkey (n + i))
            add
        end
      end

let hcol_index t key =
  match Hashtbl.find_opt t.hindex key with
  | Some i -> i
  | None ->
      let i = Array.length t.hcols in
      let hrng = Rng.make (t.seed lxor Hashtbl.hash key) in
      t.hcols <- Array.append t.hcols [| { hkey = key; hrng } |];
      Hashtbl.replace t.hindex key i;
      i

(* The latency column of a family, its name built on first use only. *)
let family_col t f =
  match Hashtbl.find t.family_cols f with
  | i -> i
  | exception Not_found ->
      let i = hcol_index t ("latency." ^ Span.family_name f, None) in
      Hashtbl.add t.family_cols f i;
      i

(* --------------------------------------------------------- the clock *)

let align t ts = ts - (ts mod t.window)

let reset_slot s ~t0 =
  s.t0 <- t0;
  s.used <- false;
  Array.iter (fun hw -> if hw != idle then hw.hn <- 0) s.hwins

let close_current t =
  refresh_cols t;
  let s = t.slots.(t.cur) in
  let n = Array.length t.ncols in
  if Array.length s.nvals < n then s.nvals <- Array.make n 0;
  for i = 0 to n - 1 do
    let c = t.ncols.(i) in
    let v = source_value c.nsrc in
    if c.nis_counter then begin
      s.nvals.(i) <- v - c.prev;
      c.prev <- v
    end
    else s.nvals.(i) <- v
  done;
  Perfcount.(
    counters.s_obs_sample_work <-
      counters.s_obs_sample_work + n + Array.length t.hcols);
  s.used <- true;
  t.closed <- t.closed + 1;
  match t.on_window with None -> () | Some f -> f t

let advance t =
  close_current t;
  t.cur <- (t.cur + 1) mod Array.length t.slots;
  t.cur_t0 <- t.cur_t0 + t.window;
  reset_slot t.slots.(t.cur) ~t0:t.cur_t0

let note t ts =
  if not t.frozen then begin
    if t.cur_t0 < 0 then begin
      t.cur_t0 <- align t ts;
      t.slots.(t.cur).t0 <- t.cur_t0
    end;
    while ts >= t.cur_t0 + t.window do
      advance t
    done
  end

let freeze t =
  if not t.frozen then begin
    if t.cur_t0 >= 0 then close_current t;
    t.frozen <- true;
    match t.metrics with None -> () | Some m -> Metrics.set_observer m None
  end

(* ------------------------------------------------------ observations *)

(* Offer [x] to histogram column [i]'s reservoir in the current window. *)
let add t i x =
  let s = t.slots.(t.cur) in
  if Array.length s.hwins <= i then begin
    let n = Array.length s.hwins in
    s.hwins <-
      Array.init (Array.length t.hcols) (fun j ->
          if j < n then s.hwins.(j) else idle)
  end;
  let hw =
    match s.hwins.(i) with
    | hw when hw == idle ->
        let hw = { hn = 0; hsamples = Array.make 1 0. } in
        s.hwins.(i) <- hw;
        hw
    | hw -> hw
  in
  hw.hn <- hw.hn + 1;
  let j = Stats.Summary.reservoir_slot t.hcols.(i).hrng ~n:hw.hn ~cap:t.reservoir in
  if j >= Array.length hw.hsamples then begin
    let grown =
      Array.make (Stdlib.min t.reservoir (2 * Array.length hw.hsamples)) 0.
    in
    Array.blit hw.hsamples 0 grown 0 (Array.length hw.hsamples);
    hw.hsamples <- grown
  end;
  if j >= 0 then hw.hsamples.(j) <- x

let observe t ts key x =
  if not t.frozen then begin
    note t ts;
    add t (hcol_index t key) x
  end

let event t ts e =
  if not t.frozen then begin
    note t ts;
    match Span.step t.pairing ts e with
    | Span.Ended start -> (
        match Span.family e with
        | Some f -> add t (family_col t f) (float_of_int (ts - start))
        | None -> ())
    | Span.Began | Span.Unmatched | Span.Retransmitted _ | Span.Unpaired -> ()
  end

let attach t log =
  T.add_tap log (fun ts e -> event t ts e);
  match t.metrics with
  | None -> ()
  | Some m ->
      Metrics.set_observer m
        (Some
           (fun name node x ->
             (* Samples observed outside the event stream land at the
                current window position. *)
             let ts = if t.cur_t0 < 0 then 0 else t.cur_t0 in
             observe t ts ((name, node) : key) x))

(* ------------------------------------------------------------ queries *)

let used_slots t =
  let l = ref [] in
  Array.iter (fun s -> if s.used then l := s :: !l) t.slots;
  List.sort (fun a b -> compare a.t0 b.t0) !l

let span t =
  match used_slots t with
  | [] -> None
  | first :: _ as l ->
      let last = List.nth l (List.length l - 1) in
      Some (first.t0, last.t0 + t.window)

let overlapping t ~since ~until =
  List.filter
    (fun s -> s.t0 < until && s.t0 + t.window > since)
    (used_slots t)

let counter_sum t ?node ~since ~until name =
  match Hashtbl.find_opt t.nindex (name, node) with
  | None -> 0
  | Some i ->
      List.fold_left
        (fun acc s -> if i < Array.length s.nvals then acc + s.nvals.(i) else acc)
        0
        (overlapping t ~since ~until)

let gauge_last t ?node ~since ~until name =
  match Hashtbl.find_opt t.nindex (name, node) with
  | None -> None
  | Some i ->
      List.fold_left
        (fun acc s ->
          if i < Array.length s.nvals then Some s.nvals.(i) else acc)
        None
        (overlapping t ~since ~until)

let stored hw = Stdlib.min hw.hn (Array.length hw.hsamples)

let gather t ?node ~since ~until name =
  match Hashtbl.find_opt t.hindex (name, node) with
  | None -> [||]
  | Some i ->
      let slots = overlapping t ~since ~until in
      let total =
        List.fold_left
          (fun acc s ->
            if i < Array.length s.hwins then acc + stored s.hwins.(i) else acc)
          0 slots
      in
      let out = Array.make total 0. in
      let pos = ref 0 in
      List.iter
        (fun s ->
          if i < Array.length s.hwins then begin
            let hw = s.hwins.(i) in
            let k = stored hw in
            Array.blit hw.hsamples 0 out !pos k;
            pos := !pos + k
          end)
        slots;
      out

let sample_count t ?node ~since ~until name =
  match Hashtbl.find_opt t.hindex (name, node) with
  | None -> 0
  | Some i ->
      List.fold_left
        (fun acc s ->
          if i < Array.length s.hwins then acc + s.hwins.(i).hn else acc)
        0
        (overlapping t ~since ~until)

(* Stats.Summary's estimator, so a merged window interval that saw every
   sample reproduces the whole-run reservoir exactly. *)
let percentile t ?node ~since ~until name p =
  Stats.Summary.nearest_rank (gather t ?node ~since ~until name) p

(* ------------------------------------------------------------- export *)

let key_fields (name, node) =
  ("name", Json.String name)
  ::
  (match node with None -> [] | Some n -> [ ("node", Json.Int n) ])

let window_json t s =
  let numeric pred =
    let l = ref [] in
    for i = Array.length s.nvals - 1 downto 0 do
      if i < Array.length t.ncols && pred t.ncols.(i) then
        l :=
          Json.Obj (key_fields t.ncols.(i).nkey @ [ ("v", Json.Int s.nvals.(i)) ])
          :: !l
    done;
    !l
  in
  let histos =
    let l = ref [] in
    for i = Array.length s.hwins - 1 downto 0 do
      if i < Array.length t.hcols then begin
        let hw = s.hwins.(i) in
        if hw.hn > 0 then
          l :=
            Json.Obj
              (key_fields t.hcols.(i).hkey
              @ [
                  ("n", Json.Int hw.hn);
                  ( "samples",
                    Json.List
                      (List.init (stored hw) (fun j ->
                           Json.Float hw.hsamples.(j))) );
                ])
            :: !l
      end
    done;
    !l
  in
  Json.Obj
    [
      ("t0", Json.Int s.t0);
      ("t1", Json.Int (s.t0 + t.window));
      ("counters", Json.List (numeric (fun c -> c.nis_counter)));
      ("gauges", Json.List (numeric (fun c -> not c.nis_counter)));
      ("histos", Json.List histos);
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Json.to_string (window_json t s));
      Buffer.add_char buf '\n')
    (used_slots t);
  Buffer.contents buf

(* Perfetto counter tracks: one "C" event per numeric column per window
   (node-labelled series go to their node's process, cluster-wide to
   pid 0). *)
let perfetto_counters t =
  List.concat_map
    (fun s ->
      let l = ref [] in
      for i = Array.length s.nvals - 1 downto 0 do
        if i < Array.length t.ncols then begin
          let name, node = t.ncols.(i).nkey in
          l :=
            Json.Obj
              [
                ("ph", Json.String "C");
                ("pid", Json.Int (match node with Some n -> n | None -> 0));
                ("name", Json.String name);
                ("ts", Json.Int s.t0);
                ("args", Json.Obj [ ("value", Json.Int s.nvals.(i)) ]);
              ]
            :: !l
        end
      done;
      !l)
    (used_slots t)
