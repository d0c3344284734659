open Bmx_util

type key = string * Ids.Node.t option

type cell =
  | C_counter of int ref
  | C_gauge of int ref
  | C_gauge_fn of (unit -> int) ref
  | C_histo of Stats.Summary.t

type t = {
  cells : (key, cell) Hashtbl.t;
  (* Bumped whenever a new cell is registered; the periodic sampler
     caches direct refs to the cells and uses this to notice when its
     cache went stale, so steady-state sampling never rebuilds lists. *)
  mutable generation : int;
  (* Live histogram-sample observer (the timeseries layer): called once
     per [observe] so windowed reservoirs see raw samples at the right
     virtual time, which a summary snapshot could never recover. *)
  mutable observer : (string -> Ids.Node.t option -> float -> unit) option;
}

let create () = { cells = Hashtbl.create 64; generation = 0; observer = None }
let generation t = t.generation
let set_observer t f = t.observer <- f

let add_cell t key cell =
  t.generation <- t.generation + 1;
  Hashtbl.add t.cells key cell

let wrong_kind name what =
  invalid_arg (Printf.sprintf "Metrics: %S already registered as a %s" name what)

let counter_cell t ?node name =
  let key = (name, node) in
  match Hashtbl.find_opt t.cells key with
  | Some (C_counter r) -> r
  | Some _ -> wrong_kind name "non-counter"
  | None ->
      let r = ref 0 in
      add_cell t key (C_counter r);
      r

let incr t ?node ?(by = 1) name =
  let r = counter_cell t ?node name in
  r := !r + by

let set_gauge t ?node name v =
  let key = (name, node) in
  match Hashtbl.find_opt t.cells key with
  | Some (C_gauge r) -> r := v
  | Some _ -> wrong_kind name "non-gauge"
  | None -> add_cell t key (C_gauge (ref v))

let gauge_fn t ?node name f =
  let key = (name, node) in
  match Hashtbl.find_opt t.cells key with
  | Some (C_gauge_fn r) -> r := f
  | Some _ -> wrong_kind name "non-gauge"
  | None -> add_cell t key (C_gauge_fn (ref f))

let observe t ?node name x =
  let key = (name, node) in
  (match Hashtbl.find_opt t.cells key with
  | Some (C_histo s) -> Stats.Summary.add s x
  | Some _ -> wrong_kind name "non-histogram"
  | None ->
      let s = Stats.Summary.create ~seed:(Hashtbl.hash key) () in
      Stats.Summary.add s x;
      add_cell t key (C_histo s));
  match t.observer with None -> () | Some f -> f name node x

(* ------------------------------------------------- sampling sources *)

type source =
  | S_counter of int ref
  | S_gauge of int ref
  | S_gauge_fn of (unit -> int) ref

let sources t =
  Hashtbl.fold
    (fun key cell acc ->
      match cell with
      | C_counter r -> (key, S_counter r) :: acc
      | C_gauge r -> (key, S_gauge r) :: acc
      | C_gauge_fn f -> (key, S_gauge_fn f) :: acc
      | C_histo _ -> acc)
    t.cells []

(* ---------------------------------------------------------- snapshots *)

type summary = {
  s_count : int;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of summary

type snapshot = (key * value) list

let summarize s =
  {
    s_count = Stats.Summary.n s;
    s_min = Stats.Summary.min s;
    s_max = Stats.Summary.max s;
    s_mean = Stats.Summary.mean s;
    s_p50 = Stats.Summary.percentile s 50.;
    s_p90 = Stats.Summary.percentile s 90.;
    s_p99 = Stats.Summary.percentile s 99.;
  }

let compare_key (na, la) (nb, lb) =
  match String.compare na nb with
  | 0 -> (
      match (la, lb) with
      | None, None -> 0
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some a, Some b -> Ids.Node.compare a b)
  | c -> c

let snapshot t : snapshot =
  Hashtbl.fold
    (fun key cell acc ->
      let v =
        match cell with
        | C_counter r -> Counter !r
        | C_gauge r -> Gauge !r
        | C_gauge_fn f -> Gauge (try !f () with _ -> 0)
        | C_histo s -> Histogram (summarize s)
      in
      (key, v) :: acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let get snap ?node name =
  List.assoc_opt (name, node) snap

let counter_total snap name =
  List.fold_left
    (fun acc ((n, _), v) ->
      match v with Counter c when String.equal n name -> acc + c | _ -> acc)
    0 snap

let diff ~before ~after : snapshot =
  List.map
    (fun (key, v) ->
      match v with
      | Counter a ->
          let b =
            match List.assoc_opt key before with Some (Counter b) -> b | _ -> 0
          in
          (key, Counter (a - b))
      | Gauge _ | Histogram _ -> (key, v))
    after

(* ------------------------------------------------------------- export *)

let key_label (name, node) =
  match node with
  | None -> name
  | Some n -> Printf.sprintf "%s{node=%d}" name n

let to_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (key, v) ->
      let label = key_label key in
      (match v with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-44s %d" label c)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%-44s %d (gauge)" label g)
      | Histogram s ->
          Buffer.add_string buf
            (Printf.sprintf
               "%-44s n=%d min=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f mean=%.1f"
               label s.s_count s.s_min s.s_p50 s.s_p90 s.s_p99 s.s_max s.s_mean));
      Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf

let to_json snap =
  let entry ((name, node), v) =
    let base = [ ("name", Json.String name) ] in
    let base =
      match node with
      | None -> base
      | Some n -> base @ [ ("node", Json.Int n) ]
    in
    let rest =
      match v with
      | Counter c -> [ ("kind", Json.String "counter"); ("value", Json.Int c) ]
      | Gauge g -> [ ("kind", Json.String "gauge"); ("value", Json.Int g) ]
      | Histogram s ->
          [
            ("kind", Json.String "histogram");
            ("count", Json.Int s.s_count);
            ("min", Json.Float s.s_min);
            ("max", Json.Float s.s_max);
            ("mean", Json.Float s.s_mean);
            ("p50", Json.Float s.s_p50);
            ("p90", Json.Float s.s_p90);
            ("p99", Json.Float s.s_p99);
          ]
    in
    Json.Obj (base @ rest)
  in
  Json.List (List.map entry snap)
