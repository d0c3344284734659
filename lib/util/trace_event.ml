include Trace_types

(* ------------------------------------------------------------- schema *)

(* Each constructor's fields in text order, indexed by tag.  Flags (actor,
   tok, bools) are header bits, nodes its two node slots and the string
   its interned id; ints follow the header as words and the list trails
   them.  [Rel] is a bool that traces from before the reliable-delivery
   layer omit (read as 0). *)
type field = Actor | Tok | Bool | Rel | Node | Int | Str | Ints

let schema =
  [|
    ("acquire_start", [ Actor; Node; Int; Tok ]);
    ("acquire_done", [ Actor; Node; Int; Tok; Bool ]);
    ("release", [ Node; Int ]);
    ("grant_sent", [ Node; Node; Int; Tok; Int ]);
    ("hook_ssp", [ Node; Node; Int ]);
    ("invalidate", [ Node; Node; Int ]);
    ("updates_applied", [ Node; Ints ]);
    ("forward_due", [ Node; Int; Ints ]);
    ("copyset_forward", [ Node; Node; Int ]);
    ("gc_begin", [ Node; Bool; Ints ]);
    ("gc_end", [ Node; Bool; Int; Int ]);
    ("msg_sent", [ Node; Node; Str; Int; Rel ]);
    ("msg_delivered", [ Node; Node; Str; Int; Rel ]);
    ("msg_retransmit", [ Node; Node; Str; Int; Int ]);
    ("msg_suppressed", [ Node; Node; Str; Int ]);
    ("msg_buffered", [ Node; Node; Str; Int ]);
    ("rpc", [ Node; Node; Str; Int ]);
    ("crash", [ Node ]);
    ("restart", [ Node ]);
    ("link_cut", [ Node; Node ]);
    ("link_heal", [ Node; Node ]);
    ("suspect", [ Node; Node; Bool ]);
    ("owner_adopted", [ Node; Int; Int ]);
    ("tables_processed", [ Node; Node; Int; Int ]);
    ("disk_fault", [ Node; Str ]);
    ("rvm_recover", [ Node; Int; Int ]);
    ("bunch_verified", [ Node; Int ]);
    ("shard_alloc", [ Int; Node ]);
    ("shard_adopted", [ Int; Node ]);
    ("read_obs", [ Actor; Node; Int; Int; Bool ]);
    ("write_obs", [ Actor; Node; Int; Int; Bool ]);
  |]

let count k =
  Array.map (fun (_, fs) -> List.length (List.filter (( = ) k) fs)) schema

let n_nodes = count Node
let n_ints = count Int
let n_strs = count Str
let n_lists = count Ints

(* One event unpacked: [encode] fills it from a [t], [decode] builds a
   [t] from it.  Nodes and ints fill their two slots in text order. *)
type fields = {
  mutable tag : int;
  mutable flags : int;
  mutable n0 : int;
  mutable n1 : int;
  mutable str : string;
  mutable i0 : int;
  mutable i1 : int;
  mutable ints : int list;
}

let fields () =
  { tag = 0; flags = 0; n0 = 0; n1 = 0; str = ""; i0 = 0; i1 = 0; ints = [] }

let set f tag flags n0 n1 str i0 i1 ints =
  f.tag <- tag;
  f.flags <- flags;
  f.n0 <- n0;
  f.n1 <- n1;
  f.str <- str;
  f.i0 <- i0;
  f.i1 <- i1;
  f.ints <- ints

let bit b = if b then 1 else 0
let act = function App -> 0 | Gc -> 1
let tk = function Read -> 0 | Write -> 1

let encode f = function
  | Acquire_start { actor; node; uid; tok } ->
      set f 0 (act actor lor (tk tok lsl 1)) node 0 "" uid 0 []
  | Acquire_done { actor; node; uid; tok; addr_valid } ->
      let flags = act actor lor (tk tok lsl 1) lor (bit addr_valid lsl 2) in
      set f 1 flags node 0 "" uid 0 []
  | Release { node; uid } -> set f 2 0 node 0 "" uid 0 []
  | Grant_sent { granter; requester; uid; tok; updates } ->
      set f 3 (tk tok) granter requester "" uid updates []
  | Hook_ssp { granter; requester; uid } ->
      set f 4 0 granter requester "" uid 0 []
  | Invalidate { src; dst; uid } -> set f 5 0 src dst "" uid 0 []
  | Updates_applied { node; uids } -> set f 6 0 node 0 "" 0 0 uids
  | Forward_due { node; uid; peers } -> set f 7 0 node 0 "" uid 0 peers
  | Copyset_forward { src; dst; uid } -> set f 8 0 src dst "" uid 0 []
  | Gc_begin { node; group; bunches } ->
      set f 9 (bit group) node 0 "" 0 0 bunches
  | Gc_end { node; group; live; reclaimed } ->
      set f 10 (bit group) node 0 "" live reclaimed []
  | Msg_sent { src; dst; kind; seq; rel } ->
      set f 11 (bit rel) src dst kind seq 0 []
  | Msg_delivered { src; dst; kind; seq; rel } ->
      set f 12 (bit rel) src dst kind seq 0 []
  | Msg_retransmit { src; dst; kind; seq; attempt } ->
      set f 13 0 src dst kind seq attempt []
  | Msg_suppressed { src; dst; kind; seq } -> set f 14 0 src dst kind seq 0 []
  | Msg_buffered { src; dst; kind; seq } -> set f 15 0 src dst kind seq 0 []
  | Rpc { src; dst; kind; seq } -> set f 16 0 src dst kind seq 0 []
  | Crash { node } -> set f 17 0 node 0 "" 0 0 []
  | Restart { node } -> set f 18 0 node 0 "" 0 0 []
  | Link_cut { src; dst } -> set f 19 0 src dst "" 0 0 []
  | Link_heal { src; dst } -> set f 20 0 src dst "" 0 0 []
  | Suspect { src; dst; on } -> set f 21 (bit on) src dst "" 0 0 []
  | Owner_adopted { node; uid; prev } -> set f 22 0 node 0 "" uid prev []
  | Tables_processed { at; sender; bunch; seq } ->
      set f 23 0 at sender "" bunch seq []
  | Disk_fault { node; fault } -> set f 24 0 node 0 fault 0 0 []
  | Rvm_recover { node; dropped; lost } ->
      set f 25 0 node 0 "" dropped lost []
  | Bunch_verified { node; missing } -> set f 26 0 node 0 "" missing 0 []
  | Shard_alloc { shard; node } -> set f 27 0 node 0 "" shard 0 []
  | Shard_adopted { shard; node } -> set f 28 0 node 0 "" shard 0 []
  | Read_obs { actor; node; uid; version; covered } ->
      set f 29 (act actor lor (bit covered lsl 1)) node 0 "" uid version []
  | Write_obs { actor; node; uid; version; covered } ->
      set f 30 (act actor lor (bit covered lsl 1)) node 0 "" uid version []

let flag f k = (f.flags lsr k) land 1 = 1
let actor f = if flag f 0 then Gc else App
let tok f k = if flag f k then Write else Read

let decode f =
  let n0 = f.n0 and n1 = f.n1 and i0 = f.i0 and i1 = f.i1 and str = f.str in
  match f.tag with
  | 0 -> Acquire_start { actor = actor f; node = n0; uid = i0; tok = tok f 1 }
  | 1 ->
      let actor = actor f and tok = tok f 1 in
      Acquire_done { actor; node = n0; uid = i0; tok; addr_valid = flag f 2 }
  | 2 -> Release { node = n0; uid = i0 }
  | 3 ->
      let tok = tok f 0 in
      Grant_sent { granter = n0; requester = n1; uid = i0; tok; updates = i1 }
  | 4 -> Hook_ssp { granter = n0; requester = n1; uid = i0 }
  | 5 -> Invalidate { src = n0; dst = n1; uid = i0 }
  | 6 -> Updates_applied { node = n0; uids = f.ints }
  | 7 -> Forward_due { node = n0; uid = i0; peers = f.ints }
  | 8 -> Copyset_forward { src = n0; dst = n1; uid = i0 }
  | 9 -> Gc_begin { node = n0; group = flag f 0; bunches = f.ints }
  | 10 -> Gc_end { node = n0; group = flag f 0; live = i0; reclaimed = i1 }
  | 11 -> Msg_sent { src = n0; dst = n1; kind = str; seq = i0; rel = flag f 0 }
  | 12 ->
      Msg_delivered { src = n0; dst = n1; kind = str; seq = i0; rel = flag f 0 }
  | 13 ->
      Msg_retransmit { src = n0; dst = n1; kind = str; seq = i0; attempt = i1 }
  | 14 -> Msg_suppressed { src = n0; dst = n1; kind = str; seq = i0 }
  | 15 -> Msg_buffered { src = n0; dst = n1; kind = str; seq = i0 }
  | 16 -> Rpc { src = n0; dst = n1; kind = str; seq = i0 }
  | 17 -> Crash { node = n0 }
  | 18 -> Restart { node = n0 }
  | 19 -> Link_cut { src = n0; dst = n1 }
  | 20 -> Link_heal { src = n0; dst = n1 }
  | 21 -> Suspect { src = n0; dst = n1; on = flag f 0 }
  | 22 -> Owner_adopted { node = n0; uid = i0; prev = i1 }
  | 23 -> Tables_processed { at = n0; sender = n1; bunch = i0; seq = i1 }
  | 24 -> Disk_fault { node = n0; fault = str }
  | 25 -> Rvm_recover { node = n0; dropped = i0; lost = i1 }
  | 26 -> Bunch_verified { node = n0; missing = i0 }
  | 27 -> Shard_alloc { shard = i0; node = n0 }
  | 28 -> Shard_adopted { shard = i0; node = n0 }
  | 29 ->
      let actor = actor f and covered = flag f 1 in
      Read_obs { actor; node = n0; uid = i0; version = i1; covered }
  | 30 ->
      let actor = actor f and covered = flag f 1 in
      Write_obs { actor; node = n0; uid = i0; version = i1; covered }
  | tag -> invalid_arg (Printf.sprintf "Trace_event.decode: tag %d" tag)

let nodes e =
  let f = fields () in
  encode f e;
  if n_nodes.(f.tag) = 2 then [ f.n0; f.n1 ] else [ f.n0 ]

(* ------------------------------------------------------------ storage *)

type log = {
  mutable log_enabled : bool;
  mutable full : int array list;  (* filled chunks, newest first *)
  mutable cur : int array;
  mutable pos : int;  (* next free word of [cur] *)
  mutable strs : string array;  (* interned strings, by id *)
  scratch : fields;
  mutable count : int;
  capacity : int;
  mutable over : bool;
  mutable clock : unit -> int;
  mutable last_ts : int;
  mutable taps : (int -> t -> unit) list;
}

let quantum = 1000

(* Chunks double from [first_chunk] words (most logs in tests hold a few
   events) to [chunk_words].  Both exceed the minor heap's 256-word
   limit, so every chunk is allocated straight on the major heap. *)
let first_chunk = 512
let chunk_words = 65_536

let create_log ?(capacity = 1_000_000) () =
  if capacity <= 0 then invalid_arg "Trace_event.create_log: capacity";
  {
    log_enabled = false;
    full = [];
    cur = [||];
    pos = 0;
    strs = [||];
    scratch = fields ();
    count = 0;
    capacity;
    over = false;
    clock = (fun () -> 0);
    last_ts = 0;
    taps = [];
  }

let enabled l = l.log_enabled
let set_enabled l b = l.log_enabled <- b
let set_clock l f = l.clock <- f

(* Taps see every recorded event (timestamped) as it happens — the
   continuous-observability layer (timeseries sampler, flight recorder)
   hangs off here rather than polling the log. *)
let add_tap l f = l.taps <- l.taps @ [ f ]

let push l w =
  let n = Array.length l.cur in
  if l.pos = n then begin
    if n > 0 then l.full <- l.cur :: l.full;
    l.cur <- Array.make (Int.max first_chunk (Int.min chunk_words (2 * n))) 0;
    l.pos <- 0
  end;
  l.cur.(l.pos) <- w;
  l.pos <- l.pos + 1

let rec push_list l = function
  | [] -> ()
  | x :: rest ->
      push l x;
      push_list l rest

(* A scan, not a hashtable: a log holds a few dozen kind and fault
   names, producers pass the same literal each time, and the lookup must
   not allocate. *)
let rec intern l s i =
  if i = Array.length l.strs then begin
    l.strs <- Array.append l.strs [| s |];
    i
  end
  else if l.strs.(i) == s || String.equal l.strs.(i) s then i
  else intern l s (i + 1)

(* Header bits: tag 0-5, wide 6, flags 7-10, string id 11-18, node slots
   19-38 and 39-58. *)
let narrow n = n >= -1 && n < 0xFFFFF

let store l f =
  let sid = if n_strs.(f.tag) > 0 then intern l f.str 0 else 0 in
  let h = f.tag lor (f.flags lsl 7) lor (Int.min sid 255 lsl 11) in
  if narrow f.n0 && narrow f.n1 then
    push l (h lor ((f.n0 + 1) lsl 19) lor ((f.n1 + 1) lsl 39))
  else begin
    push l (h lor 64);
    push l f.n0;
    push l f.n1
  end;
  if sid >= 255 then push l sid;
  if n_ints.(f.tag) > 0 then push l f.i0;
  if n_ints.(f.tag) > 1 then push l f.i1;
  if n_lists.(f.tag) > 0 then begin
    push l (List.length f.ints);
    push_list l f.ints
  end

let rec fire ts e = function
  | [] -> ()
  | tap :: rest ->
      tap ts e;
      fire ts e rest

let record l e =
  if l.log_enabled then begin
    if l.count >= l.capacity then l.over <- true
    else begin
      (* Virtual-microstep timestamp: the network clock anchors it, and
         every recorded event advances at least one µstep so intervals
         between events in the same clock tick still have extent. *)
      let ts = Int.max (l.last_ts + 1) (l.clock () * quantum) in
      l.last_ts <- ts;
      encode l.scratch e;
      push l ts;
      store l l.scratch;
      l.count <- l.count + 1;
      fire ts e l.taps
    end
  end

type reader = {
  mutable rest : int array list;
  mutable ch : int array;
  mutable off : int;
}

let next r =
  if r.off = Array.length r.ch then begin
    r.ch <- List.hd r.rest;
    r.rest <- List.tl r.rest;
    r.off <- 0
  end;
  let w = r.ch.(r.off) in
  r.off <- r.off + 1;
  w

let load l r f =
  let h = next r in
  f.tag <- h land 63;
  f.flags <- (h lsr 7) land 15;
  if h land 64 = 0 then begin
    f.n0 <- ((h lsr 19) land 0xFFFFF) - 1;
    f.n1 <- ((h lsr 39) land 0xFFFFF) - 1
  end
  else begin
    f.n0 <- next r;
    f.n1 <- next r
  end;
  let sid = (h lsr 11) land 255 in
  if n_strs.(f.tag) > 0 then
    f.str <- l.strs.(if sid = 255 then next r else sid);
  if n_ints.(f.tag) > 0 then f.i0 <- next r;
  if n_ints.(f.tag) > 1 then f.i1 <- next r;
  if n_lists.(f.tag) > 0 then f.ints <- List.init (next r) (fun _ -> next r)

let fold l fn acc =
  let r = { rest = List.rev (l.cur :: l.full); ch = [||]; off = 0 } in
  let f = fields () and acc = ref acc in
  for _ = 1 to l.count do
    let ts = next r in
    load l r f;
    acc := fn !acc ts (decode f)
  done;
  !acc

let iter l fn = fold l (fun () ts e -> fn ts e) ()
let events l = List.rev (fold l (fun acc _ e -> e :: acc) [])
let timed_events l = List.rev (fold l (fun acc ts e -> (ts, e) :: acc) [])
let length l = l.count
let words l = List.fold_left (fun n c -> n + Array.length c) l.pos l.full
let overflowed l = l.over

let clear l =
  l.full <- [];
  l.cur <- [||];
  l.pos <- 0;
  l.strs <- [||];
  l.count <- 0;
  l.over <- false;
  l.last_ts <- 0

(* --------------------------------------------------------------- text *)

(* A flag field's name, then its text for 0 and for 1. *)
let flag_text = function
  | Actor -> ("actor", "app", "gc")
  | Tok -> ("tok", "r", "w")
  | _ -> ("bool", "0", "1")

(* Counts a slot's use: true the first time, for [n0]/[i0]. *)
let first r =
  incr r;
  !r = 1

let to_line e =
  let f = fields () in
  encode f e;
  let name, kinds = schema.(f.tag) in
  let flags = ref 0 and nodes = ref 0 and ints = ref 0 in
  let text = function
    | Node -> string_of_int (if first nodes then f.n0 else f.n1)
    | Int -> string_of_int (if first ints then f.i0 else f.i1)
    | Str -> f.str
    | Ints when f.ints = [] -> "-"
    | Ints -> String.concat "," (List.map string_of_int f.ints)
    | (Actor | Tok | Bool | Rel) as k ->
        let _, no, yes = flag_text k in
        incr flags;
        if flag f (!flags - 1) then yes else no
  in
  String.concat " " (name :: List.map text kinds)

exception Parse of string

let of_line line =
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
  let int s =
    match int_of_string_opt s with Some i -> i | None -> fail "bad int %S" s
  in
  let f = fields () and flags = ref 0 and nodes = ref 0 and ints = ref 0 in
  let parse k a =
    match k with
    | Node -> if first nodes then f.n0 <- int a else f.n1 <- int a
    | Int -> if first ints then f.i0 <- int a else f.i1 <- int a
    | Str -> f.str <- a
    | Ints ->
        f.ints <-
          (if a = "-" then [] else List.map int (String.split_on_char ',' a))
    | Actor | Tok | Bool | Rel ->
        let what, no, yes = flag_text k in
        if a = yes then f.flags <- f.flags lor (1 lsl !flags)
        else if a <> no then fail "bad %s %S" what a;
        incr flags
  in
  let toks = String.split_on_char ' ' (String.trim line) in
  match List.filter (( <> ) "") toks with
  | [] -> Error "empty line"
  | w :: args -> (
      let tag = Array.find_index (fun (name, _) -> name = w) schema in
      let kinds = match tag with Some t -> snd schema.(t) | None -> [] in
      (* Traces written before the reliable-delivery layer lack [rel]. *)
      let args =
        if List.mem Rel kinds && List.length args + 1 = List.length kinds then
          args @ [ "0" ]
        else args
      in
      match tag with
      | Some t when List.length args = List.length kinds -> (
          f.tag <- t;
          try
            List.iter2 parse kinds args;
            Ok (decode f)
          with Parse m -> Error m)
      | _ -> Error (Printf.sprintf "unknown or malformed event %S" w))
