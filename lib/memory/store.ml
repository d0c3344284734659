open Bmx_util

type cell = Object of Heap_obj.t | Forwarder of Addr.t

type t = {
  node : Ids.Node.t;
  registry : Registry.t;
  arena : Flatheap.t; (* flat backing store for objects this store allocates *)
  cells : (Addr.t, cell) Hashtbl.t;
  segments : (Addr.t, Segment.t) Hashtbl.t; (* keyed by range.lo *)
  seg_order : Addr.t list ref Ids.Bunch_tbl.t; (* range.lo per bunch, oldest first *)
  active : Segment.t Ids.Bunch_tbl.t; (* current allocation segment per bunch *)
  uid_index : Addr.t Ids.Uid_tbl.t;
  known_addrs : Addr.t list ref Ids.Uid_tbl.t; (* newest first *)
  by_bunch : (Addr.t, Heap_obj.t) Hashtbl.t Ids.Bunch_tbl.t;
      (* live Object cells per bunch — kept in sync by install/remove so
         per-bunch scans don't walk the whole cell table *)
  slot_rc : (int, int) Hashtbl.t;
      (* arena slot -> number of cells holding it.  During an object move
         the same slot transiently sits at two addresses (installed at the
         new one before the old becomes a forwarder): the slot is freed
         back to its arena only when the last cell lets go. *)
  mutable objects : int; (* Object cells — O(1) [object_count] *)
  mutable objects_bytes : int; (* their total [size_bytes] — O(1) gauges *)
  mutable version : int;
      (* bumped on every semantic mutation (install/remove/forward/field
         write) — NOT on reads or path compression.  The economical BGC
         skips a collection whose node state shows the same composite
         version as its previous run. *)
}

let create ~registry ~node =
  {
    node;
    registry;
    arena = Flatheap.create ~initial_words:4096 ();
    cells = Hashtbl.create 256;
    segments = Hashtbl.create 16;
    seg_order = Ids.Bunch_tbl.create 8;
    active = Ids.Bunch_tbl.create 8;
    uid_index = Ids.Uid_tbl.create 256;
    known_addrs = Ids.Uid_tbl.create 256;
    by_bunch = Ids.Bunch_tbl.create 8;
    slot_rc = Hashtbl.create 256;
    objects = 0;
    objects_bytes = 0;
    version = 0;
  }

let mut_version t = t.version
let touch t = t.version <- t.version + 1

let arena t = t.arena

(* Arena ids and slot bases are both small; 20 bits of id over 44 bits of
   base keys a slot across arenas without allocating a tuple. *)
let slot_key (o : Heap_obj.t) = (Flatheap.id o.Heap_obj.heap lsl 44) lor o.Heap_obj.base

let rc_incr t o =
  let k = slot_key o in
  match Hashtbl.find t.slot_rc k with
  | n -> Hashtbl.replace t.slot_rc k (n + 1)
  | exception Not_found -> Hashtbl.add t.slot_rc k 1

let rc_decr t o =
  let k = slot_key o in
  match Hashtbl.find t.slot_rc k with
  | n ->
      if n > 1 then Hashtbl.replace t.slot_rc k (n - 1)
      else begin
        Hashtbl.remove t.slot_rc k;
        Heap_obj.free o
      end
  | exception Not_found ->
      () (* installed before this store tracked slots; leak, don't raise *)

let bunch_cells t bunch =
  match Ids.Bunch_tbl.find t.by_bunch bunch with
  | h -> h
  | exception Not_found ->
      let h = Hashtbl.create 64 in
      Ids.Bunch_tbl.add t.by_bunch bunch h;
      h

(* Let go of the cell currently at [a] (about to be overwritten, removed
   or turned into a forwarder): drop it from the bunch index, keep the
   O(1) object/byte counters honest, and release the arena slot if this
   was its last cell. *)
let unindex_cell t a =
  match Hashtbl.find t.cells a with
  | Object obj ->
      Hashtbl.remove (bunch_cells t obj.Heap_obj.bunch) a;
      t.objects <- t.objects - 1;
      t.objects_bytes <- t.objects_bytes - Heap_obj.size_bytes obj;
      rc_decr t obj
  | Forwarder _ | (exception Not_found) -> ()


let add_segment t seg =
  let lo = seg.Segment.range.Addr.Range.lo in
  Hashtbl.replace t.segments lo seg;
  let bunch = seg.Segment.bunch in
  match Ids.Bunch_tbl.find_opt t.seg_order bunch with
  | Some r -> r := !r @ [ lo ]
  | None -> Ids.Bunch_tbl.add t.seg_order bunch (ref [ lo ])

let find_segment t a =
  Hashtbl.find t.segments (Registry.entry_at t.registry a).Registry.range.Addr.Range.lo

let segment_at t a =
  match find_segment t a with seg -> Some seg | exception Not_found -> None

let ensure_segment t ~range ~bunch =
  match Hashtbl.find_opt t.segments range.Addr.Range.lo with
  | Some seg -> seg
  | None ->
      let seg = Segment.make ~range ~bunch in
      (* This is a view of a range some other node allocates into: local
         bump allocation there would collide with the real allocator. *)
      Segment.seal seg;
      add_segment t seg;
      seg

let fresh_segment t ~bunch ?bytes () =
  let range = Registry.alloc_range t.registry ~bunch ~origin:t.node ?bytes () in
  let seg = Segment.make ~range ~bunch in
  add_segment t seg;
  seg

let segments_of_bunch t bunch =
  match Ids.Bunch_tbl.find_opt t.seg_order bunch with
  | None -> []
  | Some r -> List.filter_map (Hashtbl.find_opt t.segments) !r

let set_active_segment t ~bunch seg = Ids.Bunch_tbl.replace t.active bunch seg

let mapped_bunches t =
  Ids.Bunch_tbl.fold (fun b _ acc -> b :: acc) t.seg_order []
  |> List.sort_uniq Ids.Bunch.compare

let cell t a = Hashtbl.find_opt t.cells a

let note_maps seg a (obj : Heap_obj.t) =
  Bitmap.set seg.Segment.object_map a;
  let n = Heap_obj.num_fields obj in
  for i = 0 to n - 1 do
    let field_addr = Addr.add a (Heap_obj.header_bytes + (i * Addr.word)) in
    if Segment.contains seg field_addr then
      Segment.note_pointer seg field_addr
        ~is_pointer:(Value.raw_is_pointer (Heap_obj.get_raw obj i))
  done

(* Note [obj] in the maps of the segment holding [a], mapping the
   segment locally if need be, so the object-map stays accurate even for
   remotely allocated ranges. *)
let map_object t a obj =
  match Registry.entry_at t.registry a with
  | e -> note_maps (ensure_segment t ~range:e.Registry.range ~bunch:e.Registry.bunch) a obj
  | exception Not_found -> ()

let install t a obj =
  (* Claim the new slot before letting go of the old cell: when [a] is
     re-installed with the handle it already holds, decr-then-incr would
     free the slot out from under us. *)
  touch t;
  rc_incr t obj;
  unindex_cell t a;
  t.objects <- t.objects + 1;
  t.objects_bytes <- t.objects_bytes + Heap_obj.size_bytes obj;
  Hashtbl.replace t.cells a (Object obj);
  Hashtbl.replace (bunch_cells t obj.Heap_obj.bunch) a obj;
  Ids.Uid_tbl.replace t.uid_index obj.Heap_obj.uid a;
  (match Ids.Uid_tbl.find t.known_addrs obj.Heap_obj.uid with
  | r -> if (match !r with a' :: _ -> not (Addr.equal a a') | [] -> true) then r := a :: !r
  | exception Not_found -> Ids.Uid_tbl.add t.known_addrs obj.Heap_obj.uid (ref [ a ]));
  map_object t a obj

(* [install t a (Heap_obj.clone from)] without the new slot, for the
   case where it would only replace the copy of the same object that
   already sits at [a]: same uid and arity, named by the uid index, its
   slot held by no other cell.  Every map then ends as the install
   leaves it (HACKING, "In-place installs"). *)
let overwrite t a ~from =
  match Hashtbl.find t.cells a with
  | Forwarder _ -> raise_notrace Not_found
  | Object obj ->
      let uid = from.Heap_obj.uid in
      if
        (not (Ids.Uid.equal obj.Heap_obj.uid uid))
        || (not (Addr.equal (Ids.Uid_tbl.find t.uid_index uid) a))
        || Heap_obj.num_fields obj <> Heap_obj.num_fields from
        || Hashtbl.find t.slot_rc (slot_key obj) <> 1
      then raise_notrace Not_found;
      touch t;
      Heap_obj.overwrite obj ~from;
      map_object t a obj;
      obj

let set_forwarder t ~at ~target =
  (* The forwarder graph must stay acyclic or [resolve] dies.  A cycle
     can only appear when the new link's target already chains back to
     [at] — possible under address reuse: an object moves A -> B -> A and
     a node that recorded the first hop later learns of the second (or a
     duplicated location update replays it).  The incoming link is the
     newest information, so break the stale orientation: re-point every
     hop of the back-chain at [target] and make [target] the endpoint. *)
  if
    (not (Addr.equal at target))
    && Hashtbl.find_opt t.cells at <> Some (Forwarder target)
  then begin
    touch t;
    (match Hashtbl.find_opt t.cells target with
    | Some (Forwarder _) ->
        let rec back_chain a acc fuel =
          if fuel = 0 then None
          else
            match Hashtbl.find_opt t.cells a with
            | Some (Forwarder next) ->
                if Addr.equal next at then Some (a :: acc)
                else back_chain next (a :: acc) (fuel - 1)
            | Some (Object _) | None -> None
        in
        (match back_chain target [] 4096 with
        | Some hops ->
            List.iter
              (fun h ->
                if not (Addr.equal h target) then
                  Hashtbl.replace t.cells h (Forwarder target))
              hops;
            Hashtbl.remove t.cells target
        | None -> ())
    | Some (Object _) | None -> ());
    unindex_cell t at;
    Hashtbl.replace t.cells at (Forwarder target);
    match find_segment t at with
    | seg -> Segment.clear_object seg at
    | exception Not_found -> ()
  end

let remove t a =
  if Hashtbl.mem t.cells a then touch t;
  (match Hashtbl.find_opt t.cells a with
  | Some (Object obj) ->
      if Ids.Uid_tbl.find_opt t.uid_index obj.Heap_obj.uid = Some a then
        Ids.Uid_tbl.remove t.uid_index obj.Heap_obj.uid
  | Some (Forwarder _) | None -> ());
  unindex_cell t a;
  Hashtbl.remove t.cells a;
  match find_segment t a with
  | seg -> Segment.clear_object seg a
  | exception Not_found -> ()

(* Re-point every forwarder from [a] up to [endpoint] at [endpoint]. *)
let rec compress_to t a endpoint =
  if not (Addr.equal a endpoint) then
    match Hashtbl.find t.cells a with
    | Forwarder next ->
        if not (Addr.equal next endpoint) then
          Hashtbl.replace t.cells a (Forwarder endpoint);
        compress_to t next endpoint
    | Object _ | (exception Not_found) -> ()

(* Follow the forwarder chain from [start] and return the address it
   stops at: the object's, after path-compressing the chain so it stays
   short no matter how many times the object has moved; or, when it
   leads nowhere within 4096 cells, the missing cell or the last
   forwarder, chain untouched.  Allocates nothing unless compression
   rewrites a hop. *)
let rec chain_end t start a fuel =
  match Hashtbl.find t.cells a with
  | Object _ ->
      compress_to t start a;
      a
  | Forwarder next when fuel > 1 -> chain_end t start next (fuel - 1)
  | Forwarder _ | (exception Not_found) -> a

let endpoint t a = chain_end t a a 4096

let object_at t a =
  match Hashtbl.find t.cells a with
  | Object obj -> obj
  | Forwarder _ -> raise_notrace Not_found

let resolve t a =
  let e = endpoint t a in
  match object_at t e with obj -> Some (e, obj) | exception Not_found -> None

let current_addr t a =
  let e = endpoint t a in
  match object_at t e with _ -> e | exception Not_found -> a

let note_field_write t ~obj_addr ~index v =
  touch t;
  match find_segment t obj_addr with
  | exception Not_found -> ()
  | seg ->
      let field_addr =
        Addr.add obj_addr (Heap_obj.header_bytes + (index * Addr.word))
      in
      if Segment.contains seg field_addr then
        Segment.note_pointer seg field_addr ~is_pointer:(Value.is_pointer v)

let forward_fields t ~obj_addr obj =
  let changed = ref 0 in
  for i = 0 to Heap_obj.num_fields obj - 1 do
    let r = Heap_obj.get_raw obj i in
    if Value.raw_is_pointer r then begin
      let p = Value.raw_addr r in
      let p' = current_addr t p in
      if not (Addr.equal p p') then begin
        let v = Value.Ref p' in
        Heap_obj.fixup obj i v;
        note_field_write t ~obj_addr ~index:i v;
        incr changed
      end
    end
  done;
  !changed

let alloc_into ?version t ~seg ~uid ~fields =
  let size = Heap_obj.header_bytes + (Array.length fields * Addr.word) in
  match Segment.alloc seg ~size with
  | None -> None
  | Some a ->
      let obj =
        Heap_obj.make ?version ~heap:t.arena ~uid ~bunch:seg.Segment.bunch ~fields ()
      in
      install t a obj;
      Some a

(* The collector's copy primitive: allocate segment space and blit the
   object's raw words into a fresh arena slot — no boxed field array. *)
let alloc_clone t ~seg ~of_ =
  match Segment.alloc seg ~size:(Heap_obj.size_bytes of_) with
  | None -> None
  | Some a ->
      install t a (Heap_obj.clone ~heap:t.arena of_);
      Some a

let active_segment t ~bunch =
  match Ids.Bunch_tbl.find_opt t.active bunch with
  | Some seg -> seg
  | None ->
      let seg =
        match
          List.find_opt
            (fun s -> s.Segment.role = Segment.Active)
            (segments_of_bunch t bunch)
        with
        | Some s -> s
        | None -> fresh_segment t ~bunch ()
      in
      Ids.Bunch_tbl.replace t.active bunch seg;
      seg

let alloc ?version t ~bunch ~uid ~fields =
  match alloc_into ?version t ~seg:(active_segment t ~bunch) ~uid ~fields with
  | Some a -> a
  | None ->
      (* Segment overflow: grow the bunch (§2.1). *)
      let seg = fresh_segment t ~bunch () in
      Ids.Bunch_tbl.replace t.active bunch seg;
      (match alloc_into ?version t ~seg ~uid ~fields with
      | Some a -> a
      | None -> failwith "Store.alloc: object larger than a segment")

let objects_of_bunch t bunch =
  match Ids.Bunch_tbl.find_opt t.by_bunch bunch with
  | None -> []
  | Some h ->
      Hashtbl.fold (fun a obj acc -> (a, obj) :: acc) h []
      |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let bunch_object_count t bunch =
  match Ids.Bunch_tbl.find_opt t.by_bunch bunch with
  | None -> 0
  | Some h -> Hashtbl.length h

let has_objects_of_bunch t bunch =
  match Ids.Bunch_tbl.find_opt t.by_bunch bunch with
  | None -> false
  | Some h -> Hashtbl.length h > 0

let uid_addr t uid = Ids.Uid_tbl.find t.uid_index uid
let addr_of_uid t uid = Ids.Uid_tbl.find_opt t.uid_index uid

let bunch_of_uid t uid =
  match object_at t (endpoint t (uid_addr t uid)) with
  | obj -> obj.Heap_obj.bunch
  | exception Not_found -> -1

let address_history t uid =
  match Ids.Uid_tbl.find t.known_addrs uid with r -> !r | exception Not_found -> []
let iter t f =
  Hashtbl.iter
    (fun a c ->
      Perfcount.(counters.s_store_cells_touched <- counters.s_store_cells_touched + 1);
      f a c)
    t.cells

let iter_objects_of_bunch t bunch f =
  match Ids.Bunch_tbl.find_opt t.by_bunch bunch with
  | None -> ()
  | Some h -> Hashtbl.iter f h

let object_count t = t.objects
let objects_bytes t = t.objects_bytes
let segment_count t = Hashtbl.length t.segments
