open Bmx_util
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store

(* The hook body: if the old owner holds inter-bunch stubs for the
   object, or an intra-bunch stub naming the node that does, create the
   intra-bunch SSP linking the new owner to each such stub holder (§3.2,
   §5 invariant 3). *)
let on_write_transfer t ~granter ~requester ~uid =
  let proto = Gc_state.proto t in
  match Store.bunch_of_uid (Protocol.store proto granter) uid with
  | -1 -> ()
  | bunch ->
      (* Both stub tables index exactly this query — the granter's stubs
         of the object, by its uid — so the hook never walks a table, and
         asks each index first: most transfers find no stub at all. *)
      let holds_inter =
        Gc_state.holds_inter_stub_with_src t ~node:granter ~bunch ~uid
      in
      let holds_intra =
        Gc_state.holds_intra_stub_for_uid t ~node:granter ~bunch ~uid
      in
      if holds_inter || holds_intra then begin
        let intra_holders =
          List.map
            (fun (s : Ssp.intra_stub) -> s.Ssp.ns_holder)
            (Gc_state.intra_stubs_for_uid t ~node:granter ~bunch ~uid)
        in
        (* The new owner must end up with a direct link to every node
           holding inter-bunch stubs for the object; chains of intra SSPs
           never form (Figure 4 shows the direct owner-to-stub-holder
           link). *)
        let holders =
          (if holds_inter then [ granter ] else []) @ intra_holders
          |> List.sort_uniq Ids.Node.compare
          |> List.filter (fun h -> not (Ids.Node.equal h requester))
        in
        List.iter
          (fun holder ->
            Stats.incr (Gc_state.stats t) "gc.intra_ssp.created";
            Gc_state.add_intra_stub t ~node:requester
              { Ssp.ns_bunch = bunch; ns_uid = uid; ns_holder = holder };
            let scion =
              { Ssp.xn_bunch = bunch; xn_uid = uid; xn_owner_side = requester }
            in
            if Ids.Node.equal holder granter then begin
              (* §5: the granter creates the scion before replying and
                 piggybacks the stub-creation request on the grant. *)
              Gc_state.add_intra_scion t ~node:granter scion;
              Net.record_piggyback (Protocol.net proto) ~src:granter
                ~kind:Net.Token_grant ~bytes:24 ()
            end
            else
              (* The stub holder is a third node (the granter itself only
                 had an intra stub): it learns about the new owner with a
                 background message. *)
              Net.send (Protocol.net proto) ~src:granter ~dst:holder
                ~kind:Net.Scion_message ~bytes:24 (fun _seq ->
                  Gc_state.add_intra_scion t ~node:holder scion))
          holders
      end

let install t =
  Protocol.set_hooks (Gc_state.proto t)
    {
      Protocol.before_write_grant =
        (fun ~granter ~requester ~uid -> on_write_transfer t ~granter ~requester ~uid);
    }
