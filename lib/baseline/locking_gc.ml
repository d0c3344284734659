module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store


(* Acquire the write token for every local object of the bunches: the
   "single consistent copy" precondition strongly-consistent collectors
   assume.  Attributed to the collector in the DSM counters. *)
let token_sweep gc ~node ~bunches =
  let proto = Bmx_gc.Gc_state.proto gc in
  let store = Protocol.store proto node in
  List.iter
    (fun bunch ->
      List.iter
        (fun (addr, _obj) ->
          let addr' = Protocol.acquire proto ~actor:Protocol.Gc ~node addr `Write in
          Protocol.release proto ~node addr')
        (Store.objects_of_bunch store bunch))
    bunches

let run gc ~node ~bunch =
  token_sweep gc ~node ~bunches:[ bunch ];
  Bmx_gc.Collect.run gc ~node ~bunches:[ bunch ] ~group_mode:false ()
