(* The economical path: a (node, bunch) pair whose dirtiness epoch is
   unchanged since the end of its previous collection would recompute
   the identical live set, reclaim nothing, evacuate nothing (see the
   economical clause in [Collect.run]) and rebroadcast identical tables
   — so the collection is skipped outright.  This is what lets
   [collect_until_quiescent]'s (nodes+1) confirming empty rounds cost
   O(1) each instead of re-tracing every heap: once the cluster stops
   changing, every pair goes clean within a round or two and stays
   clean until real work (a mutation, a received table that deletes
   something, a crash) bumps an epoch. *)

let skipped_report ~node ~bunch =
  {
    Collect.r_node = node;
    r_bunches = [ bunch ];
    r_roots = 0;
    r_live = 0;
    r_copied = 0;
    r_scanned_in_place = 0;
    r_reclaimed = 0;
    r_ref_updates = 0;
    r_new_inter_stubs = 0;
    r_new_intra_stubs = 0;
    r_exiting = 0;
    r_tables_sent = 0;
  }

let run ?(economical = false) t ~node ~bunch =
  if economical && Gc_state.bgc_clean t ~node ~bunch then begin
    Bmx_util.Stats.incr (Gc_state.stats t) "gc.bgc.skipped_clean";
    skipped_report ~node ~bunch
  end
  else begin
    let r = Collect.run ~economical t ~node ~bunches:[ bunch ] ~group_mode:false () in
    Gc_state.note_bgc_epoch t ~node ~bunch;
    Gc_state.sample_node_gauges t ~node;
    r
  end
