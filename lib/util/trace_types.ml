(** The typed events of the one event log, {!Trace_event}, which
    re-exports them; see it for what records them and how they are
    stored. *)

(** Which subsystem performed a token operation.  The paper's central
    claim (§5) is that [Gc] never appears in an acquisition event. *)
type actor = App | Gc

type tok = Read | Write

type t =
  | Acquire_start of {
      actor : actor;
      node : Ids.Node.t;
      uid : Ids.Uid.t;
      tok : tok;
    }  (** a node entered the token-acquire path for an object *)
  | Acquire_done of {
      actor : actor;
      node : Ids.Node.t;
      uid : Ids.Uid.t;
      tok : tok;
      addr_valid : bool;
          (** §5 invariant 1: the acquiring node resolved a valid local
              address for the object at completion time *)
    }
  | Release of { node : Ids.Node.t; uid : Ids.Uid.t }
  | Grant_sent of {
      granter : Ids.Node.t;
      requester : Ids.Node.t;
      uid : Ids.Uid.t;
      tok : tok;
      updates : int;  (** piggybacked location updates (§4.4) *)
    }
  | Hook_ssp of {
      granter : Ids.Node.t;
      requester : Ids.Node.t;
      uid : Ids.Uid.t;
    }  (** §5 invariant 3: the before-write-grant hook ran *)
  | Invalidate of { src : Ids.Node.t; dst : Ids.Node.t; uid : Ids.Uid.t }
  | Updates_applied of { node : Ids.Node.t; uids : Ids.Uid.t list }
      (** a batch of location updates was processed at [node] *)
  | Forward_due of {
      node : Ids.Node.t;
      uid : Ids.Uid.t;
      peers : Ids.Node.t list;
    }  (** §5 invariant 2: fresh location info must reach these copy-set
           members *)
  | Copyset_forward of { src : Ids.Node.t; dst : Ids.Node.t; uid : Ids.Uid.t }
  | Gc_begin of { node : Ids.Node.t; group : bool; bunches : Ids.Bunch.t list }
  | Gc_end of { node : Ids.Node.t; group : bool; live : int; reclaimed : int }
  | Msg_sent of {
      src : Ids.Node.t;
      dst : Ids.Node.t;
      kind : string;
      seq : int;
      rel : bool;  (** sent on a reliable (acked, retransmitted) channel *)
    }  (** a background message was enqueued (recorded once, at the
           original send — retransmissions get {!Msg_retransmit}) *)
  | Msg_delivered of {
      src : Ids.Node.t;
      dst : Ids.Node.t;
      kind : string;
      seq : int;
      rel : bool;
    }  (** a background message was handed to its handler.  Reliable
           deliveries carry the {e original} sequence number and are
           handed off exactly once, in send order; unreliable ones may
           repeat (duplicate) or leave gaps (loss). *)
  | Msg_retransmit of {
      src : Ids.Node.t;
      dst : Ids.Node.t;
      kind : string;
      seq : int;
      attempt : int;  (** total transmissions so far, >= 2 *)
    }  (** the reliable layer re-sent an unacknowledged message *)
  | Msg_suppressed of {
      src : Ids.Node.t;
      dst : Ids.Node.t;
      kind : string;
      seq : int;
    }  (** receiver-side duplicate suppression swallowed a copy *)
  | Msg_buffered of {
      src : Ids.Node.t;
      dst : Ids.Node.t;
      kind : string;
      seq : int;
    }  (** a reliable message arrived ahead of a gap and was buffered *)
  | Rpc of { src : Ids.Node.t; dst : Ids.Node.t; kind : string; seq : int }
      (** a synchronous request/reply executed inline by the caller; it
          shares the per-pair sequence counter with background messages
          but is exempt from their FIFO — it logically overtakes anything
          still queued *)
  | Crash of { node : Ids.Node.t }
      (** the node lost its volatile state (store, tokens, channels) *)
  | Restart of { node : Ids.Node.t }
      (** the node rejoined; recovery from the persistent image follows *)
  | Link_cut of { src : Ids.Node.t; dst : Ids.Node.t }
      (** the directed link src→dst was cut: transmissions on it
          blackhole (partition model, distinct from probabilistic loss) *)
  | Link_heal of { src : Ids.Node.t; dst : Ids.Node.t }
      (** the directed link src→dst was restored *)
  | Suspect of { src : Ids.Node.t; dst : Ids.Node.t; on : bool }
      (** the reliable layer's failure detector changed its opinion of
          dst as seen from src: [on = true] enters the suspect state
          (retransmissions collapse to a single slow probe), [on = false]
          clears it (an ack got through) *)
  | Owner_adopted of {
      node : Ids.Node.t;
      uid : Ids.Uid.t;
      prev : Ids.Node.t;
    }
      (** recovery re-seated ownership of [uid] at [node].  [prev] is the
          owner the protocol still recorded then ([Node.invalid] if
          none); adoption is only legal when [prev] is genuinely gone,
          not merely unreachable — the split-brain lint checks this.
          [prev] is stored as an int field, not a node slot, so the
          event still belongs to [node] alone. *)
  | Tables_processed of {
      at : Ids.Node.t;
      sender : Ids.Node.t;
      bunch : Ids.Bunch.t;
      seq : int;
    }
      (** the scion cleaner at [at] accepted and processed a reachability
          tables message — quarantined (dead or unreachable sender) and
          stale-seq messages are {e not} recorded, so the partition lint
          can flag any processing that should have been quarantined *)
  | Disk_fault of { node : Ids.Node.t; fault : string }
      (** a storage fault was injected into the node's RVM log
          ([flip_bits], [drop_record], [truncate_mid_record], ...) *)
  | Rvm_recover of { node : Ids.Node.t; dropped : int; lost : int }
      (** checksummed log recovery ran: [dropped] log records were behind
          the last verifiable commit prefix, losing the latest state of
          [lost] distinct addresses *)
  | Bunch_verified of { node : Ids.Node.t; missing : int }
      (** the fsck-style post-restore verification ran; [missing] objects
          present on the checksummed disk image failed to make it into
          the restored store *)
  | Shard_alloc of { shard : int; node : Ids.Node.t }
      (** a segment range was carved from registry shard [shard], applied
          by [node] — which must be the shard's owner; the
          [Shard_ownership] lint flags any other applier *)
  | Shard_adopted of { shard : int; node : Ids.Node.t }
      (** registry shard [shard]'s ownership was (re-)established at
          [node]: initial placement, post-restart recovery, or
          split-brain-checked adoption by a survivor *)
  | Read_obs of {
      actor : actor;
      node : Ids.Node.t;
      uid : Ids.Uid.t;
      version : int;  (** object version observed by the read *)
      covered : bool;
          (** the reader held a valid token (directory state was not
              [Invalid]) — [false] only for explicit [~weak] reads *)
    }  (** a field read at access level, for the happens-before
           certifier's read-mapping check ([Bmx_check.Races]) *)
  | Write_obs of {
      actor : actor;
      node : Ids.Node.t;
      uid : Ids.Uid.t;
      version : int;  (** object version {e after} the write *)
      covered : bool;
    }  (** a field write at access level; semantic writes only — GC and
           protocol pointer fixups ([Heap_obj.fixup]) are not recorded *)
