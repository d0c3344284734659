(** Lightweight recoverable virtual memory (after Satyanarayanan et al.,
    as used by BMX §2.1/§8).

    BMX bases recovery on RVM: once a bunch is mapped, every modification
    to the bunch's address range has an associated log entry and can be
    recovered after a system failure.  Like the original, this is a
    redo-log design with simple flat transactions — no nesting, no
    distribution, no concurrency control (§8).

    The model separates {e volatile} state (lost on [crash]) from {e
    stable} state (the simulated disk: checkpoint image + log).  A
    transaction buffers updates; [commit] appends them to the log followed
    by a commit record, atomically — recovery replays only
    commit-terminated log prefixes, so a crash mid-transaction is
    invisible.  [checkpoint] folds the log into the stable image and
    truncates it, exactly the RVM truncation mechanism.

    The store is polymorphic in the value type; BMX persists heap cells
    keyed by address (the from-space/to-space-as-files arrangement of
    O'Toole et al. that §8 adopts). *)

type 'v t

type report = {
  r_scanned : int;  (** log entries examined by recovery *)
  r_verified : int;  (** entries that checksummed clean in sequence *)
  r_dropped : int;
      (** entries truncated from the log: the unverifiable suffix plus
          any verified-but-uncommitted torn tail *)
  r_corrupt : int;
      (** entries that failed verification (bad checksum or a slot-number
          gap) plus slots the superblock says were written but that are
          missing from the log outright (a record destroyed at either
          log boundary leaves no entry to scan, only this shortfall) *)
  r_lost : Bmx_util.Addr.t list;
      (** addresses whose {e committed} latest state was truncated —
          the data recovery had promised durability for and could not
          deliver; empty unless the log was corrupted.  Named from the
          superblock's per-transaction address journal, so they are
          complete even when the records themselves were destroyed
          rather than merely unverifiable *)
}
(** What {!recover} found on the simulated disk.  A clean recovery (no
    corruption, at worst a torn uncommitted tail) has [r_corrupt = 0]
    and [r_lost = []]. *)

val clean_report : report -> bool
(** No records dropped, none corrupt, nothing lost. *)

val create : copy:('v -> 'v) -> unit -> 'v t
(** [copy] must produce an independent duplicate of a value: values are
    copied on their way to the log and back, like bytes through a file.
    Every log entry carries a per-record checksum and a monotonically
    increasing slot number; {!recover} verifies both.  The handle also
    models a tiny superblock — the append-slot counter, the expected
    head slot, and a per-committed-transaction address journal (names
    only, never values) — written in place and not addressable by the
    fault API, which is what lets recovery detect and {e name} losses
    at the log boundaries. *)

(** {1 Transactions} *)

val begin_tx : 'v t -> unit
(** Raises [Failure] if a transaction is already open. *)

val set : 'v t -> Bmx_util.Addr.t -> 'v -> unit
(** Buffer a write.  Raises [Failure] outside a transaction. *)

val delete : 'v t -> Bmx_util.Addr.t -> unit

val commit : 'v t -> unit
(** Apply the buffered updates to the volatile image and append them,
    with a commit record, to the stable log. *)

val abort : 'v t -> unit
(** Discard the buffered updates. *)

(** {1 Reading} *)

val get : 'v t -> Bmx_util.Addr.t -> 'v option
(** Read from the volatile image (uncommitted buffered writes of the open
    transaction are visible, as with mapped RVM regions). *)

val fold : 'v t -> init:'a -> f:(Bmx_util.Addr.t -> 'v -> 'a -> 'a) -> 'a
val cardinal : 'v t -> int

(** {1 Failure and recovery} *)

val crash : 'v t -> unit
(** Lose all volatile state, including any open transaction.  If a commit
    was in flight, its log tail may be torn (no commit record) and will be
    ignored by recovery. *)

val crash_mid_commit : 'v t -> unit
(** Like [crash], but taken exactly after the data records of the open
    transaction reached the log and before the commit record did — the
    worst-case torn write. *)

val crash_mid_checkpoint : 'v t -> unit
(** Crash in the middle of a {!checkpoint}: the half-written shadow
    image is discarded, the old stable image and the log survive intact
    — the checkpoint simply never happened.  (Checkpointing stages into
    a shadow and installs it atomically; it never mutates the live
    stable image in place, so there is no half-applied state to model.)
    Raises [Failure] inside a transaction. *)

val recover : 'v t -> report
(** Verify the log oldest-first (checksums and slot-number contiguity),
    truncate it to the last verifiable commit-terminated prefix, and
    rebuild the volatile image from the stable checkpoint plus that
    prefix.  The slot sequence is anchored at both boundaries by the
    superblock: the oldest surviving entry must carry the slot recorded
    at the last truncation, and a newest slot short of the append
    counter means tail records were destroyed — so losing a record at
    either end of the log is detected, not just a mid-log gap, and the
    affected transactions' addresses are reported in [r_lost].  The
    first unverifiable entry condemns the whole suffix behind it —
    record boundaries past a corrupt record cannot be trusted.
    Idempotent on a clean log. *)

val last_recovery : 'v t -> report option
(** The report of the most recent {!recover} on this handle, if any.
    Kept for fsck passes: truncated addresses ([r_lost]) can still be
    named after the log entries themselves are gone. *)

val checkpoint : 'v t -> unit
(** RVM truncation: fold the committed log into the stable image and
    clear the log.  Staged through a shadow image so a crash mid-way
    (see {!crash_mid_checkpoint}) loses no committed state.  Raises
    [Failure] inside a transaction. *)

(** {1 Storage fault injection}

    Faults address log entries oldest-first: position 0 is the oldest
    surviving entry, [log_length t - 1] the newest.  All raise
    [Invalid_argument] on an out-of-bounds position. *)

val flip_bits : 'v t -> index:int -> unit
(** Bit rot: corrupt the stored bytes of one log entry so its checksum
    no longer verifies. *)

val drop_record : 'v t -> index:int -> unit
(** Lose one log entry outright; recovery detects the slot-number gap. *)

val truncate_mid_record : 'v t -> unit
(** A torn physical write at the log tail: the newest entry vanishes and
    the partial overwrite mangles the entry before it.  No-op on an
    empty log. *)

val log_length : 'v t -> int
(** Number of records currently in the stable log (data + commit marks). *)
