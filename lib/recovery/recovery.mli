(** Single-pass recovery for an ephemeral log.

    The paper argues (§4, and its companion report [9]) that because
    EL keeps the log tiny, the whole log can be read into memory and
    recovery performed in a single pass, instead of the traditional
    two-pass undo/redo.  This module implements that pass and the
    machinery the tests use to validate it:

    - a {!crash} captures what would survive a failure at an instant:
      every durable log block (including stale copies in freed slots —
      a real scan cannot tell them apart) and the stable database
      version as of the completed flushes.  A block whose write was
      torn by the crash keeps only the prefix that reached the platter
      intact, plus a count of the records its garbled tail lost;
    - {!recover} replays the image: torn tails are counted, then a
      transaction is committed iff a COMMIT record of it survives, and
      for every object the newest committed version wins (version
      numbers order updates even when recirculation has shuffled
      physical order, standing in for the paper's timestamps); redo is
      idempotent on the stable version;
    - {!audit} compares the recovered database with the reference
      committed state captured alongside the crash image.

    Recovery time is proportional to the records scanned, which is why
    the paper equates less disk space with faster recovery;
    [records_scanned] reports the scan size so benchmarks can quantify
    that claim. *)

open El_model

type block = {
  records : Log_record.t list;
      (** the records that reached the platter intact, in on-disk
          order *)
  torn : int;  (** how many records the block's torn tail lost *)
}
(** One durable block as a crash (or a store scan) reads it back.
    Writes are sequential within a block, so a torn write loses a
    suffix: everything from the first bad record on is gone, even a
    later record that would still read back whole. *)

type image = {
  blocks : block list;  (** every durable block; order is immaterial *)
  stable : El_disk.Stable_db.t;  (** stable version at the crash point *)
  reference : (Ids.Oid.t * int) list;
      (** ground truth: newest durably-committed version per object,
          naming each object once (as {!crash} and {!image_of_scan}
          build it) *)
  crash_time : Time.t;
}

val crash : El_sim.Engine.t -> El_core.El_manager.t -> image
(** Captures the crash image of an EL-managed log, now.  A block write
    in service with a torn fault verdict persists only its prefix,
    replacing whatever the slot durably held before; the lost suffix
    is its [torn] count.

    The [reference] is the manager's acked committed state, adjusted
    for the durability point: a transaction whose COMMIT record
    persisted inside a torn prefix is committed even though its ack
    never fired, so its durable writes are folded in (channel FIFO
    order guarantees they all persisted). *)

type result = {
  recovered : El_disk.Stable_db.t;  (** the database after redo *)
  committed_tids : Ids.Tid.t list;
  records_scanned : int;  (** intact records scanned *)
  redo_applied : int;  (** data records whose version won *)
  redo_skipped : int;  (** stale copies, uncommitted or aborted records *)
  torn_blocks : int;  (** blocks with a torn tail *)
  torn_records : int;  (** records lost to torn tails *)
}

val recover : ?obs:El_obs.Obs.t -> image -> result
(** The single pass: count torn tails, scan the intact records,
    determine the committed transaction set, redo newest committed
    versions onto a copy of the stable version.  With [obs], emits a
    [Recovery_scan] trace event — plus a [Torn_discard] event when any
    tail was lost — stamped at the image's crash time. *)

val image_of_scan : num_objects:int -> El_store.Log_store.scan -> image
(** Lifts a durable-store scan into a crash image: each surviving
    block keeps the records {!El_store.Log_store.scan} decoded before
    its first bad checksum, and the entries it cut become the block's
    [torn] count, so the torn counters match a simulated crash of the
    same state; the stable version is rebuilt from the persisted
    install facts.  [reference] is empty: a real restart has no
    ground truth.  [crash_time] is {!Time.zero}: a scanned image
    carries no clock. *)

val recover_store :
  ?obs:El_obs.Obs.t ->
  ?upto:int ->
  num_objects:int ->
  El_store.Backend.t ->
  result
(** Scans the backend and runs {!recover} on the resulting image — the
    real-restart path.  [upto] bounds the scan at a crash mark
    ({!El_core.El_manager.persist_crash_mark}), replaying the image as
    it stood at that instant. *)

type audit = {
  ok : bool;
  missing : (Ids.Oid.t * int) list;
      (** committed versions absent or stale in the recovered state *)
  spurious : (Ids.Oid.t * int) list;
      (** recovered versions that were never durably committed *)
}

val audit : image -> result -> audit
(** Compares against the image's reference.  [ok] is atomicity and
    durability in one bit: every durably-committed update recovered,
    nothing else.  When nothing is missing and the recovered database
    holds as many objects as the reference names, it holds nothing
    else, so the search for spurious versions is skipped; this relies
    on the reference naming each object once. *)

val pp_audit : Format.formatter -> audit -> unit
