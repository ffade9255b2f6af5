(** Single-pass recovery for an ephemeral log.

    The paper argues (§4, and its companion report [9]) that because
    EL keeps the log tiny, the whole log can be read into memory and
    recovery performed in a single pass, instead of the traditional
    two-pass undo/redo.  This module implements that pass and the crash
    capture it reads:

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
      idempotent on the stable version.

    What a crash must keep is not this module's to say: the spec
    tracker's judge ({!El_check.Spec_tracker.judge}) holds a recovery
    against the durable-log spec and the image it came from.

    Recovery time is proportional to the records scanned, which is why
    the paper equates less disk space with faster recovery;
    [records_scanned] reports the scan size so benchmarks can quantify
    that claim.  The capture follows the log too: an image's stable
    version is an {!El_disk.Stable_db.overlay} of the manager's live
    database (no copy), and the recovered database is an overlay of
    that.

    {b Image lifetime.}  An image from {!crash} reads the live stable
    database through its overlay, so it is valid only until that
    database's next install (the next flush completion): after it,
    {!recover} of the image, and every read of a result recovered from
    it, raise [Invalid_argument].  A caller that keeps
    an image while the run goes on copies its stable version once, at
    capture: [{ image with stable = El_disk.Stable_db.copy image.stable }]. *)

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
  stable : El_disk.Stable_db.t;
      (** stable version at the crash point (from {!crash}, an overlay
          of the manager's live database: see the image lifetime) *)
  crash_time : Time.t;
}
(** What a crash leaves on the platter, and nothing else: what the
    crash must keep is not the image's to say. *)

val crash : El_sim.Engine.t -> El_core.El_manager.t -> image
(** Captures the crash image of an EL-managed log, now.  A block write
    in service with a torn fault verdict persists only its prefix,
    replacing whatever the slot durably held before; the lost suffix
    is its [torn] count.  The capture costs the log, not the objects
    ever flushed. *)

type result = {
  recovered : El_disk.Stable_db.t;
      (** the database after redo: an overlay of the image's stable
          version holding the versions the redo raised *)
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
    versions into an overlay of the stable version.  Raises
    [Invalid_argument] if the image's stable version is a stale
    overlay (see the image lifetime).  With [obs], emits a
    [Recovery_scan] trace event — plus a [Torn_discard] event when any
    tail was lost — stamped at the image's crash time. *)

val image_of_scan : num_objects:int -> El_store.Log_store.scan -> image
(** Lifts a durable-store scan into a crash image: each surviving
    block keeps the records {!El_store.Log_store.scan} decoded before
    its first bad checksum, and the entries it cut become the block's
    [torn] count, so the torn counters match a simulated crash of the
    same state; the stable version adopts the scan's [s_stable] table
    ({!El_disk.Stable_db.of_table}, no copy), so the scan's table
    belongs to the image from then on.  [crash_time] is {!Time.zero}:
    a scanned image carries no clock. *)

val recover_store :
  ?obs:El_obs.Obs.t ->
  ?upto:int ->
  num_objects:int ->
  El_store.Backend.t ->
  result
(** Scans the backend and runs {!recover} on the resulting image — the
    real-restart path.  Its cost is one checksum pass over the image
    plus decoding and redoing the surviving segments (see
    {!El_store.Log_store.scan}).  [upto] bounds the scan at a crash mark
    ({!El_core.El_manager.persist_crash_mark}), replaying the image as
    it stood at that instant. *)
