(** The logged object table (LOT) and logged transaction table (LTT)
    of §2.3, with the disposal cascade that keeps them consistent.

    The LOT has an entry for every object with at least one
    non-garbage data record in the log; the LTT has an entry for every
    transaction in progress and for every committed transaction that
    still has non-garbage data records.  Both are hash tables with
    chaining, as the paper prescribes.

    The ledger performs the paper's bookkeeping rules:
    - a new tx record supersedes the previous one (one tx cell per
      transaction);
    - on commit, the transaction's updates supersede any earlier
      committed updates of the same objects, which become garbage;
    - when a data record becomes garbage its oid leaves the writer's
      LTT entry, and a committed LTT entry with an empty write set is
      itself disposed together with its tx record;
    - aborts (and kills) make all of a transaction's records garbage
      at once.

    The ledger does not know about generations or disk blocks; the
    caller supplies [remove_cell], invoked whenever a cell is disposed
    so the log manager can unlink it from its generation's cell list.

    Main-memory accounting follows §4: the paper's 40 bytes per LTT
    entry plus 40 per LOT entry ({!El_model.Params.el_bytes_per_tx},
    {!El_model.Params.el_bytes_per_object}), tracked as a high-water
    gauge. *)

open El_model

type t

val create :
  remove_cell:(Cell.t -> unit) ->
  ?pooled:bool ->
  unit ->
  t
(** [pooled] (default [true]) recycles retired LOT/LTT entries through
    free lists, so steady-state transaction churn allocates no new
    table entries; [false] allocates fresh records, for A/B allocation
    profiling.  Behaviour is identical either way. *)

val begin_tx :
  t ->
  tid:Ids.Tid.t ->
  expected_duration:Time.t ->
  timestamp:Time.t ->
  size:int ->
  Cell.t
(** Creates the LTT entry and the BEGIN record's tracked cell (caller
    assigns its location and list membership).  Raises
    [Invalid_argument] if the tid already has an entry. *)

val write_data :
  t ->
  tid:Ids.Tid.t ->
  oid:Ids.Oid.t ->
  version:int ->
  size:int ->
  timestamp:Time.t ->
  Cell.t
(** Creates (if needed) the oid's LOT entry, the data record and its
    cell, registers the cell as an uncommitted update and adds the oid
    to the transaction's write set.  An earlier uncommitted update of
    the same object by the same transaction becomes garbage.  Raises
    [Invalid_argument] if the tid is unknown or not active. *)

val request_commit :
  t -> tid:Ids.Tid.t -> timestamp:Time.t -> size:int -> Cell.t
(** Creates the COMMIT record's cell and supersedes the previous tx
    record (which becomes garbage).  The entry moves to
    [`Commit_pending]: the commit only takes effect at
    {!commit_durable}, once the record is safely on disk.  A
    commit-pending transaction can no longer be killed, but its
    records must still be kept. *)

val commit_durable : t -> tid:Ids.Tid.t -> (Ids.Oid.t * int) list
(** Called when the COMMIT record's block write completes.  Marks the
    entry [`Committed]; for every object in the write set, the update
    becomes the most recently committed one (any earlier committed
    update becomes garbage) and is returned as [(oid, version)] for
    the caller to schedule flushing.  If the write set is empty the
    whole entry is disposed immediately. *)

val request_abort : t -> tid:Ids.Tid.t -> timestamp:Time.t -> size:int -> Cell.tracked
(** All the transaction's records become garbage and its entry is
    removed; the returned tracked ABORT record is born garbage and is
    appended to the log purely as history. *)

val kill : t -> tid:Ids.Tid.t -> unit
(** Same cleanup as an abort, without writing any record (the paper's
    transaction kill). *)

val flush_complete : t -> oid:Ids.Oid.t -> version:int -> bool
(** The stable version now holds [version] of [oid].  If that is
    still the most recently committed version, its record becomes
    garbage (possibly cascading into LTT disposal) and the result is
    [true]; a stale completion (superseded meanwhile) returns
    [false]. *)

(** How the log manager should treat a surviving (non-garbage) record
    found at a generation head. *)
type survivor_class =
  | Keep_active  (** record of a still-active transaction *)
  | Committed_data of Ids.Oid.t * int
      (** most recently committed, unflushed update (oid, version) *)
  | Committed_tx of Ids.Tid.t
      (** tx record of a committed transaction with a non-empty write
          set (still anchoring unflushed updates) *)
  | Flush_pinned
      (** committed update with a forced flush already in flight: the
          record must be carried (never re-requested, never evicted)
          until the completion path disposes it *)

val classify : t -> Cell.t -> survivor_class

val pin_flush : t -> Cell.t -> unit
(** Marks the committed update as having a forced flush in flight.
    Until {!flush_complete} (or supersession by a newer commit)
    disposes the record, {!classify} reports it as {!Flush_pinned} and
    the log manager must keep carrying it: its log copy is the only
    durable home of an acked version while the transfer is in flight.
    Raises [Invalid_argument] if the cell is not a most recently
    committed update. *)

val dispose : t -> Cell.t -> unit
(** Forces a record to garbage, with full cascade.  Used by eviction
    policies (forced flushes) — normal transitions happen through the
    functions above. *)

val writer_tid : Cell.t -> Ids.Tid.t

val find_tx : t -> Ids.Tid.t -> Cell.ltt_entry option
val is_active : t -> Ids.Tid.t -> bool
val tx_state :
  t -> Ids.Tid.t -> [ `Active | `Commit_pending | `Committed ] option

(** [committed_cell t oid] is the most recently committed, unflushed
    update of an object, with its version — used by forced-flush
    eviction. *)
val committed_cell : t -> Ids.Oid.t -> (Cell.t * int) option
val oldest_active : t -> Cell.ltt_entry option
(** The active transaction with the earliest begin time — the firewall
    victim when a log fills. *)

val lot_size : t -> int
val ltt_size : t -> int
val memory_bytes : t -> int
val peak_memory_bytes : t -> int
val unflushed_objects : t -> int
(** LOT entries whose committed update awaits flushing. *)

val live_cells : t -> int
(** Number of live (non-garbage) cells reachable from the tables: one
    per LOT committed update, one per LOT uncommitted update, one per
    LTT tx record.  The invariant auditor compares this against the
    total membership of the generations' cell lists to prove that no
    cell is orphaned on either side. *)

val check_invariants : t -> unit
(** Table/cell cross-consistency checks for the test suite. *)
