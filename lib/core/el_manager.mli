(** The ephemeral-logging log manager (§2).

    Manages the log as a chain of fixed-size generations, each a
    circular array of disk blocks.  New records enter the tail of
    generation 0 (or, with the lifetime-hint placement extension, a
    later generation) through block buffers written with group commit.
    When a generation needs room, its head advances: garbage records
    are discarded; survivors are forwarded to the next generation's
    tail — backfilling the outgoing buffer from subsequent head blocks,
    as §2.2 prescribes — or recirculated within the last generation via
    an in-memory staging buffer.  Committed updates are flushed
    continuously to the stable database version through the
    {!El_disk.Flush_array}; a flushed update's record becomes garbage.

    Transactions are killed only when a record cannot be kept: with
    recirculation off, when a still-active transaction's record
    reaches the head of the last generation; with recirculation on,
    when the last generation has no room to recirculate.  Kills are
    reported through the callback installed with {!set_on_kill}.

    If the configuration is so small that not even killing and
    evicting can make room (e.g. every surviving record belongs to a
    commit that is in flight), {!Log_overloaded} is raised; the
    minimum-space search treats this as an infeasible configuration. *)

open El_model

exception Log_overloaded of string

type t

val create :
  El_sim.Engine.t ->
  policy:Policy.t ->
  flush:El_disk.Flush_array.t ->
  stable:El_disk.Stable_db.t ->
  ?pooled:bool ->
  ?obs:El_obs.Obs.t ->
  ?fault:El_fault.Injector.t ->
  ?store:El_store.Log_store.t ->
  unit ->
  t
(** Builds the generations and takes ownership of the flush array's
    completion callback.  Block writes take the paper's 15 ms
    τ_Disk_Write, each generation has 4 buffers, k = 2 blocks stay
    free and tx records are 8 bytes ({!El_model.Params}).  [pooled]
    (default [true]) recycles the ledger's retired LOT/LTT entries
    through free lists — behaviour-identical, allocation-free in steady
    state.  With [obs], every append, seal, head advance, forward,
    recirculation, stage write, kill, eviction, commit ack and abort is
    traced, commit latencies feed the ["commit.latency_us"] histogram,
    and the per-generation log channels trace their block writes.
    With [fault], generation [i]'s channel resolves every block write
    against the plan's [Log_gen i] schedule (see
    {!El_disk.Log_channel.create}).  With [store], every completed
    block write is appended to the durable log before its completion
    hooks (so group-commit acks imply on-backend durability); pass the
    same store to the flush array so stable installs are persisted
    too. *)

val set_on_kill : t -> (Ids.Tid.t -> unit) -> unit

(** {2 The logging interface (wired to a workload generator)} *)

val begin_tx : t -> tid:Ids.Tid.t -> expected_duration:Time.t -> unit
val write_data :
  t -> tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit

val request_commit : t -> tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit
(** Appends the COMMIT record; [on_ack] fires when its block write
    completes (group commit, Figure 3's t₄), after the commit has been
    applied to the LOT/LTT and the transaction's updates handed to the
    flusher. *)

val request_abort : t -> tid:Ids.Tid.t -> unit

val drain : t -> unit
(** Seals and writes every partially-filled buffer (end of run), so
    that pending group commits can acknowledge once the engine runs
    the remaining events. *)

(** {2 Introspection} *)

type stats = {
  generation_sizes : int array;
  log_writes_per_gen : int array;  (** completed block writes, per generation *)
  total_log_writes : int;
  forwarded_records : int;
  recirculated_records : int;
  stage_writes : int;  (** recirculation blocks written at the last tail *)
  kills : int;
  evictions : int;  (** committed records force-flushed to make room *)
  forced_head_flushes : int;
      (** committed updates flushed because their record reached a
          head (non-zero under the [Force_flush] policy, or with
          recirculation off) *)
  fwd_guard_parks : int;
      (** log writes held back because their slot was the origin of a
          forward write still in flight in the next generation: the
          origin's durable image is those survivors' only platter
          copy, so the overwrite must wait for the forward write to
          complete (visible under deep next-generation backlog) *)
  peak_occupancy_per_gen : int array;  (** blocks, including the gap *)
  peak_memory_bytes : int;  (** LOT+LTT high-water mark, §4 accounting *)
  current_memory_bytes : int;
  lot_entries : int;
  ltt_entries : int;
  buffer_pool_overflows : int;
}

val stats : t -> stats
val ledger : t -> Ledger.t
val policy : t -> Policy.t

val check_invariants : t -> unit
(** Every invariant of the manager, stated here only (the sweep's
    {!El_check.Auditor} calls this at each pause):
    - LOT/LTT cross-consistency ({!Ledger.check_invariants});
    - per generation: circular cell list intact, head, tail and
      occupancy within bounds, [tail = head + occupied (mod size)],
      occupancy gauge equal to [occupied];
    - per listed cell: right generation, not garbage, held by its
      slot's block, and in an occupied slot (or staged in the last
      generation's recirculation buffer);
    - FIFO: under [Youngest] placement, every non-last generation lists
      its cells in head-to-tail ring order;
    - {!Ledger.live_cells} equals the number of listed cells.
    The ring equation, the gauge, a cell's occupied slot, FIFO order
    and the cell count raise [Failure] naming the generation, slot and
    ring positions involved; every other check raises
    [Assert_failure].  What the stable database may hold is the
    durable-log contract's to say, not the manager's: the sweep's
    spec tracker judges every install into it
    ({!El_check.Spec_tracker.watch_stable}). *)

val occupied_blocks : t -> int array
(** Current occupancy per generation. *)

(** {2 Recovery support} *)

(** One on-disk block as a crash would find it.  [db_torn_prefix =
    Some k] marks the block whose write was in service with a torn
    verdict at the crash: only its first [k] records persisted intact
    ([k < length db_records]; the suffix — at least the final record —
    is destroyed, replacing whatever the slot durably held before). *)
type durable_block = {
  db_gen : int;
  db_slot : int;
  db_records : Log_record.t list;
  db_torn_prefix : int option;
}

val durable_blocks : t -> durable_block list
(** Every block whose disk write has completed, across all generations
    — including stale copies in freed-but-not-yet-overwritten slots,
    exactly what a post-crash scan would read — plus, per generation,
    the write in service at the crash when (and only when) its fault
    verdict was torn.  Reading this never draws fault randomness. *)

val stable : t -> El_disk.Stable_db.t

val persist_crash_mark : t -> int option
(** Freezes the attached store at the crash instant: persists each
    generation channel's torn in-service write (valid prefix + corrupt
    tail, superseding the slot's old segment) and returns the store
    position.  A {!El_store.Log_store.scan} bounded by [~upto:mark]
    then reads exactly the image an in-simulation crash at this moment
    would leave on the backend.  [None] when no store is attached. *)
