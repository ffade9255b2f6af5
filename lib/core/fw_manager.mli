(** The traditional firewall (FW) logging baseline (§1, §4).

    A single log; disk space behind the {e firewall} — the oldest log
    record of the oldest active transaction — cannot be reclaimed.
    Following the paper's evaluation setup, no checkpointing facility
    is modelled (this favours FW, as the paper notes): a transaction's
    records stop mattering the moment it terminates, so the head may
    advance over any block containing no active transaction's records.
    When the log fills and the head is blocked at the firewall, the
    oldest active transaction is killed, System R style.

    Main-memory accounting is the paper's: 22 bytes per transaction in
    the system (each needs a pointer to its oldest log record).

    The interface mirrors {!El_manager} so the harness can drive both
    with the same workload generator. *)

open El_model

type t

(** Periodic checkpointing, which the paper deliberately does not
    model ("this omission favors FW").  With a checkpoint facility, a
    committed transaction's records remain REDO-relevant until the
    first checkpoint after its commit, and each checkpoint itself
    costs log writes — this variant quantifies both. *)
type checkpointing = {
  interval : Time.t;  (** time between checkpoints *)
  cost_blocks : int;  (** block writes charged per checkpoint *)
}

val create :
  El_sim.Engine.t ->
  size_blocks:int ->
  ?block_payload:int ->
  ?checkpointing:checkpointing ->
  ?obs:El_obs.Obs.t ->
  ?fault:El_fault.Injector.t ->
  ?store:El_store.Log_store.t ->
  unit ->
  t
(** The log keeps the paper's fixed parameters ({!El_model.Params}):
    the k-block head-tail gap, 4 buffers, 15 ms block writes and 8-byte
    tx records.  [block_payload] defaults to the paper's 2000 bytes.
    Raises [Invalid_argument] if [size_blocks] is below the gap plus
    2.
    Without [checkpointing] this is the paper's idealised FW: records
    stop mattering the moment their transaction terminates.  With
    [store], every sealed block is appended to the durable log before
    its completion hooks fire; checkpoint writes carry no payload
    (they model bandwidth only) and persist nothing. *)

val set_on_kill : t -> (Ids.Tid.t -> unit) -> unit

val begin_tx : t -> tid:Ids.Tid.t -> expected_duration:Time.t -> unit
val write_data :
  t -> tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit
val request_commit : t -> tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit
val request_abort : t -> tid:Ids.Tid.t -> unit
val drain : t -> unit

type stats = {
  size_blocks : int;
  log_writes : int;
  kills : int;
  peak_occupancy : int;
      (** high-water mark of blocks between firewall and tail —
          FW's minimum disk-space requirement *)
  peak_memory_bytes : int;
  current_memory_bytes : int;
  live_transactions : int;
  buffer_pool_overflows : int;
  checkpoints : int;
  checkpoint_writes : int;  (** included in [log_writes] *)
}

val stats : t -> stats

val occupied_blocks : t -> int
(** Blocks currently between the head and the tail. *)

val check_invariants : t -> unit
(** Every invariant of the manager, stated here only (the sweep's
    {!El_check.Auditor} calls this at each pause): ring accounting
    (head, tail and occupancy within bounds, [tail = head + occupied
    (mod size)]), live-record counts non-negative and confined to
    occupied slots, every transaction's record slots inside the
    occupied region, per-slot pins equal to the sum of transaction
    record lists plus records awaiting a checkpoint, the memory gauge
    equal to 22 bytes per live transaction, and the active list
    holding exactly the live transactions in begin order.  Raises
    [Assert_failure] on violation. *)
