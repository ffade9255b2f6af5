(** The EL–FW hybrid scheme sketched in §6 of the paper.

    Like EL, the log is a chain of FIFO queues; like FW, each queue
    maintains a firewall: the oldest non-garbage record in the queue.
    The log manager retains a pointer to only the {e oldest} log
    record of each transaction, instead of a cell per record.  When a
    transaction's oldest record reaches the head of queue i, {e all}
    of its records are regenerated (rewritten from main memory) at the
    tail of queue i+1 — the manager has no pointers with which to find
    and forward them individually.  In the last queue regeneration
    recirculates into the same queue; a transaction whose records
    cannot be regenerated for lack of space is killed.

    The trade-off the paper predicts, which the benches measure: main
    memory drops drastically for transactions with many updates (one
    anchor per transaction, at FW's 22 bytes, plus 40 bytes per
    committed-but-unflushed object for flush scheduling), at the price
    of higher log bandwidth (whole transactions are rewritten, live
    records included).

    The interface mirrors {!El_manager} so the same generator drives
    all three managers. *)

open El_model

type t

val create :
  El_sim.Engine.t ->
  queue_sizes:int array ->
  flush:El_disk.Flush_array.t ->
  stable:El_disk.Stable_db.t ->
  ?pooled:bool ->
  ?obs:El_obs.Obs.t ->
  ?fault:El_fault.Injector.t ->
  ?store:El_store.Log_store.t ->
  unit ->
  t
(** Every queue keeps the paper's fixed parameters
    ({!El_model.Params}): the k-block head-tail gap, 4 buffers, 15 ms
    block writes, 2000-byte payloads and 8-byte tx records.  Raises
    [Invalid_argument] if [queue_sizes] is empty or a queue is below
    the gap plus 2.

    With [store], every sealed block of every queue is appended to the
    durable log before its completion hooks fire — regenerated records
    are rewritten with their original record values, so a store scan
    sees exactly what a post-crash read of the queues would.

    [pooled] (default [true]) controls whether retired record arenas
    are recycled through the manager's {!Arena} free list; [false]
    reproduces the seed's allocate-per-transaction behaviour (the
    identity-test baseline) with bit-identical simulation results. *)

val set_on_kill : t -> (Ids.Tid.t -> unit) -> unit

val begin_tx : t -> tid:Ids.Tid.t -> expected_duration:Time.t -> unit
val write_data :
  t -> tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit
val request_commit : t -> tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit
val request_abort : t -> tid:Ids.Tid.t -> unit
val drain : t -> unit

type stats = {
  queue_sizes : int array;
  log_writes_per_queue : int array;
  total_log_writes : int;
  regenerations : int;  (** transactions moved between queues *)
  regenerated_records : int;  (** records rewritten by those moves *)
  kills : int;
  peak_memory_bytes : int;
  current_memory_bytes : int;
  live_transactions : int;
  unflushed_objects : int;
}

val stats : t -> stats

val occupied_blocks : t -> int array
(** Current occupancy per queue. *)

val check_invariants : t -> unit
(** Every invariant of the manager, stated here only (the sweep's
    {!El_check.Auditor} calls this at each pause): per-queue ring
    accounting (head, tail and occupancy within bounds, [tail = head +
    occupied (mod size)]), anchor counts matching the anchored lists
    and confined to occupied slots, every live transaction anchored
    exactly where its anchor claims, committed transactions retaining
    exactly their unflushed stubs, the committed-unflushed table
    consistent with its writers, one live arena segment per live
    transaction plus the unwritten abort blocks, and the memory gauge
    matching the §6 per-transaction and per-object byte accounting.
    Raises [Assert_failure] on violation. *)
