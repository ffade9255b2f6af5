(** The sequential write path of one log generation.

    A channel models the disk that stores a generation's circular
    array of blocks: writes are issued one at a time, each taking a
    fixed τ_Disk_Write (15 ms in the paper), and complete in FIFO
    order.  The log manager fills a buffer, calls {!write}, and is
    called back on completion — the moment at which the block's
    records become durable and group-committed transactions can be
    acknowledged.

    The channel also accounts for the buffer pool: the paper provides
    four buffers per generation, so at most four writes should ever be
    outstanding.  The channel does not block when the pool is
    exceeded (arrivals are open-loop, §3); instead it records the
    overflow so experiments can detect an under-provisioned pool. *)

open El_model

type t

val create :
  El_sim.Engine.t ->
  write_time:Time.t ->
  buffer_pool:int ->
  ?obs:El_obs.Obs.t ->
  ?label:int ->
  ?fault:El_fault.Injector.device_state ->
  ?store:El_store.Log_store.t ->
  unit ->
  t
(** Raises [Invalid_argument] if [buffer_pool] is non-positive.  With
    [obs], every block write emits [Log_write_start]/[Log_write_done]
    trace events tagged with [label] (the owning generation's index;
    [-1] when unnamed).  With [fault], each write consults the fault
    injector when it starts service: transient errors stretch the
    service time by the retry penalty, latency windows scale it,
    remaps burn spares (fatal when exhausted), and torn-write verdicts
    are held for {!torn_in_service}.  A nominal resolution reuses the
    exact [write_time], so an armed-but-inert plan is byte-identical
    to none.  With [store], every completed write with a payload is
    appended to the durable log (pwrite + barrier) {e before} its
    completion callback runs, so acks fired from [on_complete] imply
    on-device durability; store-backed channels must carry a
    non-negative [label] (it becomes the segment's generation). *)

val write :
  ?payload:(unit -> int * Log_record.t list) ->
  t ->
  on_complete:(unit -> unit) ->
  unit
(** Enqueues one block write.  [on_complete] fires τ after the write
    reaches the head of the channel's queue.  [payload], forced at
    completion on a store-backed channel and by {!torn_in_service},
    yields the block's slot and records; payload-less writes
    (checkpoints) model bandwidth only and persist nothing. *)

val writes_started : t -> int
val writes_completed : t -> int

val in_flight : t -> int
(** Writes issued but not yet completed (queued + in service). *)

val peak_in_flight : t -> int

val pool_overflows : t -> int
(** Number of writes issued while the buffer pool was already fully
    occupied — should be 0 in every paper configuration. *)

val torn_in_service : t -> (int * Log_record.t list * int) option
(** The write in service when its pre-drawn fault verdict tears it:
    [Some (slot, records, keep)] means a crash right now leaves only
    the first [keep] of the block's [records] intact ([keep <
    length records]: at least the last one is lost), replacing
    whatever the slot durably held before.  [None] when idle, when the
    write is not torn or carries no payload.  This is the one place
    the torn model is applied; reading it never advances the fault
    stream, so crash capture cannot perturb replay. *)

val quiesce_time : t -> Time.t
(** The simulated time at which all currently queued writes will have
    completed (= now when idle).  Used at end of run to drain. *)

val crash_persist : t -> unit
(** Appends the crash image of the in-service write to the store, if
    any: a {!torn_in_service} write persists its valid prefix (with
    the destroyed tail as corrupt entries) under a fresh sequence
    number; a non-torn or absent in-service write persists nothing,
    leaving the slot's previous segment newest.  No-op without a
    store. *)
