(** A pure state-machine model of the durable-log contract, in the
    style of the verified-betrfs [DiskLog] state machine: explicit
    labelled steps, a transition function that rejects illegal steps,
    and a [persistent ⊆ ephemeral]-style invariant.

    The model deliberately knows nothing about generations, blocks,
    recirculation or flush scheduling — only about the contract every
    manager kind (EL, FW, hybrid) must honour:

    - an {e ack} ([Commit_ack]) promises that the transaction's writes
      survive any later crash ("ack implies recoverable");
    - a {e flush completion} moves a version into the stable database,
      and the {e superblock} (stable floor) never runs ahead of it;
    - a {e crash} erases every in-memory structure but none of the
      durable promises.

    The crash-point sweeper drives one instance of this model from the
    workload trace (the differential oracle): every sink event and
    flush completion becomes a step, every step must be legal, the
    invariant must hold at every pause, and the recovered image at a
    crash point must hold exactly the acked versions, raised by the
    writes of every {!log_extended} transaction whose COMMIT record
    persisted (El_check's crash judge). *)

open El_model

type tx_phase =
  | Running  (** begun, still appending *)
  | Log_extended
      (** commit requested: the COMMIT record has entered the log
          (the log extension), but the ack has not fired — a crash may
          or may not commit it, depending on what persisted *)
  | Acked  (** commit acknowledged: durably committed, must survive *)
  | Aborted
  | Killed

type t

type step =
  | Begin of Ids.Tid.t
  | Append of Ids.Tid.t * Ids.Oid.t * int  (** write of (oid, version) *)
  | Log_extension of Ids.Tid.t  (** commit record entered the log *)
  | Commit_ack of Ids.Tid.t  (** group commit acked the transaction *)
  | Abort of Ids.Tid.t
  | Kill of Ids.Tid.t  (** the paper's kill-on-no-space *)
  | Flush_complete of Ids.Oid.t * int
      (** a database-drive flush transferred (oid, version) *)
  | Superblock_advance of Ids.Oid.t * int
      (** the stable database now serves (oid, version) *)
  | Crash

val init : t

val step : t -> step -> (t, string) result
(** One transition.  [Error] describes why the step is illegal in the
    current state; the state is unchanged. *)

val check : t -> (unit, string) result
(** The invariant: per object, stable floor ≤ flushed ≤ acked — the
    persistent image never claims more than the ephemeral contract
    (cf. DiskLog's [SupersedesDisk]).  {!check_objects} over every
    acked object. *)

val check_objects : t -> Ids.Oid.t list -> (unit, string) result
(** The invariant over the listed objects only, in {!check}'s order
    and with its messages: a superblock ahead of its flush is reported
    before a flush ahead of its ack, each at the lowest failing oid,
    whatever the order of the list.  An object never acked holds no
    promise and passes.  Each object's record changes only by its own
    steps, and an ack only raises the bound a flush is held under, so
    checking the objects flushed since a passing check checks the
    whole invariant. *)

val crash : t -> t
(** Total form of the [Crash] step: wipes volatile transaction state,
    preserves every durable promise. *)

val persistent : t -> (Ids.Oid.t * int) list
(** The durable floor: every acked (oid, newest version).  All of it
    must be recoverable after any crash. *)

val unsettled : t -> Set.Make(Ids.Oid).t
(** The acked objects whose superblock floor is below the acked
    version (or absent): an ack adds its objects, the superblock
    advance that reaches the acked version removes one.  Every other
    acked object has its floor at its acked version, so the crash
    judge of a recovered database that is the stable one (proven to
    serve the floors) overlaid with a redo need only compare these and
    the redo's objects.  Its size follows the flush backlog, not the
    history. *)

val log_extended : t -> Ids.Tid.t -> bool
(** Whether the transaction reached its log extension and not its ack:
    its COMMIT record is in the log, so a crash commits it exactly when
    that record persisted (e.g. inside a torn prefix) although the ack
    never fired.  [false] for an acked transaction (its writes are in
    the acked versions already) and for a running, aborted, killed or
    unknown one (its writes must not survive). *)

val acked_version : t -> Ids.Oid.t -> int option
val flushed_version : t -> Ids.Oid.t -> int option
val floor_version : t -> Ids.Oid.t -> int option
val num_txs : t -> int

val equal : t -> t -> bool
(** Structural equality, for the model's own property tests
    (crash-step monotonicity, recovery idempotence). *)
