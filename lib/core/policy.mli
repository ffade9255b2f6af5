(** Configuration of an ephemeral-logging manager. *)

(** What to do with a committed-but-unflushed update whose record
    reaches a generation head (§2.2 discusses both options). *)
type unflushed_policy =
  | Keep_in_log
      (** forward/recirculate the record until the flush completes —
          the paper's preferred variant and the default *)
  | Force_flush
      (** flush immediately, accepting random I/O on the database
          drives — the naive variant, kept as an ablation *)

(** Where a transaction's records enter the log. *)
type placement =
  | Youngest
      (** always the tail of generation 0 — the paper's base scheme *)
  | Lifetime_hint
      (** §6 extension: records of a transaction whose expected
          lifetime exceeds a generation's estimated retention period
          enter a later generation directly, saving forward
          bandwidth *)

type t = {
  generation_sizes : int array;  (** blocks per generation, youngest first *)
  recirculate : bool;  (** recirculation in the last generation *)
  unflushed : unflushed_policy;
  placement : placement;
  block_payload : int;  (** usable bytes per block (paper: 2000) *)
  forward_backfill : bool;
      (** fill forwarding buffers from subsequent head blocks (§2.2's
          "work backward from the head"); disabling it writes one
          forwarding block per processed head block — the naive
          variant, kept as an ablation *)
  group_commit_timeout : El_model.Time.t option;
      (** upper bound on how long a record may sit in a partially
          filled buffer before it is written anyway.  The paper's
          simulator has none (buffers are written when as full as
          possible); low-rate applications want one *)
  unsafe_eager_dispose : bool;
      (** dispose a committed update's log record the moment its forced
          flush is {e requested} instead of pinning it until the flush
          {e completes} — the pre-fix DESIGN §11 behaviour, which loses
          acked data when a crash lands inside the transfer window.
          Kept (default [false]) purely as an ablation so the negative
          durability tests can reproduce the hazard against the spec
          oracle *)
}

val default : generation_sizes:int array -> t
(** Paper parameters: recirculation on, [Keep_in_log], [Youngest]
    placement, 2000-byte payloads.  The head-tail gap k = 2 and the 4
    buffers per generation are not settings: like every manager, EL
    reads them from {!El_model.Params}.  Raises [Invalid_argument] if
    [generation_sizes] is empty or any size is smaller than
    [Params.head_tail_gap + 1] (a generation needs at least one
    writable block beyond the gap). *)

val validate : t -> unit
(** Raises [Invalid_argument] when inconsistent, with a message naming
    the offending field. *)

val num_generations : t -> int
val total_blocks : t -> int
